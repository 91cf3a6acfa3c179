// Overload storm: starve the origin server, release a mid-run demand spike
// into a partitioned overlay, and compare SocialTube with the overload
// controls off vs on.
//
//   ./examples/overload_storm [--users 400] [--seed 7] [--threads 2]
//                             [--server-kbps-per-user 12] [--spike 2]
//                             [--faults SPEC] [--overload SPEC]
//                             [--trace-out storm.jsonl]
//
// The baseline scenario runs with every overload knob disabled; the second
// scenario enables --overload (default "on": playback-rate floor, server
// admission control, prefetch backpressure, per-neighbor circuit breakers).
// Under the same spike the controlled run sheds prefetch and over-deadline
// server requests so playback flows keep their floor — rebuffer ratio stays
// inside the SLO while the uncontrolled run degrades for everyone.
//
// --faults defaults to a partition + crash wave timed inside the release
// window, so breakers also see real neighbor failures. Malformed specs and
// unknown flags fail fast with exit code 2, printing the offending token and
// the accepted grammar.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "exp/config.h"
#include "exp/runner.h"
#include "fault/schedule.h"
#include "trace/generator.h"
#include "util/flags.h"
#include "util/thread_pool.h"
#include "vod/overload.h"

int main(int argc, char** argv) {
  const st::Flags flags(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed", 7));
  const auto users = static_cast<std::size_t>(flags.getInt("users", 400, 1));
  const std::size_t threads =
      st::resolveThreadCount(flags.getInt("threads", 0), 1);
  const double serverKbpsPerUser =
      flags.getDouble("server-kbps-per-user", 12.0);
  const auto spike = static_cast<std::size_t>(flags.getInt("spike", 2));
  const std::string traceOut = flags.getString("trace-out", "");
  // Partition one interest cluster and crash 15% of the nodes while the
  // release wave is landing (the window below covers 30-45% of the run).
  const std::string faultSpec = flags.getString(
      "faults", "partition:t=28800,dur=3600,cat=0;crash:t=30000,frac=0.15");
  const std::string overloadSpec = flags.getString("overload", "on");

  {
    st::fault::Schedule parsed;
    std::string error;
    if (!st::fault::Schedule::parse(faultSpec, &parsed, &error)) {
      std::fprintf(stderr, "--faults: %s\n%s\n", error.c_str(),
                   st::fault::Schedule::grammar());
      return 2;
    }
  }
  st::vod::OverloadConfig overload;
  {
    std::string error;
    if (!st::vod::OverloadConfig::parse(overloadSpec, &overload, &error)) {
      std::fprintf(stderr, "--overload: %s\n%s\n", error.c_str(),
                   st::vod::OverloadConfig::grammar());
      return 2;
    }
  }
  if (const auto leftover = flags.unconsumed(); !leftover.empty()) {
    for (const std::string& flag : leftover) {
      std::fprintf(stderr, "unknown flag '--%s'\n", flag.c_str());
    }
    std::fprintf(stderr,
                 "accepted flags: --users --seed --threads "
                 "--server-kbps-per-user --spike --faults --overload "
                 "--trace-out\n");
    return 2;
  }
  if (serverKbpsPerUser <= 0.0) {
    std::fprintf(stderr, "--server-kbps-per-user must be > 0\n");
    return 2;
  }

  st::exp::ExperimentConfig config =
      st::exp::ExperimentConfig::simulationDefaults(seed);
  config = config.scaledTo(users, 4);
  // One simulated day keeps the example quick; the fault times above are
  // absolute seconds inside this horizon.
  config.duration = st::sim::kDay;
  // Starve the server: scaledTo sizes it at 20 kbps/user, which rides out
  // most spikes. 12 kbps/user cannot absorb a release wave alone.
  config.vod.serverUploadBps = serverKbpsPerUser * 1000.0 *
                               static_cast<double>(users);
  // The demand spike: hold videos back and release them in a tight window
  // overlapping the partition, with eager subscribers.
  config.releases.perChannel = spike;
  config.releases.windowStartFraction = 0.30;
  config.releases.windowEndFraction = 0.45;
  config.releases.feedWatchProbability = 0.9;
  config.faults.spec = faultSpec;

  std::printf("Overload storm — %zu users, %.0f kbps/user server, "
              "%zu releases/channel into a partition\n\n",
              users, serverKbpsPerUser, spike);

  const st::trace::Catalog catalog = st::trace::generateTrace(config.trace);
  // Scenario 0 leaves every overload knob off; scenario 1 turns the parsed
  // spec on. Same catalog, same faults, same spike.
  const std::vector<st::vod::OverloadConfig> scenarios = {
      st::vod::OverloadConfig{}, overload};
  std::vector<st::exp::ExperimentResult> results(scenarios.size());
  {
    std::optional<st::ThreadPool> pool;
    if (threads > 1) pool.emplace(std::min(threads, scenarios.size()));
    st::parallelFor(pool ? &*pool : nullptr, scenarios.size(),
                    [&](std::size_t i) {
                      st::exp::ExperimentConfig scenario = config;
                      scenario.vod.overload = scenarios[i];
                      if (!traceOut.empty()) {
                        scenario.obs.traceOut =
                            traceOut + (i == 0 ? ".off" : ".on");
                      }
                      results[i] = st::exp::runExperiment(
                          scenario, st::exp::SystemKind::kSocialTube,
                          &catalog);
                    });
  }
  if (st::exp::reportRunErrors(results)) return 1;

  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const auto& result = results[i];
    const bool on = scenarios[i].any();
    std::printf("overload controls %s:\n", on ? "ON " : "OFF");
    std::printf("  startup delay mean/p99  = %.1f / %.1f ms "
                "(%llu timeouts / %llu watches)\n",
                result.startupDelayMs.mean(),
                result.startupDelayMs.percentile(99),
                static_cast<unsigned long long>(result.startupTimeouts()),
                static_cast<unsigned long long>(result.watches()));
    std::printf("  rebuffers               = %llu\n",
                static_cast<unsigned long long>(result.rebuffers()));
    std::printf("  server fallbacks        = %llu (%llu MB served)\n",
                static_cast<unsigned long long>(result.serverFallbacks()),
                static_cast<unsigned long long>(
                    result.serverBytes() / 1'000'000));
    std::printf("  releases fired          = %llu (%llu feed watches)\n",
                static_cast<unsigned long long>(result.releasesFired()),
                static_cast<unsigned long long>(result.feedWatches()));
    if (on) {
      std::printf("  requests shed           = %llu (%llu prefetch "
                  "throttled)\n",
                  static_cast<unsigned long long>(
                      result.counter("server.shed")),
                  static_cast<unsigned long long>(
                      result.counter("prefetch.throttled")));
      std::printf("  breakers opened/closed  = %llu / %llu "
                  "(%llu still open)\n",
                  static_cast<unsigned long long>(
                      result.counter("breaker.opened")),
                  static_cast<unsigned long long>(
                      result.counter("breaker.closed")),
                  static_cast<unsigned long long>(
                      result.counter("breaker.open")));
      std::printf("  rebuffer ratio          = %llu ppm (SLO %llu ppm: %s)\n",
                  static_cast<unsigned long long>(
                      result.counter("slo.rebuffer_ratio_ppm")),
                  static_cast<unsigned long long>(
                      scenarios[i].rebufferSloRatio * 1e6),
                  result.counter("slo.rebuffer_within_target") != 0
                      ? "met" : "MISSED");
    }
    std::printf("\n");
  }
  std::printf("Load shedding trades prefetch and over-deadline server pulls "
              "for playback\nheadroom: the controlled run keeps startup and "
              "rebuffering inside the SLO\nwhile the open-loop run lets the "
              "spike starve everyone equally.\n");
  if (!traceOut.empty()) {
    std::printf("\nEvent traces written to %s.off / %s.on "
                "(JSONL; kind=shed/breaker rows).\n",
                traceOut.c_str(), traceOut.c_str());
  }
  return 0;
}

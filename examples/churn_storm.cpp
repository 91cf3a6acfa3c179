// Churn storm: stress SocialTube with mostly-abrupt departures and short
// sessions, and watch the probe/repair machinery keep the overlay usable.
//
//   ./examples/churn_storm [--users 800] [--abrupt 0.8] [--seed 3]
//                          [--threads 2] [--trace-out storm.jsonl]
//                          [--faults SPEC] [--audit SECONDS]
//                          [--overload SPEC] [--shards N]
//                          [--snapshot-out PATH] [--snapshot-in PATH]
//                          [--snapshot-at SECONDS]
//
// --trace-out dumps the structured protocol-event timeline (JSONL; one file
// per scenario, suffixed ".calm"/".storm") — see EXPERIMENTS.md for how to
// slice the repair/fallback events.
//
// --snapshot-out saves each scenario's complete state at --snapshot-at
// simulated seconds (0 = the horizon) to PATH.calm / PATH.storm.
// --snapshot-in restores ONE snapshot file into BOTH scenarios — the two
// scenarios differ only in config (abrupt fraction, and any --faults /
// --audit layered on after the snapshot point), so a single warmed calm
// state forks into N what-if runs without replaying the warm-up.
//
// --faults layers a scripted fault schedule (src/fault/schedule.h grammar,
// e.g. "crash:t=3600,frac=0.2;loss:t=4000,dur=300,rate=0.3") over both
// scenarios; --audit N runs the structural invariant checker every N
// simulated seconds and reports confirmed violations per scenario. A
// schedule with rejoin events also reports the recovery rounds run and the
// rejoined users that came clean or exhausted their round budget.
// --overload enables the overload-control knobs (src/vod/overload.h grammar,
// e.g. "on" or "floor_kbps=200,queue=32,breaker=3").
// --shards N runs both scenarios on the community-sharded engine
// (src/sim/shard.h grammar: a power of two up to 256); results are
// bitwise-identical at any shard count, but not to an unsharded run, so
// compare fingerprints only within one --shards setting.
//
// Malformed specs and unknown flags fail fast with exit code 2, printing the
// offending token and the accepted grammar.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "exp/config.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "fault/schedule.h"
#include "sim/shard.h"
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
  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed", 3));
  const auto users = static_cast<std::size_t>(flags.getInt("users", 800, 1));
  const double abrupt = flags.getDouble("abrupt", 0.8);
  const std::size_t threads =
      st::resolveThreadCount(flags.getInt("threads", 0), 1);
  const std::string traceOut = flags.getString("trace-out", "");
  const std::string faultSpec = flags.getString("faults", "");
  const st::sim::SimTime audit = flags.getSeconds("audit", 0);
  const std::string overloadSpec = flags.getString("overload", "");
  const std::string snapshotOut = flags.getString("snapshot-out", "");
  const std::string snapshotIn = flags.getString("snapshot-in", "");
  const st::sim::SimTime snapshotAt = flags.getSeconds("snapshot-at", 0);

  // Validate every spec up front so a typo fails before minutes of
  // simulation (the runner would abort mid-run otherwise). Exit code 2
  // distinguishes usage errors from run failures.
  bool hasRejoin = false;
  {
    st::fault::Schedule parsed;
    std::string error;
    if (!st::fault::Schedule::parse(faultSpec, &parsed, &error)) {
      std::fprintf(stderr, "--faults: %s\n%s\n", error.c_str(),
                   st::fault::Schedule::grammar());
      return 2;
    }
    hasRejoin = parsed.has(st::fault::FaultKind::kRejoin);
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
  st::sim::ShardSpec shards;
  if (const std::string shardSpec = flags.getString("shards", "");
      !shardSpec.empty()) {
    std::string error;
    if (!st::sim::ShardSpec::parse(shardSpec, &shards, &error)) {
      std::fprintf(stderr, "--shards: %s\n%s\n", error.c_str(),
                   st::sim::ShardSpec::grammar());
      return 2;
    }
  }
  if (const auto leftover = flags.unconsumed(); !leftover.empty()) {
    for (const std::string& flag : leftover) {
      std::fprintf(stderr, "unknown flag '--%s'\n", flag.c_str());
    }
    std::fprintf(stderr,
                 "accepted flags: --users --abrupt --seed --threads "
                 "--trace-out --faults --audit --overload --shards "
                 "--snapshot-out --snapshot-in --snapshot-at\n");
    return 2;
  }
  if (audit < 0) {
    std::fprintf(stderr, "--audit must be >= 0 seconds\n");
    return 2;
  }
  if (snapshotAt < 0) {
    std::fprintf(stderr, "--snapshot-at must be >= 0 seconds\n");
    return 2;
  }

  st::exp::ExperimentConfig config =
      st::exp::ExperimentConfig::simulationDefaults(seed);
  config = config.scaledTo(users, 8);
  config.vod.offTimeMeanSeconds = 600.0;  // fast session turnover
  // Probe more aggressively than the default so repair keeps pace with
  // churn.
  config.vod.probeInterval = 2 * st::sim::kMinute;
  config.faults.spec = faultSpec;
  config.faults.auditInterval = audit;
  config.vod.overload = overload;
  config.shards.count = shards.count;

  std::printf("Churn storm — %zu users, %.0f%% abrupt departures, "
              "2-minute probes\n\n", users, abrupt * 100.0);

  const st::trace::Catalog catalog = st::trace::generateTrace(config.trace);
  // The calm and stormy scenarios only differ in config, so they can run
  // side by side; slots keep the printout in calm-first order.
  const std::vector<double> fractions = {0.0, abrupt};
  std::vector<st::exp::ExperimentResult> results(fractions.size());
  {
    std::optional<st::ThreadPool> pool;
    if (threads > 1) pool.emplace(std::min(threads, fractions.size()));
    st::parallelFor(pool ? &*pool : nullptr, fractions.size(),
                    [&](std::size_t i) {
                      st::exp::ExperimentConfig scenario = config;
                      scenario.vod.abruptDepartureFraction = fractions[i];
                      if (!traceOut.empty()) {
                        scenario.obs.traceOut =
                            traceOut + (i == 0 ? ".calm" : ".storm");
                      }
                      if (!snapshotOut.empty()) {
                        scenario.snapshot.out =
                            snapshotOut + (i == 0 ? ".calm" : ".storm");
                      }
                      // Same file for both scenarios: the fork.
                      scenario.snapshot.in = snapshotIn;
                      scenario.snapshot.at = snapshotAt;
                      results[i] = st::exp::runExperiment(
                          scenario, st::exp::SystemKind::kSocialTube,
                          &catalog);
                    });
  }
  if (st::exp::reportRunErrors(results)) return 1;
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    const auto& result = results[i];
    std::printf("abrupt departures = %3.0f%%:\n", fractions[i] * 100.0);
    std::printf("  peer bandwidth p50      = %.3f\n",
                result.normalizedPeerBandwidth.percentile(50));
    std::printf("  startup delay mean      = %.1f ms "
                "(%llu timeouts / %llu watches)\n",
                result.startupDelayMs.mean(),
                static_cast<unsigned long long>(result.startupTimeouts()),
                static_cast<unsigned long long>(result.watches()));
    std::printf("  probes sent             = %llu\n",
                static_cast<unsigned long long>(result.probes()));
    std::printf("  repair rounds           = %llu\n",
                static_cast<unsigned long long>(result.repairs()));
    if (config.faults.any()) {
      std::printf("  faults fired            = %llu (%llu crashes, "
                  "%llu messages faulted)\n",
                  static_cast<unsigned long long>(
                      result.counter("fault.events")),
                  static_cast<unsigned long long>(
                      result.counter("fault.crashes")),
                  static_cast<unsigned long long>(
                      result.counter("messages_faulted")));
    }
    if (config.faults.auditInterval > 0) {
      std::printf("  invariant audits        = %llu (%llu violations)\n",
                  static_cast<unsigned long long>(
                      result.counter("invariant.audits")),
                  static_cast<unsigned long long>(
                      result.counter("invariant.violations")));
    }
    if (hasRejoin) {
      std::printf("  recovery rounds         = %llu (%llu recovered, "
                  "%llu abandoned)\n",
                  static_cast<unsigned long long>(
                      result.counter("recovery.rounds")),
                  static_cast<unsigned long long>(
                      result.counter("recovery.recovered")),
                  static_cast<unsigned long long>(
                      result.counter("recovery.abandoned")));
    }
    if (config.vod.overload.any()) {
      std::printf("  overload: shed          = %llu (%llu prefetch "
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
      std::printf("  rebuffer ratio          = %llu ppm (SLO %s)\n",
                  static_cast<unsigned long long>(
                      result.counter("slo.rebuffer_ratio_ppm")),
                  result.counter("slo.rebuffer_within_target") != 0
                      ? "met" : "MISSED");
    }
    std::printf("\n");
  }
  std::printf("Even with most nodes vanishing silently, stale links are "
              "probed out and\nre-filled from the server directory; "
              "availability degrades gracefully\ninstead of collapsing.\n");
  if (!traceOut.empty()) {
    std::printf("\nEvent traces written to %s.calm / %s.storm "
                "(JSONL, sim-time ordered).\n",
                traceOut.c_str(), traceOut.c_str());
  }
  return 0;
}

// e2e_bench — end-to-end figure-run benchmark with per-layer attribution.
//
//   e2e_bench --workload fig16 --seed 7 --seconds 55 --trace 0
//
// Untraced (--trace 0): runs the workload through exp::runExperiment,
// repeating it until --seconds is spent (at least --repeats times), checks
// every repeat, and reports the end-to-end metrics. Traced (--trace 1):
// pairs an untraced run with the traced pass (traced_run.h) and reports the
// per-layer metrics. Human-readable lines come first; the last line of each
// workload is one JSON object.
// README.md explains the workloads and how to read the numbers.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "cli.h"
#include "exp/runner.h"
#include "layer_tracer.h"
#include "trace/generator.h"
#include "traced_run.h"
#include "util/stats.h"
#include "workloads.h"

namespace st::e2e {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupProbes = 5;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

double phaseSeconds(const exp::ExperimentResult& result, const char* name) {
  for (const obs::Phase& phase : result.phases) {
    if (phase.name == name) return phase.ms / 1000.0;
  }
  return 0.0;
}

// One untraced repeat: catalog generation, then every system of the
// workload through exp::runExperiment against that catalog.
struct Repeat {
  std::vector<exp::ExperimentResult> runs;
  double wall = 0.0;      // start of catalog generation to the last horizon
  double generate = 0.0;  // catalog generation
  double stackSetup = 0.0;
  double loop = 0.0;
  double extract = 0.0;

  [[nodiscard]] double setup() const { return generate + stackSetup; }
  [[nodiscard]] std::uint64_t sum(const char* counter) const {
    std::uint64_t total = 0;
    for (const auto& run : runs) total += run.counter(counter);
    return total;
  }
};

Repeat runUntraced(const Workload& workload,
                   const exp::ExperimentConfig& config) {
  Repeat repeat;
  const Clock::time_point start = Clock::now();
  const trace::Catalog catalog = trace::generateTrace(config.trace);
  repeat.generate = secondsSince(start);
  for (const exp::SystemKind kind : workload.systems) {
    repeat.runs.push_back(exp::runExperiment(config, kind, &catalog));
    const exp::ExperimentResult& run = repeat.runs.back();
    repeat.stackSetup += phaseSeconds(run, "setup");
    repeat.loop += phaseSeconds(run, "event_loop");
    repeat.extract += phaseSeconds(run, "extract");
  }
  repeat.wall = secondsSince(start);
  return repeat;
}

// Set-up alone: catalog generation plus stack construction. A zero horizon
// makes runExperiment return before simulating anything.
double setupProbe(const Workload& workload, exp::ExperimentConfig config) {
  config.duration = 0;
  const Clock::time_point start = Clock::now();
  const trace::Catalog catalog = trace::generateTrace(config.trace);
  double seconds = secondsSince(start);
  for (const exp::SystemKind kind : workload.systems) {
    seconds += phaseSeconds(exp::runExperiment(config, kind, &catalog), "setup");
  }
  return seconds;
}

// The workload's correctness checks on one repeat; every failed rule is
// printed. `reference` is the workload's first repeat (nullptr for it).
bool checkRepeat(const Workload& workload, const exp::ExperimentConfig& config,
                 const Repeat& repeat, const Repeat* reference) {
  bool ok = true;
  const auto fail = [&ok](const std::string& what) {
    std::printf("  CHECK FAILED: %s\n", what.c_str());
    ok = false;
  };
  const std::uint64_t expectedSessions =
      config.trace.numUsers * config.vod.sessionsPerUser;
  const bool rejoins = config.faults.spec.find("rejoin") != std::string::npos;
  for (const auto& run : repeat.runs) {
    // A rejoin logs a crashed user in before the login its crash scheduled;
    // when that session ends first, the superseded login still fires and
    // starts a session beyond the configured count (SessionDriver::login
    // checks only `online`). So under rejoin faults the count is a floor.
    const std::uint64_t sessions = run.sessionsCompleted();
    if (rejoins ? sessions < expectedSessions : sessions != expectedSessions) {
      fail(run.system + ": sessions_completed " + std::to_string(sessions) +
           (rejoins ? " < " : " != ") + "users x sessions " +
           std::to_string(expectedSessions));
    }
    if (config.faults.any() && run.counter("invariant.violations") != 0) {
      fail(run.system + ": " +
           std::to_string(run.counter("invariant.violations")) +
           " invariant violations");
    }
  }
  const exp::ExperimentResult* social = nullptr;
  const exp::ExperimentResult* nettube = nullptr;
  for (std::size_t i = 0; i < workload.systems.size(); ++i) {
    if (workload.systems[i] == exp::SystemKind::kSocialTube) {
      social = &repeat.runs[i];
    }
    if (workload.systems[i] == exp::SystemKind::kNetTube) {
      nettube = &repeat.runs[i];
    }
  }
  if (social != nullptr && nettube != nullptr &&
      social->aggregatePeerFraction() <
          nettube->aggregatePeerFraction() - 0.05) {
    fail("fig16 rule: SocialTube peer fraction " +
         std::to_string(social->aggregatePeerFraction()) +
         " < NetTube's " + std::to_string(nettube->aggregatePeerFraction()) +
         " - 0.05");
  }
  if (reference != nullptr) {
    for (std::size_t i = 0; i < repeat.runs.size(); ++i) {
      const auto& run = repeat.runs[i];
      const auto& first = reference->runs[i];
      if (!(run.counters == first.counters) ||
          run.overlayFingerprint != first.overlayFingerprint) {
        fail(run.system + ": repeat differs from the first run of the seed");
      }
    }
  }
  return ok;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string basis;  // numerator / denominator of a ratio, when it is one
};

void printMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6f %-9s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.basis.c_str());
  }
}

void printJson(bool correct, std::size_t attempted, std::size_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::string basis(const char* numerator, double n, const char* denominator,
                  double d) {
  char text[160];
  std::snprintf(text, sizeof text, "= %s %.10g / %s %.10g", numerator, n,
                denominator, d);
  return text;
}

void printRepeat(std::size_t index, const Repeat& repeat, bool ok) {
  std::printf("repeat %zu: wall %.3f s, setup %.3f s, loop %.3f s, "
              "events %llu,",
              index, repeat.wall, repeat.setup(), repeat.loop,
              static_cast<unsigned long long>(repeat.sum("events_fired")));
  for (const auto& run : repeat.runs) {
    std::printf(" %s=%08x", run.system.c_str(), run.overlayFingerprint);
  }
  std::printf(", checks %s\n", ok ? "OK" : "FAILED");
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Timings take the fastest repeat: on a shared host every repeat is the
// program's own cost plus interference, and the interference comes in slow
// stretches of tens of seconds that a median does not outvote (README.md,
// "Timing"). Set-up is the exception: its median, over many short samples.
std::vector<Metric> endToEndMetrics(const std::vector<Repeat>& repeats,
                                    std::vector<double> setup, double rssMb) {
  const Repeat* fastest = &repeats.front();
  for (const Repeat& r : repeats) {
    setup.push_back(r.setup());
    if (r.wall < fastest->wall) fastest = &r;
  }
  double loop = fastest->loop;
  for (const Repeat& r : repeats) loop = std::min(loop, r.loop);
  // The simulated metrics are identical in every repeat (checked).
  const Repeat& first = repeats.front();
  SampleSet startup;
  for (const auto& run : first.runs) {
    for (const double sample : run.startupDelayMs.samples()) {
      startup.add(sample);
    }
  }
  const double watches = static_cast<double>(first.sum("watches"));
  const double peer = static_cast<double>(first.sum("peer_chunks"));
  const double remote = peer + static_cast<double>(first.sum("server_chunks"));
  const double rebuffers = static_cast<double>(first.sum("rebuffers"));
  const double bodies = static_cast<double>(first.sum("body_completions"));

  char samples[64];
  std::snprintf(samples, sizeof samples, "(%zu samples)", startup.count());
  return {
      {"wall_s", fastest->wall, "s", ""},
      {"setup_s", median(setup), "s", ""},
      {"watches_per_s", ratio(watches, loop), "watches/s",
       basis("watches", watches, "fastest loop_s", loop)},
      {"peak_rss_mb", rssMb, "MB", ""},
      {"peer_fraction", ratio(peer, remote), "ratio",
       basis("peer_chunks", peer, "remote_chunks", remote)},
      {"startup_delay_mean_ms", startup.mean(), "ms", samples},
      {"startup_delay_p99_ms", startup.percentile(99), "ms", samples},
      {"rebuffer_rate", ratio(rebuffers, bodies), "ratio",
       basis("rebuffers", rebuffers, "body_completions", bodies)},
  };
}

void runEndToEnd(const Workload& workload, const exp::ExperimentConfig& config,
                 const Options& options) {
  std::vector<Repeat> repeats;
  std::size_t failed = 0;
  double rssMb = 0.0;
  const Clock::time_point start = Clock::now();
  // Set-up is short next to a repeat, so it gets samples of its own.
  std::vector<double> setups;
  for (int i = 0; i < kSetupProbes; ++i) {
    setups.push_back(setupProbe(workload, config));
  }
  while (repeats.size() < options.minRepeats ||
         secondsSince(start) + repeats.back().wall <= options.seconds) {
    repeats.push_back(runUntraced(workload, config));
    // Later repeats only add allocator fragmentation to the peak.
    if (repeats.size() == 1) rssMb = peakRssMb();
    const bool ok = checkRepeat(workload, config, repeats.back(),
                                repeats.size() > 1 ? &repeats.front() : nullptr);
    if (!ok) ++failed;
    printRepeat(repeats.size(), repeats.back(), ok);
  }
  const std::vector<Metric> metrics = endToEndMetrics(repeats, setups, rssMb);
  std::printf("end-to-end over %zu repeats (timings: fastest repeat; "
              "setup_s: median of %zu samples; peak RSS: first repeat):\n",
              repeats.size(), setups.size() + repeats.size());
  printMetrics(metrics);
  std::printf("runs: %zu attempted, %zu failed\n", repeats.size(), failed);
  printJson(failed == 0, repeats.size(), failed, metrics);
}

// One traced pass per system of the workload, checked against `untraced`.
struct TracedRepeat {
  std::vector<TracedResult> runs;
  double loop = 0.0;
  double handlers = 0.0;
  std::array<LayerTracer::Totals, sim::kComponentCount> components{};

  [[nodiscard]] const LayerTracer::Totals& of(sim::Component c) const {
    return components[static_cast<std::size_t>(c)];
  }
};

TracedRepeat runTracedRepeat(const Workload& workload,
                             const exp::ExperimentConfig& config) {
  TracedRepeat repeat;
  const trace::Catalog catalog = trace::generateTrace(config.trace);
  for (const exp::SystemKind kind : workload.systems) {
    repeat.runs.push_back(runTraced(config, kind, catalog, stdout));
    const TracedResult& run = repeat.runs.back();
    repeat.loop += run.loopSeconds;
    repeat.handlers += run.handlerSeconds;
    for (std::size_t c = 0; c < sim::kComponentCount; ++c) {
      repeat.components[c] += run.components[c];
    }
  }
  return repeat;
}

bool checkTraced(const Repeat& untraced, const TracedRepeat& traced) {
  bool ok = true;
  for (std::size_t i = 0; i < untraced.runs.size(); ++i) {
    const auto& plain = untraced.runs[i];
    const TracedResult& run = traced.runs[i];
    const bool same = plain.counters == run.counters &&
                      plain.overlayFingerprint == run.overlayFingerprint;
    LayerTracer::Totals all;
    for (const auto& c : run.components) all += c;
    const LayerTracer::Totals& flow =
        run.components[static_cast<std::size_t>(sim::Component::kFlow)];
    std::printf("fidelity %s: fingerprint %08x vs traced %08x, counters %s, "
                "events_fired %llu vs traced fires %llu; net.flow rebuilds "
                "%llu vs FlowNetwork::rateRecomputations %llu\n",
                plain.system.c_str(), plain.overlayFingerprint,
                run.overlayFingerprint, same ? "equal" : "DIFFER",
                static_cast<unsigned long long>(plain.eventsFired()),
                static_cast<unsigned long long>(all.fired),
                static_cast<unsigned long long>(flow.rebuilt),
                static_cast<unsigned long long>(run.rateRecomputations));
    std::printf("  %s alone: sim.fire_yield = fired %llu / enqueued %llu = "
                "%.4f; net.flow.completion_yield = completions %llu / "
                "reschedules %llu = %.4f\n",
                plain.system.c_str(),
                static_cast<unsigned long long>(all.fired),
                static_cast<unsigned long long>(all.enqueued()),
                ratio(static_cast<double>(all.fired),
                      static_cast<double>(all.enqueued())),
                static_cast<unsigned long long>(flow.fired),
                static_cast<unsigned long long>(flow.enqueued()),
                ratio(static_cast<double>(flow.fired),
                      static_cast<double>(flow.enqueued())));
    if (!same || plain.eventsFired() != all.fired) {
      std::printf("  CHECK FAILED: traced pass does not reproduce %s\n",
                  plain.system.c_str());
      ok = false;
    }
  }
  return ok;
}

std::vector<Metric> perLayerMetrics(const Workload& workload,
                                    const std::vector<Repeat>& untraced,
                                    const std::vector<TracedRepeat>& traced) {
  using sim::Component;
  std::vector<double> untracedLoop, tracedLoop, overhead, generate, stackSetup,
      extract;
  for (const Repeat& r : untraced) {
    untracedLoop.push_back(r.loop);
    generate.push_back(r.generate);
    stackSetup.push_back(r.stackSetup);
    extract.push_back(r.extract);
  }
  for (const TracedRepeat& t : traced) {
    tracedLoop.push_back(t.loop);
    overhead.push_back(t.loop - t.handlers);
  }
  // Counts repeat exactly (checked); self times are medians over repeats.
  const TracedRepeat& first = traced.front();
  const Repeat& plain = untraced.front();
  const auto selfSeconds = [&traced](Component c) {
    std::vector<double> values;
    for (const TracedRepeat& t : traced) {
      values.push_back(static_cast<double>(t.of(c).selfNs) * 1e-9);
    }
    return median(values);
  };
  const auto fired = [&first](Component c) {
    return static_cast<double>(first.of(c).fired);
  };
  std::uint64_t socialProbes = 0, socialRepairs = 0;
  for (std::size_t i = 0; i < workload.systems.size(); ++i) {
    if (workload.systems[i] == exp::SystemKind::kSocialTube) {
      socialProbes += plain.runs[i].probes();
      socialRepairs += plain.runs[i].repairs();
    }
  }
  LayerTracer::Totals all;
  for (const auto& c : first.components) all += c;
  const double enqueued = static_cast<double>(all.enqueued());
  const double fires = static_cast<double>(all.fired);
  const double reschedules =
      static_cast<double>(first.of(Component::kFlow).enqueued());
  const double completions = fired(Component::kFlow);
  const auto count = [&plain](const char* name) {
    return static_cast<double>(plain.sum(name));
  };
  const double loopUntraced = median(untracedLoop);
  const double loopTraced = median(tracedLoop);
  // Untraced event loop of one system of the workload (0 if it has none):
  // splits fig16's end-to-end time into its origin-bound and overlay parts.
  const auto systemLoop = [&](exp::SystemKind kind) {
    std::vector<double> values;
    for (std::size_t i = 0; i < workload.systems.size(); ++i) {
      if (workload.systems[i] != kind) continue;
      for (const Repeat& r : untraced) {
        values.push_back(phaseSeconds(r.runs[i], "event_loop"));
      }
    }
    return median(values);
  };

  return {
      {"sim.enqueued", enqueued, "count", ""},
      {"sim.fired", fires, "count", ""},
      {"sim.fire_yield", ratio(fires, enqueued), "ratio",
       basis("sim.fired", fires, "sim.enqueued", enqueued)},
      {"sim.events_per_s", ratio(count("events_fired"), loopUntraced), "1/s",
       basis("events_fired", count("events_fired"), "untraced loop_s",
             loopUntraced)},
      {"sim.loop_overhead_s", median(overhead), "s", ""},
      {"net.flow.reschedules", reschedules, "count", ""},
      {"net.flow.completions", completions, "count", ""},
      {"net.flow.completion_yield", ratio(completions, reschedules), "ratio",
       basis("completions", completions, "reschedules", reschedules)},
      {"net.flow.self_s", selfSeconds(Component::kFlow), "s", ""},
      {"net.msg.sent", count("messages_sent"), "count", ""},
      {"net.msg.lost", count("messages_lost"), "count", ""},
      {"net.msg.faulted", count("messages_faulted"), "count", ""},
      {"vod.session.fired", fired(Component::kSession), "count", ""},
      {"vod.session.self_s", selfSeconds(Component::kSession), "s", ""},
      {"vod.transfer.fired", fired(Component::kTransfer), "count", ""},
      {"vod.transfer.self_s", selfSeconds(Component::kTransfer), "s", ""},
      {"vod.server.shed", count("server.shed"), "count", ""},
      {"vod.transfer.hedged", count("tm.hedged"), "count", ""},
      {"vod.breaker.opened", count("breaker.opened"), "count", ""},
      {"core.socialtube.fired", fired(Component::kSocialTube), "count", ""},
      {"core.socialtube.self_s", selfSeconds(Component::kSocialTube), "s", ""},
      {"core.socialtube.probes", static_cast<double>(socialProbes), "count",
       ""},
      {"core.socialtube.repairs", static_cast<double>(socialRepairs), "count",
       ""},
      {"baselines.nettube.fired", fired(Component::kNetTube), "count", ""},
      {"baselines.nettube.self_s", selfSeconds(Component::kNetTube), "s", ""},
      {"baselines.pavod.fired", fired(Component::kPaVod), "count", ""},
      {"baselines.pavod.self_s", selfSeconds(Component::kPaVod), "s", ""},
      {"fault.injector.fired", fired(Component::kFault), "count", ""},
      {"fault.injector.self_s", selfSeconds(Component::kFault), "s", ""},
      {"fault.invariants.fired", fired(Component::kInvariants), "count", ""},
      {"fault.invariants.self_s", selfSeconds(Component::kInvariants), "s",
       ""},
      {"fault.recovery.fired", fired(Component::kRecovery), "count", ""},
      {"fault.recovery.self_s", selfSeconds(Component::kRecovery), "s", ""},
      {"fault.events", count("fault.events"), "count", ""},
      {"trace.generate_s", median(generate), "s", ""},
      {"exp.stack_setup_s", median(stackSetup), "s", ""},
      {"exp.extract_s", median(extract), "s", ""},
      {"exp.pavod.loop_s", systemLoop(exp::SystemKind::kPaVod), "s", ""},
      {"exp.socialtube.loop_s", systemLoop(exp::SystemKind::kSocialTube), "s",
       ""},
      {"exp.nettube.loop_s", systemLoop(exp::SystemKind::kNetTube), "s", ""},
      {"bench.untraced_loop_s", loopUntraced, "s", ""},
      {"bench.traced_loop_s", loopTraced, "s", ""},
      {"bench.tracing_overhead_s", loopTraced - loopUntraced, "s",
       basis("traced - untraced loop_s", loopTraced - loopUntraced,
             "untraced loop_s", loopUntraced)},
  };
}

void runTracedPass(const Workload& workload,
                  const exp::ExperimentConfig& config,
                  const Options& options) {
  std::vector<Repeat> untraced;
  std::vector<TracedRepeat> traced;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const Clock::time_point start = Clock::now();
  double pairWall = 0.0;
  while (traced.empty() || secondsSince(start) + pairWall <= options.seconds) {
    const Clock::time_point pairStart = Clock::now();
    untraced.push_back(runUntraced(workload, config));
    bool ok = checkRepeat(workload, config, untraced.back(),
                          untraced.size() > 1 ? &untraced.front() : nullptr);
    printRepeat(untraced.size(), untraced.back(), ok);
    traced.push_back(runTracedRepeat(workload, config));
    ok = checkTraced(untraced.back(), traced.back()) && ok;
    attempted += 1;
    if (!ok) ++failed;
    pairWall = secondsSince(pairStart);
  }
  const std::vector<Metric> metrics =
      perLayerMetrics(workload, untraced, traced);
  std::printf("per-layer, %zu traced repeats:\n", traced.size());
  printMetrics(metrics);
  std::printf("runs: %zu attempted, %zu failed\n", attempted, failed);
  printJson(failed == 0, attempted, failed, metrics);
}

}  // namespace
}  // namespace st::e2e

int main(int argc, char** argv) {
  using namespace st::e2e;
  Options options;
  std::string error;
  if (!parseOptions(argc, argv, &options, &error)) {
    std::fprintf(stderr, "e2e_bench: %s\n%s", error.c_str(), usage());
    return 2;
  }
  for (const Workload* workload : options.workloads) {
    const st::exp::ExperimentConfig config = workload->config(options.seed);
    std::printf("== %.*s (engine: %.*s; %zu users x %zu sessions, %.0f "
                "simulated days, seed %llu)\n",
                static_cast<int>(workload->name.size()), workload->name.data(),
                static_cast<int>(workload->engine.size()),
                workload->engine.data(), config.trace.numUsers,
                config.vod.sessionsPerUser,
                static_cast<double>(config.duration) / st::sim::kDay,
                static_cast<unsigned long long>(options.seed));
    if (options.trace) {
      runTracedPass(*workload, config, options);
    } else {
      runEndToEnd(*workload, config, options);
    }
  }
  return 0;
}

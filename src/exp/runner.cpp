#include "exp/runner.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <optional>
#include <utility>

#include "exp/run.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "util/thread_pool.h"

namespace st::exp {

const char* systemName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kSocialTube: return "SocialTube";
    case SystemKind::kNetTube: return "NetTube";
    case SystemKind::kPaVod: return "PA-VoD";
  }
  return "?";
}

ExperimentResult runExperiment(const ExperimentConfig& config,
                               SystemKind kind,
                               const trace::Catalog* catalog,
                               obs::EventTrace* trace) {
  obs::PhaseProfiler profiler;
  const auto failed = [&](std::string error) {
    ExperimentResult result;
    result.system = systemName(kind);
    result.mode = config.mode;
    result.seed = config.seed;
    result.error = std::move(error);
    return result;
  };

  trace::Catalog owned;
  if (catalog == nullptr) {
    const auto scope = profiler.scope("trace_gen");
    owned = trace::generateTrace(config.trace);
    catalog = &owned;
  }

  // Run-local sink when the config asks for a trace file and the caller did
  // not supply a sink of their own.
  std::optional<obs::EventTrace> ownedTrace;
  if (trace == nullptr && !config.obs.traceOut.empty()) {
    ownedTrace.emplace();
    trace = &*ownedTrace;
  }

  auto setupScope = std::optional(profiler.scope("setup"));
  std::string error;
  const std::unique_ptr<Run> run =
      Run::create(config, kind, catalog, trace, &error);
  if (run == nullptr) return failed(std::move(error));
  if (config.snapshot.in.empty()) {
    run->start();
  } else if (!run->restore(config.snapshot.in, &error)) {
    return failed("--snapshot-in " + config.snapshot.in + ": " + error);
  }
  setupScope.reset();

  {
    const auto scope = profiler.scope("event_loop");
    if (!run->runToHorizon(&error)) return failed(std::move(error));
  }
  if (config.shards.any()) {
    // Per-shard engine telemetry rides in the phase report (wall-clock
    // territory, excluded from the determinism guarantee): one phase per
    // shard whose call count is the events that shard fired, plus the
    // barrier-window and cross-shard tallies.
    const sim::Simulator& simulator = run->simulator();
    for (std::uint32_t s = 0; s < simulator.shardCount(); ++s) {
      profiler.record("shard" + std::to_string(s) + "_events", 0.0,
                      simulator.shardEventsFired(s));
    }
    profiler.record("shard_windows", 0.0, simulator.windowsRun());
    profiler.record("shard_cross_posts", 0.0, simulator.crossShardPosts());
    profiler.record("shard_cross_below_floor", 0.0,
                    simulator.crossBelowFloor());
  }

  auto extractScope = std::optional(profiler.scope("extract"));
  ExperimentResult result = run->extract();
  if (ownedTrace) ownedTrace->writeJsonl(config.obs.traceOut);
  extractScope.reset();

  result.phases = profiler.phases();
  return result;
}

std::vector<ExperimentResult> runAllSystems(const ExperimentConfig& config,
                                            std::size_t threads) {
  const trace::Catalog catalog = trace::generateTrace(config.trace);
  constexpr SystemKind kOrder[] = {SystemKind::kPaVod,
                                   SystemKind::kSocialTube,
                                   SystemKind::kNetTube};
  constexpr std::size_t kCount = std::size(kOrder);
  // Each run owns its whole simulator/metrics stack and only reads the
  // shared catalog, so the three systems can run concurrently; fixed result
  // slots keep the output order stable.
  std::vector<ExperimentResult> results(kCount);
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(std::min(threads, kCount));
  parallelFor(pool ? &*pool : nullptr, kCount, [&](std::size_t i) {
    // Per-system trace and snapshot files: parallel runs must not clobber
    // one path, and restore refuses a file saved by a different system, so
    // the suffix keeps a sweep's save/restore pairs lined up automatically.
    ExperimentConfig runConfig = config;
    for (std::string* path : {&runConfig.obs.traceOut, &runConfig.snapshot.out,
                              &runConfig.snapshot.in}) {
      if (!path->empty()) *path += std::string(".") + systemName(kOrder[i]);
    }
    results[i] = runExperiment(runConfig, kOrder[i], &catalog);
  });
  return results;
}

bool reportRunErrors(std::span<const ExperimentResult> results) {
  bool failed = false;
  for (const ExperimentResult& result : results) {
    if (result.error.empty()) continue;
    std::fprintf(stderr, "%s: %s\n", result.system.c_str(),
                 result.error.c_str());
    failed = true;
  }
  return failed;
}

}  // namespace st::exp

// Multi-seed replication: run the same experiment across independent seeds
// (fresh trace + fresh schedule each) and report mean +/- standard error for
// the headline metrics. Guards the single-run figures against lucky seeds.
//
// Replications are independent (each owns its simulator, trace, and RNG
// stack), so they dispatch onto a ThreadPool when `threads > 1`. Results are
// collected into per-seed slots and aggregated in seed order afterwards, so
// every aggregate is bitwise-identical to the sequential threads=1 path
// regardless of worker count or completion order.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exp/config.h"
#include "exp/runner.h"

namespace st::exp {

struct AggregateStat {
  double mean = 0.0;
  double stderrOfMean = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::size_t runs = 0;
};

struct MultiSeedSummary {
  std::string system;
  AggregateStat peerFraction;    // aggregate normalized peer bandwidth
  AggregateStat delayMeanMs;     // mean startup delay
  AggregateStat delayP99Ms;      // tail startup delay
  AggregateStat linksFinal;      // mean links after the last session video
  AggregateStat rebufferRate;
  std::vector<ExperimentResult> runs;  // ordered by seed: base, base+1, ...

  // Execution telemetry (wall clock, not simulated time; excluded from the
  // determinism guarantee — only the metric aggregates above are bitwise
  // reproducible across thread counts).
  std::size_t threads = 1;      // workers the batch ran on
  double wallMs = 0.0;          // end-to-end batch wall clock
  AggregateStat runWallMs;      // per-replication wall clock
  // sum(per-run wall) / (batch wall * threads): 1.0 means every worker was
  // busy the whole time; low values expose stragglers or an oversized pool.
  double poolUtilization = 0.0;
  // Per-phase wall clock across replications (trace_gen/setup/event_loop/
  // extract), aggregated by phase name in first-seen order.
  std::vector<std::pair<std::string, AggregateStat>> phaseWallMs;
};

// Runs `seeds` replications with seeds base.seed, base.seed+1, ..., on
// `threads` workers (1 = sequential in the calling thread). A replication
// that cannot proceed keeps its ExperimentResult::error in `runs`; check
// them (reportRunErrors) before reading the aggregates.
MultiSeedSummary runSeeds(const ExperimentConfig& base, SystemKind system,
                          std::size_t seeds, std::size_t threads = 1);

// Formats "mean +/- stderr [min, max]".
std::string formatStat(const AggregateStat& stat);

}  // namespace st::exp

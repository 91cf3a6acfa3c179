// The traced pass: one experiment built from the public classes exactly as
// exp::runExperiment wires it, with a LayerTracer in front of every event
// factory. Its counters and overlay fingerprint must equal the untraced
// runExperiment result for the same config; the benchmark checks that.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>

#include "exp/config.h"
#include "exp/runner.h"
#include "layer_tracer.h"
#include "obs/registry.h"
#include "trace/catalog.h"

namespace st::e2e {

struct TracedResult {
  obs::Snapshot counters;
  std::uint32_t overlayFingerprint = 0;
  double loopSeconds = 0.0;     // wall of Simulator::runUntil, traced
  double handlerSeconds = 0.0;  // sum of every handler's self time
  std::uint64_t rateRecomputations = 0;  // FlowNetwork's own count
  std::array<LayerTracer::Totals, sim::kComponentCount> components{};
};

// Runs `kind` under `config` against `catalog`, printing the per-(layer,
// kind) totals to `report` when the pass ends.
TracedResult runTraced(const exp::ExperimentConfig& config,
                       exp::SystemKind kind, const trace::Catalog& catalog,
                       std::FILE* report);

}  // namespace st::e2e

// Experiment presets: the PeerSim simulation (Table I) and the PlanetLab
// deployment (§V), plus proportional scaling for quick runs.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.h"
#include "trace/generator.h"
#include "vod/config.h"

namespace st::exp {

enum class Mode {
  kSimulation,  // clean network, Table I scale
  kPlanetLab,   // wide-area latencies, loss, 250 nodes
};

struct ExperimentConfig {
  std::uint64_t seed = 1;
  Mode mode = Mode::kSimulation;
  trace::GeneratorParams trace;
  vod::VodConfig vod;
  // Experiment horizon (Table I: 3 simulated days).
  sim::SimTime duration = 3 * sim::kDay;

  // Dynamic uploads (extension; see vod/releases.h). With perChannel > 0,
  // that many videos per channel are held back and published mid-run;
  // subscribers receive feed notifications and watch with the given
  // probability.
  struct Releases {
    std::size_t perChannel = 0;
    double windowStartFraction = 0.05;  // of the experiment duration
    double windowEndFraction = 0.60;
    double feedWatchProbability = 0.6;
  };
  Releases releases;

  // Structured event tracing (obs/event_trace.h). With traceOut non-empty,
  // runExperiment records protocol events into a ring buffer with
  // obs::EventTrace's default capacity and sampling, and flushes them as
  // JSONL to that path when the run ends. Multi-run helpers suffix the path
  // per system/seed so parallel runs never clobber each other.
  struct Observability {
    std::string traceOut;
  };
  Observability obs;

  // Scripted fault injection + invariant auditing (src/fault/). `spec`
  // follows the fault/schedule.h grammar; "" or "none" injects nothing.
  // With auditInterval > 0 an InvariantChecker walks the overlay's
  // structural contract periodically; confirmed violations land in the
  // "invariant.violations" counter and on the event trace. graceHorizon 0
  // derives probeInterval + 1s (see fault/invariants.h).
  struct Faults {
    std::string spec;
    sim::SimTime auditInterval = 0;
    sim::SimTime graceHorizon = 0;
    [[nodiscard]] bool any() const {
      return (!spec.empty() && spec != "none") || auditInterval > 0;
    }
  };
  Faults faults;

  // Deterministic checkpoint/restore (src/snapshot/). With `out` non-empty
  // the run saves its complete state at sim-time `at` (0 = the horizon) and
  // keeps running. With `in` non-empty the run restores that file instead
  // of starting fresh and resumes from the saved clock; the workload shape
  // (seed, users, videos, system) must match the saving run, and faults /
  // audits absent from the snapshot may be layered on top (warm-start
  // forking — their absolute times should lie after the snapshot point).
  struct Snapshot {
    std::string out;
    sim::SimTime at = 0;
    std::string in;
  };
  Snapshot snapshot;

  // Community-sharded engine (DESIGN.md §13). count 0 runs the unsharded
  // one-key plan; a power-of-two count shards the event queue by
  // interest community (key = 1 + category; key 0 is the origin server's
  // root). The full stack shares RNG/metrics/flow state, so sharded
  // experiment runs execute on the serial canonical merge — bitwise equal
  // across any shard count and usable for snapshot portability — while
  // shard-safe workloads (bench/shard_bench) run the parallel windows.
  struct Shards {
    std::uint32_t count = 0;
    [[nodiscard]] bool any() const { return count > 0; }
  };
  Shards shards;

  // Table I defaults: 10,000 nodes, 10,121 videos, 545 channels, 25 sessions
  // of 10 videos, N_l = 5, N_h = 10, TTL = 2, 10-minute probes.
  static ExperimentConfig simulationDefaults(std::uint64_t seed = 1);

  // §V PlanetLab run: 250 globally distributed nodes, 6 categories x 10
  // channels x 40 videos, 50 sessions, 2-minute mean off time, wide-area
  // latency/loss, 5 Mbps server.
  static ExperimentConfig planetLabDefaults(std::uint64_t seed = 1);

  // Same shape at a different node count (sessions trimmed proportionally
  // for quick CI-sized runs). Keeps the 20 kbps/user server sizing rule.
  [[nodiscard]] ExperimentConfig scaledTo(std::size_t users,
                                          std::size_t sessions) const;
};

}  // namespace st::exp

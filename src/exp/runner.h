// Wires a full experiment: catalog -> network -> system -> session driver,
// runs it to the horizon, and extracts the paper's metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "exp/config.h"
#include "obs/event_trace.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "trace/catalog.h"
#include "util/stats.h"

namespace st::exp {

enum class SystemKind { kSocialTube, kNetTube, kPaVod };

[[nodiscard]] const char* systemName(SystemKind kind);

struct ExperimentResult {
  std::string system;
  Mode mode = Mode::kSimulation;
  // Seed the run executed with; lets replication callers verify ordering.
  std::uint64_t seed = 0;
  // Why the run could not proceed: a malformed --faults spec, a rejected
  // --shards plan, an unreadable --snapshot-in file or an unwritable
  // --snapshot-out path. The message names the flag (and the snapshot
  // path). Empty on success; otherwise the run stopped there and no field
  // below is filled.
  std::string error;

  // Fig. 16: per-node peer fraction of remotely fetched chunks.
  SampleSet normalizedPeerBandwidth;
  // Fig. 17: per-watch startup delay (ms).
  SampleSet startupDelayMs;
  // Fig. 18: mean link count after the n-th video of a session (index n).
  std::vector<RunningStats> linksByVideosWatched;
  // §IV-C: redundant pairwise links (NetTube only; zero elsewhere).
  RunningStats redundantLinks;
  // §IV-A: size of the origin server's membership state, sampled
  // periodically over the run ((user, channel/video) registrations).
  RunningStats serverRegistrations;
  // Fairness of the seeding load: Gini coefficient of per-user bytes
  // uploaded (0 = everyone contributes equally).
  double uploadGini = 0.0;
  // Cross-shard posts that undercut the lookahead floor (`shard.
  // cross_below_floor`). Non-zero after a parallel sharded run means the
  // engine degraded to the serial merge mid-run; always 0 for unsharded
  // runs. A plain field, NOT a registry counter: the counter snapshot must
  // stay identical across shard/worker counts for the bitwise-equality
  // harness, and this value legitimately differs.
  std::uint64_t crossBelowFloor = 0;
  // CRC-32 of the system's serialized overlay/cache/search state at the
  // horizon. Two runs that end in bitwise-identical overlay state share
  // this fingerprint; the snapshot differential harness compares it between
  // a restored run and its uninterrupted twin.
  std::uint32_t overlayFingerprint = 0;

  // Every scalar counter/gauge registered during the run, snapshotted at
  // the horizon, sorted by name. CSV columns and report lines come from
  // here — registering a new counter anywhere in the stack is enough to
  // get it exported; no per-field plumbing.
  obs::Snapshot counters;
  // Wall-clock phase breakdown of runExperiment (trace_gen/setup/
  // event_loop/extract). Timing only — excluded from determinism checks.
  std::vector<obs::Phase> phases;

  // Typed views of the counters the paper's figures and tests read most.
  [[nodiscard]] std::uint64_t counter(std::string_view name) const {
    return counters.at(name);
  }
  [[nodiscard]] std::uint64_t watches() const { return counter("watches"); }
  [[nodiscard]] std::uint64_t startupTimeouts() const {
    return counter("startup_timeouts");
  }
  [[nodiscard]] std::uint64_t cacheHits() const {
    return counter("cache_hits");
  }
  [[nodiscard]] std::uint64_t prefetchHits() const {
    return counter("prefetch_hits");
  }
  [[nodiscard]] std::uint64_t prefetchIssued() const {
    return counter("prefetch_issued");
  }
  [[nodiscard]] std::uint64_t channelHits() const {
    return counter("channel_hits");
  }
  [[nodiscard]] std::uint64_t categoryHits() const {
    return counter("category_hits");
  }
  [[nodiscard]] std::uint64_t serverFallbacks() const {
    return counter("server_fallbacks");
  }
  [[nodiscard]] std::uint64_t probes() const { return counter("probes"); }
  [[nodiscard]] std::uint64_t repairs() const { return counter("repairs"); }
  [[nodiscard]] std::uint64_t bodyCompletions() const {
    return counter("body_completions");
  }
  [[nodiscard]] std::uint64_t rebuffers() const {
    return counter("rebuffers");
  }
  [[nodiscard]] std::uint64_t peerChunks() const {
    return counter("peer_chunks");
  }
  [[nodiscard]] std::uint64_t serverChunks() const {
    return counter("server_chunks");
  }
  [[nodiscard]] std::uint64_t serverBytes() const {
    return counter("server_bytes");
  }
  [[nodiscard]] std::uint64_t messagesSent() const {
    return counter("messages_sent");
  }
  [[nodiscard]] std::uint64_t messagesLost() const {
    return counter("messages_lost");
  }
  [[nodiscard]] std::uint64_t sessionsCompleted() const {
    return counter("sessions_completed");
  }
  [[nodiscard]] std::uint64_t eventsFired() const {
    return counter("events_fired");
  }
  [[nodiscard]] std::uint64_t releasesFired() const {
    return counter("releases_fired");
  }
  [[nodiscard]] std::uint64_t feedNotifications() const {
    return counter("feed_notifications");
  }
  [[nodiscard]] std::uint64_t feedWatches() const {
    return counter("feed_watches");
  }

  // Test/fixture helper: insert or overwrite one counter entry.
  void setCounter(std::string_view name, std::uint64_t value) {
    counters.set(name, value);
  }

  [[nodiscard]] double rebufferRate() const {
    const std::uint64_t bodies = bodyCompletions();
    return bodies == 0 ? 0.0
                       : static_cast<double>(rebuffers()) /
                             static_cast<double>(bodies);
  }
  [[nodiscard]] double prefetchHitRate() const {
    const std::uint64_t total = watches();
    return total == 0 ? 0.0
                      : static_cast<double>(prefetchHits()) /
                            static_cast<double>(total);
  }
  [[nodiscard]] double aggregatePeerFraction() const {
    const std::uint64_t total = peerChunks() + serverChunks();
    return total == 0 ? 0.0
                      : static_cast<double>(peerChunks()) /
                            static_cast<double>(total);
  }
};

// Runs one experiment. When `catalog` is null a trace is generated from
// config.trace (deterministic in the seed), so runs of different systems
// against the same config see the same workload. When `trace` is non-null
// protocol events are recorded into it (the caller owns flushing);
// otherwise config.obs.traceOut, if set, creates a run-local sink flushed
// to that path at the horizon. A run that cannot proceed returns at once
// with ExperimentResult::error set; it never ends the process.
ExperimentResult runExperiment(const ExperimentConfig& config,
                               SystemKind system,
                               const trace::Catalog* catalog = nullptr,
                               obs::EventTrace* trace = nullptr);

// Convenience: run all three systems against one shared catalog, in the
// stable order PA-VoD, SocialTube, NetTube. With `threads > 1` the three
// runs dispatch onto a worker pool; each run is fully independent (own
// simulator/metrics, shared const catalog), so the results are identical
// to the sequential path. config.obs.traceOut gets a ".<system>" suffix
// per run so parallel runs never clobber one file. Each result carries its
// own run's error, if any.
std::vector<ExperimentResult> runAllSystems(const ExperimentConfig& config,
                                            std::size_t threads = 1);

// Prints every failed run's error (ExperimentResult::error) on stderr,
// prefixed with its system; true if any run failed. The figure binaries
// exit 1 then instead of drawing a figure from empty results.
bool reportRunErrors(std::span<const ExperimentResult> results);

}  // namespace st::exp

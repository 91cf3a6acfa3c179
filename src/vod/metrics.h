// Evaluation metrics (§V): startup delay, normalized peer bandwidth, and
// overlay maintenance overhead, plus protocol counters used by tests and
// ablation benches.
//
// Scalar counters live in an obs::Registry owned by this class — the
// count*() helpers increment pre-resolved registry slots, and derived
// scalars (watches, chunk totals) are registered as gauges. Anything
// registered here flows into ExperimentResult / CSV / report snapshots
// automatically; read individual counters back via value("cache_hits") or
// the full registry().
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "obs/registry.h"
#include "snapshot/codec.h"
#include "util/stats.h"
#include "util/strong_id.h"

namespace st::vod {

enum class ChunkSource { kPeer, kServer };

class Metrics {
 public:
  explicit Metrics(std::size_t userCount, std::size_t videosPerSession);
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  // --- startup delay (Fig. 17) ----------------------------------------------
  void recordStartupDelay(double delayMs) { startupDelayMs_.add(delayMs); }
  void recordStartupTimeout() { startupTimeouts_->inc(); }
  [[nodiscard]] const SampleSet& startupDelayMs() const {
    return startupDelayMs_;
  }

  // --- chunk accounting (Fig. 16) --------------------------------------------
  void recordChunks(UserId user, ChunkSource source, std::uint64_t chunks);
  [[nodiscard]] std::uint64_t peerChunks(UserId user) const {
    return peerChunks_[user.index()];
  }
  [[nodiscard]] std::uint64_t serverChunks(UserId user) const {
    return serverChunks_[user.index()];
  }
  [[nodiscard]] std::uint64_t totalPeerChunks() const;
  [[nodiscard]] std::uint64_t totalServerChunks() const;
  // Per-node normalized peer bandwidth = peer / (peer + server); nodes with
  // no remote chunks at all are skipped.
  [[nodiscard]] SampleSet normalizedPeerBandwidth() const;

  // --- maintenance overhead (Fig. 18) -----------------------------------------
  // Called after a user finishes their n-th video of the session (1-based)
  // with the user's current link count.
  void recordLinks(std::size_t videosWatched, std::size_t links);
  [[nodiscard]] const std::vector<RunningStats>& linksByVideosWatched() const {
    return linksByVideosWatched_;
  }

  // --- playback continuity -----------------------------------------------------
  // A body download that finishes later than real-time playback would have
  // consumed it means the viewer stalled at least once.
  void countBodyCompletion(bool onTime) {
    bodyCompletions_->inc();
    if (!onTime) rebuffers_->inc();
  }
  [[nodiscard]] double rebufferRate() const {
    const std::uint64_t bodies = bodyCompletions_->value();
    return bodies == 0 ? 0.0
                       : static_cast<double>(rebuffers_->value()) /
                             static_cast<double>(bodies);
  }

  // --- playback SLO accounting (overload control) ------------------------------
  // Time-weighted continuity: every completed body contributes its runtime
  // as playback time, and any excess of download time over runtime as stall
  // time. rebufferRatio = stall / (stall + playback) is the quantity the
  // --overload slo knob targets. Plain members rather than registry slots so
  // overload-off snapshots keep their exact column set; the runner exports
  // slo.* gauges only when overload control is active.
  void recordPlayback(double seconds) { playbackSeconds_ += seconds; }
  void recordStall(double seconds) {
    ++stallCount_;
    stallSeconds_ += seconds;
  }
  [[nodiscard]] std::uint64_t stallCount() const { return stallCount_; }
  [[nodiscard]] double stallSeconds() const { return stallSeconds_; }
  [[nodiscard]] double rebufferRatio() const {
    const double total = stallSeconds_ + playbackSeconds_;
    return total <= 0.0 ? 0.0 : stallSeconds_ / total;
  }

  // Prefetches suppressed by backpressure (credit exhausted or the user's
  // link already contended). Same plain-member rationale as the SLO stats.
  void countPrefetchThrottled() { ++prefetchThrottled_; }
  [[nodiscard]] std::uint64_t prefetchThrottled() const {
    return prefetchThrottled_;
  }

  // --- NetTube redundancy (§IV-C) ----------------------------------------------
  void recordRedundantLinks(std::size_t count) {
    redundantLinks_.add(static_cast<double>(count));
  }
  [[nodiscard]] const RunningStats& redundantLinks() const {
    return redundantLinks_;
  }

  // --- protocol counters --------------------------------------------------------
  void countCacheHit() { cacheHits_->inc(); }
  void countPrefetchHit() { prefetchHits_->inc(); }
  void countPrefetchIssued() { prefetchIssued_->inc(); }
  void countChannelHit() { channelHits_->inc(); }
  void countCategoryHit() { categoryHits_->inc(); }
  void countServerFallback() { serverFallbacks_->inc(); }
  void countProbe() { probes_->inc(); }
  void countRepair() { repairs_->inc(); }
  // Graceful-degradation tallies (fault hardening): overlay search attempts
  // replayed after a phase timeout, and transfers re-sourced to a surviving
  // provider (or the server) after their source crashed mid-chunk.
  void countSearchRetry() { searchRetries_->inc(); }
  void countTransferResourced() { transferResourced_->inc(); }

  // Total video watches that began playback (delays + timeouts). Also
  // exported as the "watches" gauge — the registry and this accessor share
  // one derivation, so they can never drift apart.
  [[nodiscard]] std::uint64_t watches() const {
    return startupDelayMs_.count() + startupTimeouts_->value();
  }

  // --- observability -------------------------------------------------------------
  // Generic access to any registered counter/gauge, e.g.
  // value("server_fallbacks"). This replaces the old per-counter getters.
  [[nodiscard]] std::uint64_t value(std::string_view name) const {
    return registry_.value(name);
  }
  [[nodiscard]] obs::Registry& registry() { return registry_; }
  [[nodiscard]] const obs::Registry& registry() const { return registry_; }

  // Checkpoint/restore of every accumulated statistic plus all registry
  // *counters* by name (gauges re-derive from restored component state).
  void saveState(snapshot::Writer& w) const;
  bool loadState(snapshot::Reader& r);

 private:
  obs::Registry registry_;
  SampleSet startupDelayMs_;
  std::vector<std::uint64_t> peerChunks_;
  std::vector<std::uint64_t> serverChunks_;
  std::vector<RunningStats> linksByVideosWatched_;
  RunningStats redundantLinks_;
  std::uint64_t stallCount_ = 0;
  double stallSeconds_ = 0.0;
  double playbackSeconds_ = 0.0;
  std::uint64_t prefetchThrottled_ = 0;
  // Registry-owned slots, cached for branch-free increments.
  obs::Counter* startupTimeouts_;
  obs::Counter* cacheHits_;
  obs::Counter* prefetchHits_;
  obs::Counter* prefetchIssued_;
  obs::Counter* channelHits_;
  obs::Counter* categoryHits_;
  obs::Counter* serverFallbacks_;
  obs::Counter* probes_;
  obs::Counter* repairs_;
  obs::Counter* bodyCompletions_;
  obs::Counter* rebuffers_;
  obs::Counter* searchRetries_;
  obs::Counter* transferResourced_;
};

}  // namespace st::vod

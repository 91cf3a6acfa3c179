#include "vod/metrics.h"

#include <cassert>
#include <numeric>

namespace st::vod {

Metrics::Metrics(std::size_t userCount, std::size_t videosPerSession)
    : peerChunks_(userCount, 0),
      serverChunks_(userCount, 0),
      linksByVideosWatched_(videosPerSession + 1),
      startupTimeouts_(&registry_.counter("startup_timeouts")),
      cacheHits_(&registry_.counter("cache_hits")),
      prefetchHits_(&registry_.counter("prefetch_hits")),
      prefetchIssued_(&registry_.counter("prefetch_issued")),
      channelHits_(&registry_.counter("channel_hits")),
      categoryHits_(&registry_.counter("category_hits")),
      serverFallbacks_(&registry_.counter("server_fallbacks")),
      probes_(&registry_.counter("probes")),
      repairs_(&registry_.counter("repairs")),
      bodyCompletions_(&registry_.counter("body_completions")),
      rebuffers_(&registry_.counter("rebuffers")),
      searchRetries_(&registry_.counter("search.retries")),
      transferResourced_(&registry_.counter("transfer.resourced")) {
  // Derived scalars: one derivation, shared by watches() and the snapshot.
  registry_.addGauge("watches", [this] { return watches(); });
  registry_.addGauge("peer_chunks", [this] { return totalPeerChunks(); });
  registry_.addGauge("server_chunks", [this] { return totalServerChunks(); });
}

void Metrics::recordChunks(UserId user, ChunkSource source,
                           std::uint64_t chunks) {
  assert(user.index() < peerChunks_.size());
  if (source == ChunkSource::kPeer) {
    peerChunks_[user.index()] += chunks;
  } else {
    serverChunks_[user.index()] += chunks;
  }
}

std::uint64_t Metrics::totalPeerChunks() const {
  return std::accumulate(peerChunks_.begin(), peerChunks_.end(),
                         std::uint64_t{0});
}

std::uint64_t Metrics::totalServerChunks() const {
  return std::accumulate(serverChunks_.begin(), serverChunks_.end(),
                         std::uint64_t{0});
}

SampleSet Metrics::normalizedPeerBandwidth() const {
  SampleSet samples;
  for (std::size_t i = 0; i < peerChunks_.size(); ++i) {
    const std::uint64_t total = peerChunks_[i] + serverChunks_[i];
    if (total == 0) continue;
    samples.add(static_cast<double>(peerChunks_[i]) /
                static_cast<double>(total));
  }
  return samples;
}

namespace {

void saveSampleSet(snapshot::Writer& w, const SampleSet& samples) {
  w.boolean(samples.sortPending());
  w.u64(samples.count());
  for (const double x : samples.samples()) w.f64(x);
}

bool loadSampleSet(snapshot::Reader& r, SampleSet* out) {
  const bool sortPending = r.boolean();
  std::vector<double> samples(r.count(8));
  for (double& x : samples) x = r.f64();
  if (!r.ok()) return false;
  out->restoreSamples(std::move(samples), sortPending);
  return true;
}

}  // namespace

void Metrics::saveState(snapshot::Writer& w) const {
  w.section(0x4d545243);  // "CRTM"
  saveSampleSet(w, startupDelayMs_);
  w.u64(peerChunks_.size());
  for (const std::uint64_t chunks : peerChunks_) w.u64(chunks);
  for (const std::uint64_t chunks : serverChunks_) w.u64(chunks);
  w.u64(linksByVideosWatched_.size());
  for (const RunningStats& stats : linksByVideosWatched_) {
    snapshot::saveRunningStats(w, stats);
  }
  snapshot::saveRunningStats(w, redundantLinks_);
  w.u64(stallCount_);
  w.f64(stallSeconds_);
  w.f64(playbackSeconds_);
  w.u64(prefetchThrottled_);
  std::uint64_t counters = 0;
  registry_.visitCounters(
      [&counters](std::string_view, std::uint64_t) { ++counters; });
  w.u64(counters);
  registry_.visitCounters([&w](std::string_view name, std::uint64_t value) {
    w.str(name);
    w.u64(value);
  });
}

bool Metrics::loadState(snapshot::Reader& r) {
  r.section(0x4d545243, "metrics");
  if (!loadSampleSet(r, &startupDelayMs_)) return false;
  const std::size_t users = r.count(8);
  if (!r.ok() || users != peerChunks_.size()) {
    r.fail("metrics user count mismatch");
    return false;
  }
  for (std::uint64_t& chunks : peerChunks_) chunks = r.u64();
  for (std::uint64_t& chunks : serverChunks_) chunks = r.u64();
  const std::size_t buckets = r.count(8);
  if (!r.ok() || buckets != linksByVideosWatched_.size()) {
    r.fail("metrics link-bucket count mismatch");
    return false;
  }
  for (RunningStats& stats : linksByVideosWatched_) {
    stats = snapshot::loadRunningStats(r);
  }
  redundantLinks_ = snapshot::loadRunningStats(r);
  stallCount_ = r.u64();
  stallSeconds_ = r.f64();
  playbackSeconds_ = r.f64();
  prefetchThrottled_ = r.u64();
  const std::size_t counters = r.count(2);
  for (std::size_t i = 0; i < counters; ++i) {
    const std::string name = r.str();
    const std::uint64_t value = r.u64();
    if (!r.ok()) return false;
    if (!registry_.restoreCounter(name, value)) {
      r.fail("metrics counter \"" + name + "\" unknown in this run");
      return false;
    }
  }
  return r.ok();
}

void Metrics::recordLinks(std::size_t videosWatched, std::size_t links) {
  if (videosWatched >= linksByVideosWatched_.size()) {
    videosWatched = linksByVideosWatched_.size() - 1;
  }
  linksByVideosWatched_[videosWatched].add(static_cast<double>(links));
}

}  // namespace st::vod

// Per-node video cache.
//
// NetTube and SocialTube nodes cache every video watched and keep the cache
// across sessions (§IV-A, §V). Separately, the prefetcher stores only the
// *first chunk* of a bounded number of videos; a prefetched chunk graduates
// to a full video after the body downloads.
#pragma once

#include <cstddef>
#include <deque>
#include <unordered_set>
#include <vector>

#include "snapshot/codec.h"
#include "util/rng.h"
#include "util/strong_id.h"

namespace st::vod {

class VideoCache {
 public:
  // maxVideos = 0 means unbounded (the paper's setting: short videos make
  // full retention cheap). Bounded caches evict FIFO.
  explicit VideoCache(std::size_t maxVideos = 0,
                      std::size_t prefetchSlots = 8);

  // --- full videos -----------------------------------------------------------
  void insert(VideoId video);
  [[nodiscard]] bool contains(VideoId video) const {
    return videos_.count(video) > 0;
  }
  [[nodiscard]] std::size_t size() const { return videos_.size(); }
  [[nodiscard]] const std::vector<VideoId>& videoList() const {
    return videoOrder_;
  }
  // Uniformly random cached video; invalid id when empty.
  [[nodiscard]] VideoId randomVideo(Rng& rng) const;

  // --- prefetched first chunks -------------------------------------------------
  void insertFirstChunk(VideoId video);
  [[nodiscard]] bool hasFirstChunk(VideoId video) const {
    return prefetched_.count(video) > 0;
  }
  // Drops the prefetched chunk entry (it either graduated to a full video or
  // was evicted logically).
  void removeFirstChunk(VideoId video);
  [[nodiscard]] std::size_t prefetchedCount() const {
    return prefetched_.size();
  }

  void clear();

  // Checkpoint/restore: insertion order is behavioral (FIFO eviction and
  // randomVideo() draws by position), so both ordered sequences persist
  // verbatim and the hash sets are rebuilt from them. Every id must be
  // below `videoCount` (the catalog's).
  void saveState(snapshot::Writer& w) const {
    w.u64(videoOrder_.size());
    for (const VideoId v : videoOrder_) w.u32(v.value());
    w.u64(prefetchOrder_.size());
    for (const VideoId v : prefetchOrder_) w.u32(v.value());
  }
  bool loadState(snapshot::Reader& r, std::size_t videoCount) {
    clear();
    videoOrder_.resize(r.count(4));
    for (VideoId& v : videoOrder_) {
      v = VideoId{r.id(videoCount, "cached video")};
    }
    const std::size_t prefetched = r.count(4);
    for (std::size_t i = 0; i < prefetched; ++i) {
      prefetchOrder_.push_back(VideoId{r.id(videoCount, "prefetched chunk")});
    }
    if (!r.ok()) return false;
    videos_.insert(videoOrder_.begin(), videoOrder_.end());
    prefetched_.insert(prefetchOrder_.begin(), prefetchOrder_.end());
    return true;
  }

 private:
  void evictIfNeeded();

  std::size_t maxVideos_;
  std::size_t prefetchSlots_;
  std::unordered_set<VideoId> videos_;
  std::vector<VideoId> videoOrder_;  // insertion order; FIFO eviction
  std::unordered_set<VideoId> prefetched_;
  std::deque<VideoId> prefetchOrder_;
};

}  // namespace st::vod

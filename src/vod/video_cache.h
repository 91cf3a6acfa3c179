// Per-node video cache.
//
// NetTube and SocialTube nodes cache every video watched and keep the cache
// across sessions (§IV-A, §V). Separately, the prefetcher stores only the
// *first chunk* of a bounded number of videos; a prefetched chunk graduates
// to a full video after the body downloads.
//
// Flat state: every flood hop and prefetch pick asks some node's cache
// whether it holds a video, so membership is a binary search of a sorted
// vector, and the prefetched chunks (at most `prefetchSlots`, 8 by default)
// are a scan of their FIFO. No per-node hash table or deque.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "snapshot/codec.h"
#include "util/rng.h"
#include "util/strong_id.h"

namespace st::vod {

class VideoCache {
 public:
  // maxVideos = 0 means unbounded (the paper's setting: short videos make
  // full retention cheap). Bounded caches evict FIFO. prefetchSlots = 0
  // leaves the chunk FIFO unbounded (no configuration does; hasFirstChunk
  // then scans the whole FIFO).
  explicit VideoCache(std::size_t maxVideos = 0,
                      std::size_t prefetchSlots = 8);

  // --- full videos -----------------------------------------------------------
  void insert(VideoId video);
  [[nodiscard]] bool contains(VideoId video) const {
    return std::binary_search(videos_.begin(), videos_.end(), video);
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
    return std::find(prefetchOrder_.begin(), prefetchOrder_.end(), video) !=
           prefetchOrder_.end();
  }
  // Drops the prefetched chunk entry (it either graduated to a full video or
  // was evicted logically).
  void removeFirstChunk(VideoId video);
  [[nodiscard]] std::size_t prefetchedCount() const {
    return prefetchOrder_.size();
  }

  void clear();

  // Checkpoint/restore: insertion order is behavioral (FIFO eviction and
  // randomVideo() draws by position), so both ordered sequences persist
  // verbatim and the sorted membership vector is rebuilt from them. Every
  // id must be below `videoCount` (the catalog's), and neither sequence may
  // repeat an id (a valid save never does).
  void saveState(snapshot::Writer& w) const;
  bool loadState(snapshot::Reader& r, std::size_t videoCount);

 private:
  void evictIfNeeded();

  std::size_t maxVideos_;
  std::size_t prefetchSlots_;
  std::vector<VideoId> videos_;      // sorted; membership
  std::vector<VideoId> videoOrder_;  // insertion order; FIFO eviction
  std::vector<VideoId> prefetchOrder_;  // insertion order; FIFO eviction
};

}  // namespace st::vod

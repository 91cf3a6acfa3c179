#include "vod/video_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "harness.h"

namespace st::vod {
namespace {

constexpr VideoId kV1{1};
constexpr VideoId kV2{2};
constexpr VideoId kV3{3};
constexpr VideoId kV4{4};

TEST(VideoCache, InsertAndContains) {
  VideoCache cache;
  EXPECT_FALSE(cache.contains(kV1));
  cache.insert(kV1);
  EXPECT_TRUE(cache.contains(kV1));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(VideoCache, DuplicateInsertIsIdempotent) {
  VideoCache cache;
  cache.insert(kV1);
  cache.insert(kV1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.videoList().size(), 1u);
}

TEST(VideoCache, UnboundedByDefault) {
  VideoCache cache;
  for (std::uint32_t i = 0; i < 1000; ++i) cache.insert(VideoId{i});
  EXPECT_EQ(cache.size(), 1000u);
}

TEST(VideoCache, FifoEvictionWhenBounded) {
  VideoCache cache(/*maxVideos=*/2);
  cache.insert(kV1);
  cache.insert(kV2);
  cache.insert(kV3);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.contains(kV1));  // oldest evicted
  EXPECT_TRUE(cache.contains(kV2));
  EXPECT_TRUE(cache.contains(kV3));
}

TEST(VideoCache, FirstChunkTracking) {
  VideoCache cache;
  EXPECT_FALSE(cache.hasFirstChunk(kV1));
  cache.insertFirstChunk(kV1);
  EXPECT_TRUE(cache.hasFirstChunk(kV1));
  EXPECT_FALSE(cache.contains(kV1));  // only the first chunk, not the video
  EXPECT_EQ(cache.prefetchedCount(), 1u);
}

TEST(VideoCache, FullVideoSubsumesFirstChunk) {
  VideoCache cache;
  cache.insertFirstChunk(kV1);
  cache.insert(kV1);
  EXPECT_TRUE(cache.contains(kV1));
  EXPECT_FALSE(cache.hasFirstChunk(kV1));
  EXPECT_EQ(cache.prefetchedCount(), 0u);
}

TEST(VideoCache, FirstChunkOfCachedVideoIsIgnored) {
  VideoCache cache;
  cache.insert(kV1);
  cache.insertFirstChunk(kV1);
  EXPECT_FALSE(cache.hasFirstChunk(kV1));
}

TEST(VideoCache, PrefetchSlotsEvictFifo) {
  VideoCache cache(0, /*prefetchSlots=*/2);
  cache.insertFirstChunk(kV1);
  cache.insertFirstChunk(kV2);
  cache.insertFirstChunk(kV3);
  EXPECT_EQ(cache.prefetchedCount(), 2u);
  EXPECT_FALSE(cache.hasFirstChunk(kV1));
  EXPECT_TRUE(cache.hasFirstChunk(kV2));
  EXPECT_TRUE(cache.hasFirstChunk(kV3));
}

TEST(VideoCache, RemoveFirstChunk) {
  VideoCache cache;
  cache.insertFirstChunk(kV1);
  cache.insertFirstChunk(kV2);
  cache.removeFirstChunk(kV1);
  EXPECT_FALSE(cache.hasFirstChunk(kV1));
  EXPECT_TRUE(cache.hasFirstChunk(kV2));
  cache.removeFirstChunk(kV4);  // absent: no-op
  EXPECT_EQ(cache.prefetchedCount(), 1u);
}

TEST(VideoCache, RandomVideoFromCache) {
  VideoCache cache;
  Rng rng(1);
  EXPECT_FALSE(cache.randomVideo(rng).valid());
  cache.insert(kV1);
  cache.insert(kV2);
  cache.insert(kV3);
  std::set<VideoId> seen;
  for (int i = 0; i < 100; ++i) {
    const VideoId v = cache.randomVideo(rng);
    ASSERT_TRUE(cache.contains(v));
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);  // all three eventually sampled
}

TEST(VideoCache, ClearResetsEverything) {
  VideoCache cache;
  cache.insert(kV1);
  cache.insertFirstChunk(kV2);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.prefetchedCount(), 0u);
  EXPECT_FALSE(cache.contains(kV1));
  EXPECT_FALSE(cache.hasFirstChunk(kV2));
}

// --- the flat sets against a reference model ----------------------------------

// The container layout the flat vectors replaced: ordered sets for
// membership beside the two insertion orders, with the same operations.
class CacheModel {
 public:
  CacheModel(std::size_t maxVideos, std::size_t prefetchSlots)
      : maxVideos_(maxVideos), prefetchSlots_(prefetchSlots) {}

  void insert(VideoId video) {
    if (!videos_.insert(video).second) return;
    videoOrder_.push_back(video);
    removeFirstChunk(video);
    while (maxVideos_ != 0 && videos_.size() > maxVideos_) {
      videos_.erase(videoOrder_.front());
      videoOrder_.erase(videoOrder_.begin());
    }
  }
  void insertFirstChunk(VideoId video) {
    if (videos_.count(video) > 0 || !prefetched_.insert(video).second) return;
    prefetchOrder_.push_back(video);
    while (prefetchSlots_ != 0 && prefetched_.size() > prefetchSlots_) {
      prefetched_.erase(prefetchOrder_.front());
      prefetchOrder_.erase(prefetchOrder_.begin());
    }
  }
  void removeFirstChunk(VideoId video) {
    if (prefetched_.erase(video) == 0) return;
    prefetchOrder_.erase(
        std::find(prefetchOrder_.begin(), prefetchOrder_.end(), video));
  }
  void clear() {
    videos_.clear();
    videoOrder_.clear();
    prefetched_.clear();
    prefetchOrder_.clear();
  }
  [[nodiscard]] VideoId randomVideo(Rng& rng) const {
    if (videoOrder_.empty()) return VideoId::invalid();
    return videoOrder_[rng.uniformInt(videoOrder_.size())];
  }

  [[nodiscard]] bool contains(VideoId video) const {
    return videos_.count(video) > 0;
  }
  [[nodiscard]] bool hasFirstChunk(VideoId video) const {
    return prefetched_.count(video) > 0;
  }
  [[nodiscard]] std::size_t size() const { return videos_.size(); }
  [[nodiscard]] std::size_t prefetchedCount() const {
    return prefetched_.size();
  }
  [[nodiscard]] const std::vector<VideoId>& videoList() const {
    return videoOrder_;
  }
  // VideoCache::saveState's layout.
  [[nodiscard]] std::vector<std::uint8_t> bytes() const {
    snapshot::Writer w;
    w.u64(videoOrder_.size());
    for (const VideoId v : videoOrder_) w.u32(v.value());
    w.u64(prefetchOrder_.size());
    for (const VideoId v : prefetchOrder_) w.u32(v.value());
    return w.body();
  }

 private:
  std::size_t maxVideos_;
  std::size_t prefetchSlots_;
  std::set<VideoId> videos_;
  std::vector<VideoId> videoOrder_;
  std::set<VideoId> prefetched_;
  std::vector<VideoId> prefetchOrder_;
};

constexpr std::uint32_t kModelIds = 24;

std::vector<std::uint8_t> savedBytes(const VideoCache& cache) {
  snapshot::Writer w;
  cache.saveState(w);
  return w.body();
}

void expectSameAsModel(const VideoCache& cache, const CacheModel& model) {
  for (std::uint32_t id = 0; id < kModelIds; ++id) {
    ASSERT_EQ(cache.contains(VideoId{id}), model.contains(VideoId{id})) << id;
    ASSERT_EQ(cache.hasFirstChunk(VideoId{id}),
              model.hasFirstChunk(VideoId{id}))
        << id;
  }
  ASSERT_EQ(cache.size(), model.size());
  ASSERT_EQ(cache.prefetchedCount(), model.prefetchedCount());
  ASSERT_EQ(cache.videoList(), model.videoList());
  ASSERT_EQ(savedBytes(cache), model.bytes());
}

TEST(VideoCacheModel, RandomOperationsMatchTheSetModel) {
  for (std::size_t maxVideos = 0; maxVideos <= 5; ++maxVideos) {
    for (std::size_t slots = 1; slots <= 8; ++slots) {
      SCOPED_TRACE("maxVideos " + std::to_string(maxVideos) + ", slots " +
                   std::to_string(slots));
      VideoCache cache(maxVideos, slots);
      CacheModel model(maxVideos, slots);
      Rng ops(1000 * maxVideos + slots);
      Rng cacheDraws(7);
      Rng modelDraws(7);
      for (int step = 1; step <= 400; ++step) {
        const VideoId video{
            static_cast<std::uint32_t>(ops.uniformInt(kModelIds))};
        const double roll = ops.uniform();
        if (roll < 0.35) {
          cache.insert(video);
          model.insert(video);
        } else if (roll < 0.65) {
          cache.insertFirstChunk(video);
          model.insertFirstChunk(video);
        } else if (roll < 0.8) {
          cache.removeFirstChunk(video);
          model.removeFirstChunk(video);
        } else if (roll < 0.82) {
          cache.clear();
          model.clear();
        } else {
          ASSERT_EQ(cache.randomVideo(cacheDraws),
                    model.randomVideo(modelDraws));
        }
        ASSERT_NO_FATAL_FAILURE(expectSameAsModel(cache, model))
            << "step " << step;
        ASSERT_EQ(cache.randomVideo(cacheDraws), model.randomVideo(modelDraws))
            << "step " << step;
        if (step % 50 == 0) {
          snapshot::Writer w;
          cache.saveState(w);
          snapshot::Reader r = st::testing::readerOf(w);
          VideoCache loaded(maxVideos, slots);
          ASSERT_TRUE(loaded.loadState(r, kModelIds)) << r.error();
          cache = loaded;
          ASSERT_NO_FATAL_FAILURE(expectSameAsModel(cache, model))
              << "after the load at step " << step;
        }
      }
    }
  }
}

// A valid save never repeats an id in either sequence; the flat sets rely
// on it, so the loader refuses one and leaves the cache empty.
TEST(VideoCache, LoadRejectsDuplicateCachedVideo) {
  snapshot::Writer w;
  w.u64(3);
  for (const std::uint32_t v : {1u, 2u, 1u}) w.u32(v);
  w.u64(0);
  snapshot::Reader r = st::testing::readerOf(w);
  VideoCache cache;
  EXPECT_FALSE(cache.loadState(r, 10));
  EXPECT_EQ(r.error(), "duplicate cached video");
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_TRUE(cache.videoList().empty());
}

TEST(VideoCache, LoadRejectsDuplicatePrefetchedChunk) {
  snapshot::Writer w;
  w.u64(1);
  w.u32(4);
  w.u64(2);
  w.u32(3);
  w.u32(3);
  snapshot::Reader r = st::testing::readerOf(w);
  VideoCache cache;
  EXPECT_FALSE(cache.loadState(r, 10));
  EXPECT_EQ(r.error(), "duplicate prefetched chunk");
  EXPECT_EQ(cache.prefetchedCount(), 0u);
  EXPECT_FALSE(cache.contains(VideoId{4}));
}

}  // namespace
}  // namespace st::vod

#include "vod/video_cache.h"

#include <algorithm>

namespace st::vod {

VideoCache::VideoCache(std::size_t maxVideos, std::size_t prefetchSlots)
    : maxVideos_(maxVideos), prefetchSlots_(prefetchSlots) {}

void VideoCache::insert(VideoId video) {
  const auto at = std::lower_bound(videos_.begin(), videos_.end(), video);
  if (at != videos_.end() && *at == video) return;
  videos_.insert(at, video);
  videoOrder_.push_back(video);
  removeFirstChunk(video);  // full copy subsumes the prefetched chunk
  evictIfNeeded();
}

void VideoCache::evictIfNeeded() {
  if (maxVideos_ == 0) return;
  while (videos_.size() > maxVideos_) {
    const VideoId victim = videoOrder_.front();
    videoOrder_.erase(videoOrder_.begin());
    videos_.erase(std::lower_bound(videos_.begin(), videos_.end(), victim));
  }
}

VideoId VideoCache::randomVideo(Rng& rng) const {
  if (videoOrder_.empty()) return VideoId::invalid();
  return videoOrder_[rng.uniformInt(videoOrder_.size())];
}

void VideoCache::insertFirstChunk(VideoId video) {
  if (contains(video)) return;  // already have the whole video
  if (hasFirstChunk(video)) return;
  prefetchOrder_.push_back(video);
  while (prefetchSlots_ != 0 && prefetchOrder_.size() > prefetchSlots_) {
    prefetchOrder_.erase(prefetchOrder_.begin());
  }
}

void VideoCache::removeFirstChunk(VideoId video) {
  const auto it =
      std::find(prefetchOrder_.begin(), prefetchOrder_.end(), video);
  if (it != prefetchOrder_.end()) prefetchOrder_.erase(it);
}

void VideoCache::clear() {
  videos_.clear();
  videoOrder_.clear();
  prefetchOrder_.clear();
}

void VideoCache::saveState(snapshot::Writer& w) const {
  w.u64(videoOrder_.size());
  for (const VideoId v : videoOrder_) w.u32(v.value());
  w.u64(prefetchOrder_.size());
  for (const VideoId v : prefetchOrder_) w.u32(v.value());
}

bool VideoCache::loadState(snapshot::Reader& r, std::size_t videoCount) {
  clear();
  videoOrder_.resize(r.count(4));
  for (VideoId& v : videoOrder_) {
    v = VideoId{r.id(videoCount, "cached video")};
  }
  prefetchOrder_.resize(r.count(4));
  for (VideoId& v : prefetchOrder_) {
    v = VideoId{r.id(videoCount, "prefetched chunk")};
  }
  videos_ = videoOrder_;
  std::sort(videos_.begin(), videos_.end());
  std::vector<VideoId> chunks = prefetchOrder_;
  std::sort(chunks.begin(), chunks.end());
  if (std::adjacent_find(videos_.begin(), videos_.end()) != videos_.end()) {
    r.fail("duplicate cached video");
  }
  if (std::adjacent_find(chunks.begin(), chunks.end()) != chunks.end()) {
    r.fail("duplicate prefetched chunk");
  }
  if (r.ok()) return true;
  clear();
  return false;
}

}  // namespace st::vod

// Video selection behaviour (§V): when choosing the next video a user picks
// from the same channel with probability 0.75, the same category with 0.15,
// and a different category with 0.10; within a channel, videos are chosen
// by Zipf-weighted popularity (§IV-B).
//
// Each user has an independent RNG stream, so a user's k-th selection is
// identical across systems — the comparison in Figs. 16-18 is paired.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "snapshot/codec.h"
#include "trace/catalog.h"
#include "util/distributions.h"
#include "util/rng.h"
#include "vod/config.h"

namespace st::vod {

class SystemContext;

class VideoSelector {
 public:
  VideoSelector(const trace::Catalog& catalog, const VodConfig& config,
                std::uint64_t seed);

  // Optional: consult release state (unreleased videos are never selected)
  // and enable feed pushes. Call before the run starts.
  void attachContext(const SystemContext& ctx) { ctx_ = &ctx; }

  // First video of a session: a subscribed channel weighted by its view
  // frequency (fallback: any channel in an interest category), then a video
  // within it by popularity rank. Pending feed entries take priority.
  [[nodiscard]] VideoId firstVideo(UserId user);

  // Next video after `current`, per the 75/15/10 rule. Pending feed entries
  // take priority.
  [[nodiscard]] VideoId nextVideo(UserId user, VideoId current);

  // A new upload appeared in a channel the user subscribes to; the user
  // will watch it at the next opportunity (YouTube homepage feed).
  void pushFeed(UserId user, VideoId video) {
    feed_[user.index()].push_back(video);
  }
  [[nodiscard]] std::size_t pendingFeed(UserId user) const {
    return feed_[user.index()].size();
  }
  // Feed entries actually watched so far.
  [[nodiscard]] std::uint64_t feedWatches() const { return feedWatches_; }

  // Serializes the per-user RNG streams, watched lists (kept ascending, so
  // they are written as they are; a restored list must be strictly
  // ascending), and feed queues (verbatim order — it is consumed
  // front-to-back). Samplers and Zipf tables are pure functions of the
  // catalog and are rebuilt by construction.
  void saveState(snapshot::Writer& w) const;
  bool loadState(snapshot::Reader& r);

 private:
  // Zipf-weighted pick inside a channel, avoiding videos `user` has already
  // watched and videos not yet released (bounded resampling; a user may
  // still rewatch when a channel is mostly exhausted). Marks the result as
  // watched.
  [[nodiscard]] VideoId pickFor(UserId user, ChannelId channel);
  // Pops the first watchable feed entry, or invalid if none.
  [[nodiscard]] VideoId popFeed(UserId user);
  [[nodiscard]] bool isReleased(VideoId video) const;
  [[nodiscard]] VideoId videoWithinChannel(Rng& rng, ChannelId channel);
  [[nodiscard]] ChannelId channelWithinCategory(Rng& rng, CategoryId category);
  [[nodiscard]] const ZipfDistribution& zipfFor(std::size_t size);

  const trace::Catalog& catalog_;
  const VodConfig& config_;
  const SystemContext* ctx_ = nullptr;
  std::vector<Rng> userRngs_;
  // Videos each user has already selected (rewatch avoidance), one sorted
  // vector per user: membership is a binary search, and an unused entry
  // costs no allocation.
  std::vector<std::vector<VideoId>> watched_;
  // Per-user queue of new uploads awaiting a watch, consumed from the front
  // (a plain vector: an empty std::deque still allocates its first block).
  std::vector<std::vector<VideoId>> feed_;
  std::uint64_t feedWatches_ = 0;
  // Per-category channel samplers weighted by view frequency.
  std::vector<WeightedSampler> categorySamplers_;
  WeightedSampler globalChannelSampler_;
  std::map<std::size_t, ZipfDistribution> zipfBySize_;
};

}  // namespace st::vod

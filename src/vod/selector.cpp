#include "vod/selector.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "vod/context.h"

namespace st::vod {

namespace {

bool watchedBefore(const std::vector<VideoId>& watched, VideoId video) {
  return std::binary_search(watched.begin(), watched.end(), video);
}

void markWatched(std::vector<VideoId>& watched, VideoId video) {
  const auto at = std::lower_bound(watched.begin(), watched.end(), video);
  if (at == watched.end() || *at != video) watched.insert(at, video);
}

}  // namespace

VideoSelector::VideoSelector(const trace::Catalog& catalog,
                             const VodConfig& config, std::uint64_t seed)
    : catalog_(catalog),
      config_(config),
      watched_(catalog.userCount()),
      feed_(catalog.userCount()) {
  userRngs_.reserve(catalog.userCount());
  for (std::size_t i = 0; i < catalog.userCount(); ++i) {
    userRngs_.push_back(
        Rng::forPurpose(seed ^ (0xabcd0000ull + i), "selector"));
  }

  std::vector<double> globalWeights;
  globalWeights.reserve(catalog.channelCount());
  for (const trace::Channel& channel : catalog.channels()) {
    globalWeights.push_back(channel.viewFrequency);
  }
  globalChannelSampler_ = WeightedSampler{std::span<const double>(globalWeights)};

  categorySamplers_.reserve(catalog.categoryCount());
  for (const trace::Category& category : catalog.categories()) {
    std::vector<double> weights;
    weights.reserve(category.channels.size());
    for (const ChannelId channelId : category.channels) {
      weights.push_back(catalog.channel(channelId).viewFrequency);
    }
    categorySamplers_.emplace_back(std::span<const double>(weights));
  }
}

const ZipfDistribution& VideoSelector::zipfFor(std::size_t size) {
  auto it = zipfBySize_.find(size);
  if (it == zipfBySize_.end()) {
    it = zipfBySize_
             .emplace(size, ZipfDistribution(size, /*exponent=*/1.0))
             .first;
  }
  return it->second;
}

bool VideoSelector::isReleased(VideoId video) const {
  return ctx_ == nullptr || ctx_->isReleased(video);
}

VideoId VideoSelector::popFeed(UserId user) {
  auto& queue = feed_[user.index()];
  auto& seen = watched_[user.index()];
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const VideoId video = queue[i];
    if (!isReleased(video) || watchedBefore(seen, video)) continue;
    queue.erase(queue.begin(),
                queue.begin() + static_cast<std::ptrdiff_t>(i + 1));
    markWatched(seen, video);
    ++feedWatches_;
    return video;
  }
  queue.clear();
  return VideoId::invalid();
}

VideoId VideoSelector::pickFor(UserId user, ChannelId channelId) {
  Rng& rng = userRngs_[user.index()];
  auto& seen = watched_[user.index()];
  VideoId candidate = videoWithinChannel(rng, channelId);
  for (int attempt = 0; attempt < 8 && (watchedBefore(seen, candidate) ||
                                        !isReleased(candidate));
       ++attempt) {
    candidate = videoWithinChannel(rng, channelId);
  }
  if (!isReleased(candidate)) {
    // Very small channel fully unreleased is a configuration error; pick the
    // channel's top released video deterministically as a last resort.
    for (const VideoId video : catalog_.channel(channelId).videos) {
      if (isReleased(video)) {
        candidate = video;
        break;
      }
    }
  }
  markWatched(seen, candidate);
  return candidate;
}

VideoId VideoSelector::videoWithinChannel(Rng& rng, ChannelId channelId) {
  const trace::Channel& channel = catalog_.channel(channelId);
  assert(!channel.videos.empty());
  // channel.videos is sorted by popularity rank; Zipf over ranks gives the
  // §IV-B viewing distribution.
  const std::size_t rank = zipfFor(channel.videos.size()).sample(rng);
  return channel.videos[rank];
}

ChannelId VideoSelector::channelWithinCategory(Rng& rng,
                                               CategoryId categoryId) {
  const trace::Category& category = catalog_.category(categoryId);
  if (category.channels.empty()) {
    // Degenerate category: fall back to the global sampler.
    return ChannelId{
        static_cast<std::uint32_t>(globalChannelSampler_.sample(rng))};
  }
  const auto& sampler = categorySamplers_[categoryId.index()];
  return category.channels[sampler.sample(rng)];
}

VideoId VideoSelector::firstVideo(UserId user) {
  if (const VideoId feed = popFeed(user); feed.valid()) return feed;
  Rng& rng = userRngs_[user.index()];
  const trace::User& profile = catalog_.user(user);
  ChannelId channelId;
  if (!profile.subscriptions.empty()) {
    // Subscribed channel weighted by view frequency.
    std::vector<double> weights;
    weights.reserve(profile.subscriptions.size());
    for (const ChannelId sub : profile.subscriptions) {
      weights.push_back(catalog_.channel(sub).viewFrequency);
    }
    const WeightedSampler sampler{std::span<const double>(weights)};
    channelId = profile.subscriptions[sampler.sample(rng)];
  } else if (!profile.interests.empty()) {
    const CategoryId interest =
        profile.interests[rng.uniformInt(profile.interests.size())];
    channelId = channelWithinCategory(rng, interest);
  } else {
    channelId = ChannelId{
        static_cast<std::uint32_t>(globalChannelSampler_.sample(rng))};
  }
  return pickFor(user, channelId);
}

VideoId VideoSelector::nextVideo(UserId user, VideoId current) {
  if (const VideoId feed = popFeed(user); feed.valid()) return feed;
  Rng& rng = userRngs_[user.index()];
  const trace::Video& video = catalog_.video(current);
  const trace::Channel& channel = catalog_.channel(video.channel);
  const double roll = rng.uniform();

  if (roll < config_.sameChannelProbability) {
    return pickFor(user, channel.id);
  }
  if (roll <
      config_.sameChannelProbability + config_.sameCategoryProbability) {
    // Same category but a *different* channel (the same-channel case has its
    // own 75% branch); bounded resampling against popular-channel dominance.
    ChannelId next = channelWithinCategory(rng, channel.primaryCategory());
    for (int attempt = 0; attempt < 8 && next == channel.id; ++attempt) {
      next = channelWithinCategory(rng, channel.primaryCategory());
    }
    return pickFor(user, next);
  }
  // Different category: resample until the category changes (bounded tries —
  // with one category there is nowhere else to go).
  const CategoryId currentCategory = channel.primaryCategory();
  for (int attempt = 0; attempt < 8; ++attempt) {
    const CategoryId other{
        static_cast<std::uint32_t>(rng.uniformInt(catalog_.categoryCount()))};
    if (other == currentCategory) continue;
    if (catalog_.category(other).channels.empty()) continue;
    return pickFor(user, channelWithinCategory(rng, other));
  }
  return pickFor(user, channel.id);
}

void VideoSelector::saveState(snapshot::Writer& w) const {
  w.section(0x4354454c);  // "LETC" — selector
  w.u64(userRngs_.size());
  for (const Rng& rng : userRngs_) snapshot::saveRngState(w, rng.state());
  for (const auto& seen : watched_) {
    w.u64(seen.size());
    for (const VideoId video : seen) w.u32(video.value());
  }
  for (const auto& queue : feed_) {
    w.u64(queue.size());
    for (const VideoId video : queue) w.u32(video.value());
  }
  w.u64(feedWatches_);
}

bool VideoSelector::loadState(snapshot::Reader& r) {
  r.section(0x4354454c, "video selector");
  const std::size_t userCount = r.count(8 * 4 + 8 + 1);
  if (!r.ok() || userCount != userRngs_.size()) {
    r.fail("selector user count mismatch");
    return false;
  }
  std::vector<Rng::State> rngs(userCount);
  for (Rng::State& state : rngs) state = snapshot::loadRngState(r);
  std::vector<std::vector<VideoId>> watched(userCount);
  for (auto& seen : watched) {
    const std::size_t n = r.count(4);
    for (std::size_t i = 0; i < n; ++i) {
      const VideoId video{r.u32()};
      if (video.index() >= catalog_.videoCount()) {
        r.fail("selector watched video out of range");
        return false;
      }
      if (!seen.empty() && video <= seen.back()) {
        r.fail("selector watched list not ascending");
        return false;
      }
      seen.push_back(video);
    }
  }
  std::vector<std::vector<VideoId>> feed(userCount);
  for (auto& queue : feed) {
    const std::size_t n = r.count(4);
    for (std::size_t i = 0; i < n; ++i) {
      const VideoId video{r.u32()};
      if (video.index() >= catalog_.videoCount()) {
        r.fail("selector feed video out of range");
        return false;
      }
      queue.push_back(video);
    }
  }
  const std::uint64_t feedWatches = r.u64();
  if (!r.ok()) return false;
  for (std::size_t i = 0; i < userCount; ++i) userRngs_[i].setState(rngs[i]);
  watched_ = std::move(watched);
  feed_ = std::move(feed);
  feedWatches_ = feedWatches;
  return true;
}

}  // namespace st::vod

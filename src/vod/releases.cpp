#include "vod/releases.h"

#include <cassert>

#include "util/distributions.h"

namespace st::vod {

ReleaseManager::ReleaseManager(SystemContext& ctx, VideoSelector& selector,
                               double feedWatchProbability,
                               std::uint64_t seed)
    : ctx_(ctx),
      selector_(selector),
      feedWatchProbability_(feedWatchProbability),
      rng_(Rng::forPurpose(seed, "releases")) {
  ctx_.sim().registerFactory(sim::Component::kReleases, this);
}

ReleaseManager::~ReleaseManager() {
  if (ctx_.sim().factory(sim::Component::kReleases) == this) {
    ctx_.sim().registerFactory(sim::Component::kReleases, nullptr);
  }
}

sim::Callback ReleaseManager::rebuild(const sim::EventTag& tag) {
  assert(tag.kind == kReleaseEvent && "unknown release event kind");
  const VideoId video{static_cast<std::uint32_t>(tag.a)};
  return [this, video] { release(video); };
}

bool ReleaseManager::onRestored(const sim::EventTag& tag, sim::EventHandle) {
  return tag.kind == kReleaseEvent && ctx_.validVideo(tag.a);
}

void ReleaseManager::schedule(std::vector<ReleasePlanEntry> plan) {
  for (const ReleasePlanEntry& entry : plan) {
    ctx_.setReleased(entry.video, false);
  }
  for (const ReleasePlanEntry& entry : plan) {
    ctx_.sim().scheduleAtTagged(
        entry.at, sim::makeTag(sim::Component::kReleases, kReleaseEvent,
                               entry.video.value()));
  }
}

void ReleaseManager::release(VideoId video) {
  ctx_.setReleased(video, true);
  ++releasesFired_;
  // The feed reaches every subscriber of the channel (their homepage shows
  // the upload even if they are offline right now); a sampled subset will
  // actually watch it.
  const trace::Channel& channel =
      ctx_.catalog().channel(ctx_.catalog().video(video).channel);
  for (const UserId subscriber : channel.subscribers) {
    if (rng_.bernoulli(feedWatchProbability_)) {
      selector_.pushFeed(subscriber, video);
      ++feedNotifications_;
    }
  }
}

void ReleaseManager::saveState(snapshot::Writer& w) const {
  w.section(0x534c4552);  // "RELS"
  snapshot::saveRngState(w, rng_.state());
  w.u64(releasesFired_);
  w.u64(feedNotifications_);
}

bool ReleaseManager::loadState(snapshot::Reader& r) {
  r.section(0x534c4552, "release manager");
  const Rng::State rng = snapshot::loadRngState(r);
  const std::uint64_t fired = r.u64();
  const std::uint64_t notified = r.u64();
  if (!r.ok()) return false;
  rng_.setState(rng);
  releasesFired_ = static_cast<std::size_t>(fired);
  feedNotifications_ = static_cast<std::size_t>(notified);
  return true;
}

std::vector<ReleasePlanEntry> ReleaseManager::uniformPlan(
    const trace::Catalog& catalog, std::size_t perChannel,
    sim::SimTime windowStart, sim::SimTime windowEnd, std::uint64_t seed,
    std::size_t minChannelSize) {
  assert(windowStart <= windowEnd);
  Rng rng = Rng::forPurpose(seed, "release-plan");
  std::vector<ReleasePlanEntry> plan;
  for (const trace::Channel& channel : catalog.channels()) {
    if (channel.videos.size() <= minChannelSize) continue;
    // Distinct ranks in [1, n): the channel's top video stays released.
    std::vector<std::size_t> ranks =
        sampleDistinct(rng, channel.videos.size() - 1,
                       std::min(perChannel, channel.videos.size() - 1));
    for (const std::size_t offset : ranks) {
      const sim::SimTime at =
          windowStart + static_cast<sim::SimTime>(rng.uniform() *
                                                  static_cast<double>(
                                                      windowEnd - windowStart));
      plan.push_back({channel.videos[offset + 1], at});
    }
  }
  return plan;
}

}  // namespace st::vod

// Dynamic uploads: videos published while the system runs.
//
// The whole point of a YouTube channel is that subscribers track new
// uploads ("once a new video is uploaded to his subscribed channels, a feed
// of the uploaded video is provided on his YouTube homepage", §I). The
// ReleaseManager holds a chosen set of videos back, publishes them at
// scheduled instants, and pushes feed entries to (a sampled subset of) the
// channel's subscribers, who watch the new video at their next opportunity.
// This reproduces the flash-crowd dynamics that motivate the paper's
// scalability argument.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"
#include "snapshot/codec.h"
#include "vod/context.h"
#include "vod/selector.h"

namespace st::vod {

struct ReleasePlanEntry {
  VideoId video;
  sim::SimTime at;
};

class ReleaseManager final : public sim::EventFactory {
 public:
  // Tag kinds (Component::kReleases) — append-only, stored in snapshots.
  static constexpr std::uint8_t kReleaseEvent = 0;  // a = video

  // `feedWatchProbability`: chance that a subscriber puts the new upload
  // into their watch queue.
  ReleaseManager(SystemContext& ctx, VideoSelector& selector,
                 double feedWatchProbability, std::uint64_t seed);
  ~ReleaseManager() override;

  [[nodiscard]] sim::Callback rebuild(const sim::EventTag& tag) override;
  [[nodiscard]] bool onRestored(const sim::EventTag& tag,
                                sim::EventHandle handle) override;

  // Marks every planned video unreleased and schedules its publication.
  // Call once, before Simulator::run().
  void schedule(std::vector<ReleasePlanEntry> plan);

  [[nodiscard]] std::size_t releasesFired() const { return releasesFired_; }
  [[nodiscard]] std::size_t feedNotifications() const {
    return feedNotifications_;
  }

  // Serializes the feed-sampling RNG and the fired/notified tallies.
  // Pending release events live in the simulator queue; the released flags
  // themselves live in SystemContext. Do NOT call schedule() on a restored
  // run — the queue already holds the not-yet-fired releases.
  void saveState(snapshot::Writer& w) const;
  bool loadState(snapshot::Reader& r);

  // Builds a plan: `perChannel` videos of every channel with more than
  // `minChannelSize` videos (never the channel's top video, so every
  // channel keeps a released head), with release times uniform in
  // [windowStart, windowEnd].
  static std::vector<ReleasePlanEntry> uniformPlan(
      const trace::Catalog& catalog, std::size_t perChannel,
      sim::SimTime windowStart, sim::SimTime windowEnd, std::uint64_t seed,
      std::size_t minChannelSize = 3);

 private:
  void release(VideoId video);

  SystemContext& ctx_;
  VideoSelector& selector_;
  double feedWatchProbability_;
  Rng rng_;
  std::size_t releasesFired_ = 0;
  std::size_t feedNotifications_ = 0;
};

}  // namespace st::vod

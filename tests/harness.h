// Shared fixture pieces for protocol-level tests: a hand-built mini catalog
// plus the full context stack (simulator, network, library, metrics,
// transfers) with a clean low-latency network.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "net/latency.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "snapshot/codec.h"
#include "trace/catalog.h"
#include "vod/config.h"
#include "vod/context.h"
#include "vod/library.h"
#include "vod/metrics.h"
#include "vod/system.h"
#include "vod/transfer.h"

namespace st::testing {

// Minimal VodSystem that records transfer outcomes. Transfer-level tests
// install it as the TransferManager's client (the role a real system plays)
// and assert on the recorded playback / finish / prefetch events.
class RecordingClient : public vod::VodSystem {
 public:
  struct Playback {
    UserId user;
    VideoId video;
    sim::SimTime delay;
    bool timedOut;
  };
  struct Finish {
    UserId user;
    VideoId video;
    bool complete;
  };
  struct Prefetch {
    UserId user;
    VideoId video;
    bool fromPeer;
  };
  std::vector<Playback> playbacks;
  std::vector<Finish> finishes;
  std::vector<Prefetch> prefetches;

  [[nodiscard]] std::string_view name() const override { return "recorder"; }
  void onLogin(UserId) override {}
  void onLogout(UserId, bool) override {}
  void requestVideo(UserId, VideoId) override {}
  [[nodiscard]] NodeStats nodeStats(UserId) const override { return {}; }
  // Records outcomes only; it has no protocol state to checkpoint.
  void saveState(snapshot::Writer&) const override {}
  [[nodiscard]] bool loadState(snapshot::Reader&) override { return true; }

  void watchPlaybackReady(UserId user, VideoId video, sim::SimTime delay,
                          bool timedOut) override {
    playbacks.push_back({user, video, delay, timedOut});
  }
  void watchFinished(UserId user, VideoId video, bool complete) override {
    finishes.push_back({user, video, complete});
  }
  void prefetchArrived(UserId user, VideoId video, bool fromPeer) override {
    prefetches.push_back({user, video, fromPeer});
  }
};

// Catalog with `channelsPerCategory` channels in each of `categories`
// categories and `videosPerChannel` videos each; `users` users where user i
// owns channel i (when i < channels). Video lengths are fixed at 100 s and
// views are assigned by rank so videos[0] is the most popular.
inline trace::Catalog miniCatalog(std::size_t users, std::size_t categories,
                                  std::size_t channelsPerCategory,
                                  std::size_t videosPerChannel) {
  trace::Catalog catalog;
  for (std::size_t c = 0; c < categories; ++c) {
    catalog.addCategory("Cat" + std::to_string(c));
  }
  for (std::size_t u = 0; u < users; ++u) catalog.addUser();
  const std::size_t channels = categories * channelsPerCategory;
  for (std::size_t ch = 0; ch < channels; ++ch) {
    const CategoryId category{static_cast<std::uint32_t>(ch / channelsPerCategory)};
    const UserId owner{static_cast<std::uint32_t>(ch % users)};
    const ChannelId id = catalog.addChannel(owner, {category});
    for (std::size_t v = 0; v < videosPerChannel; ++v) {
      const VideoId video = catalog.addVideo(id, 100.0, 0);
      catalog.video(video).views =
          1000.0 / static_cast<double>(v + 1);  // Zipf-ish by rank
      catalog.video(video).rankInChannel = static_cast<std::uint32_t>(v);
    }
    catalog.channel(id).viewFrequency = 100.0;
    catalog.channel(id).totalViews = 1000.0;
  }
  // Every user subscribes to every channel of their "home" category to give
  // the selector something to work with.
  for (std::size_t u = 0; u < users; ++u) {
    const UserId user{static_cast<std::uint32_t>(u)};
    const CategoryId home{static_cast<std::uint32_t>(u % categories)};
    catalog.addInterest(user, home);
    for (const ChannelId ch : catalog.channelsOf(home)) {
      catalog.subscribe(user, ch);
    }
  }
  catalog.seal();
  return catalog;
}

// Full context stack over a catalog. Fast clean network (1-2 ms one-way).
class Stack {
 public:
  explicit Stack(trace::Catalog catalog, vod::VodConfig config = {},
                 std::uint64_t seed = 1)
      : catalog_(std::move(catalog)),
        config_(config),
        network_(sim_,
                 std::make_unique<net::CleanLatencyModel>(
                     seed, sim::kMillisecond, 2 * sim::kMillisecond),
                 seed),
        library_(catalog_, config_),
        metrics_(catalog_.userCount(), config_.videosPerSession),
        ctx_(sim_, network_, catalog_, library_, config_, metrics_, seed),
        transfers_(ctx_) {
    transfers_.setClient(&client_);
  }

  sim::Simulator& sim() { return sim_; }

  // Runs the clock forward by a bounded horizon. Unlike Simulator::run(),
  // this terminates even when periodic maintenance timers (neighbor probes)
  // keep the event queue non-empty.
  void settle(sim::SimTime horizon = 2 * sim::kMinute) {
    sim_.runUntil(sim_.now() + horizon);
  }

  net::Network& network() { return network_; }
  const trace::Catalog& catalog() const { return catalog_; }
  const vod::VideoLibrary& library() const { return library_; }
  vod::Metrics& metrics() { return metrics_; }
  vod::SystemContext& ctx() { return ctx_; }
  vod::TransferManager& transfers() { return transfers_; }
  RecordingClient& client() { return client_; }
  const vod::VodConfig& config() const { return config_; }

 private:
  trace::Catalog catalog_;
  vod::VodConfig config_;
  sim::Simulator sim_;
  net::Network network_;
  vod::VideoLibrary library_;
  vod::Metrics metrics_;
  vod::SystemContext ctx_;
  vod::TransferManager transfers_;
  RecordingClient client_;
};

// A whole snapshot file around `w`'s body, as Writer::writeFile lays it
// out, so a component's saveState/loadState pair can round-trip in memory.
inline snapshot::Reader readerOf(const snapshot::Writer& w) {
  const std::vector<std::uint8_t>& body = w.body();
  std::vector<std::uint8_t> file;
  const auto le = [&file](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      file.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  le(snapshot::kMagic, 4);
  le(snapshot::kFormatVersion, 4);
  le(body.size(), 8);
  le(snapshot::crc32(body.data(), body.size()), 4);
  file.insert(file.end(), body.begin(), body.end());
  return snapshot::Reader(std::move(file));
}

}  // namespace st::testing

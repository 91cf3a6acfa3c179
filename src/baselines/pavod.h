// PA-VoD baseline (Huang, Li & Ross, SIGCOMM'07), as described in §I.
//
// Pure peer-assisted serving with no durable overlay and no cache: when a
// user requests a video the server directs it to peers *currently watching*
// that video (and holding a complete copy); when none exist the server
// serves the video itself. A node stops providing the moment its playback
// ends — with YouTube-scale short videos this leaves most requests to the
// server, which is the paper's core criticism.
#pragma once

#include <cstdint>
#include <vector>

#include "baselines/video_directory.h"
#include "vod/context.h"
#include "vod/system.h"
#include "vod/transfer.h"

namespace st::baselines {

class PaVodSystem final : public vod::VodSystem, public sim::EventFactory {
 public:
  // Tag kinds (Component::kPaVod) — append-only, stored in snapshots.
  static constexpr std::uint8_t kWatchersAtServer = 0;  // a=user b=video
                                                        // d=reqT
  static constexpr std::uint8_t kWatchersReply = 1;  // a=video b=payload
                                                     // c=provider d=reqT
  static constexpr std::uint8_t kProviderRegister = 2;  // a=user b=video

  PaVodSystem(vod::SystemContext& ctx, vod::TransferManager& transfers);
  ~PaVodSystem() override;

  [[nodiscard]] sim::Callback rebuild(const sim::EventTag& tag) override;
  void discard(const sim::EventTag& tag) override;
  [[nodiscard]] bool onRestored(const sim::EventTag& tag,
                                sim::EventHandle handle) override;

  [[nodiscard]] std::string_view name() const override { return "PA-VoD"; }

  void onLogin(UserId user) override;
  void onLogout(UserId user, bool graceful) override;
  void requestVideo(UserId user, VideoId video) override;
  void onPlaybackComplete(UserId user, VideoId video) override;
  void watchFinished(UserId user, VideoId video, bool complete) override;
  [[nodiscard]] NodeStats nodeStats(UserId user) const override;
  [[nodiscard]] SystemStats statsSnapshot() const override {
    return {.serverRegistrations = watchers_.totalRegistrations()};
  }

  [[nodiscard]] const VideoDirectory& watchers() const { return watchers_; }

  // Structural contract audit (see vod/audit.h): every advertised watcher
  // must be online, still watching the advertised video, and hold a full
  // copy — all maintained synchronously, so every rule is instant.
  void auditInvariants(vod::AuditReport& report) const override;
  void auditUser(vod::AuditReport& report, UserId user) const override;

  // Serializes the watcher directory and per-node watch state. PA-VoD holds
  // no timers, so nothing needs re-storing from the simulator queue.
  void saveState(snapshot::Writer& w) const override;
  [[nodiscard]] bool loadState(snapshot::Reader& r) override;

 private:
  // Clears the user's per-session watch state (login, logout, playback end).
  void resetNode(UserId user) {
    current_[user.index()] = VideoId::invalid();
    haveFull_[user.index()] = 0;
    peerProvider_[user.index()] = 0;
  }

  // Tag-rebuilt message bodies (see the kind list above).
  void watchersAtServer(const sim::EventTag& tag);
  void applyWatchersReply(const sim::EventTag& tag);
  void providerRegister(const sim::EventTag& tag);
  // The rules for one advertisement; both audits run them through here.
  void auditWatcher(vod::AuditReport& report, UserId member,
                    VideoId video) const;
  void startDownload(UserId user, VideoId video, UserId provider,
                     std::vector<UserId> extraProviders,
                     sim::SimTime requestTime);

  vod::SystemContext& ctx_;
  vod::TransferManager& transfers_;
  // Nodes currently watching a video AND holding a full copy of it.
  VideoDirectory watchers_;
  // Struct-of-arrays node state, indexed by user: the video being watched,
  // whether its download completed (the node can provide), and whether the
  // current download is peer-sourced (link metric). Plain bytes rather than
  // vector<bool> so element writes stay independent.
  std::vector<VideoId> current_;
  std::vector<std::uint8_t> haveFull_;
  std::vector<std::uint8_t> peerProvider_;
};

}  // namespace st::baselines

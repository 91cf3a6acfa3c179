// Session/churn driver (§V experiment methodology).
//
// Each user runs `sessionsPerUser` sessions of `videosPerSession` videos.
// Off times between sessions are exponential (Poisson arrival process, per
// Chatzopoulou et al. as cited in the paper); a configurable fraction of
// departures are abrupt. Per-user RNG streams make the schedule identical
// across the three systems under comparison.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulator.h"
#include "snapshot/codec.h"
#include "vod/context.h"
#include "vod/selector.h"
#include "vod/system.h"
#include "vod/transfer.h"

namespace st::vod {

class SessionDriver final : public sim::EventFactory {
 public:
  // Tag kinds (Component::kSession) — append-only, stored in snapshots.
  static constexpr std::uint8_t kLoginEvent = 0;         // a = user
  static constexpr std::uint8_t kPlaybackDoneEvent = 1;  // a = user, b = video

  SessionDriver(SystemContext& ctx, VodSystem& system,
                TransferManager& transfers, VideoSelector& selector,
                std::uint64_t seed);
  ~SessionDriver() override;

  [[nodiscard]] sim::Callback rebuild(const sim::EventTag& tag) override;
  [[nodiscard]] bool onRestored(const sim::EventTag& tag,
                                sim::EventHandle handle) override;

  // Schedules the initial logins; call once before Simulator::run().
  void start();

  // Forced ungraceful departure (fault injection): the user drops offline
  // immediately with no goodbye messages, exactly like an abrupt logout.
  // The interrupted session still counts and the user returns after the
  // usual exponential off time. No-op when the user is already offline.
  void crashUser(UserId user);

  // Forced early return (fault injection, `rejoin:` events): the user logs
  // back in immediately — ahead of their scheduled next login — carrying
  // whatever stale per-node state the system kept across the crash. The
  // superseded scheduled login becomes a no-op when it fires (login is
  // idempotent for online users). No-op when the user is already online or
  // has finished every session. No RNG draw, so untouched users' churn
  // streams stay aligned with the fault-free run.
  void rejoinUser(UserId user);

  // Users that finished all their sessions.
  [[nodiscard]] std::size_t usersCompleted() const { return usersCompleted_; }
  [[nodiscard]] std::uint64_t sessionsCompleted() const {
    return sessionsCompleted_;
  }
  [[nodiscard]] std::uint64_t videosWatched() const { return videosWatched_; }

  // Serializes per-user progress, the churn RNG streams, and the completion
  // tallies. Presence is the context's (SystemContext::isOnline). Pending
  // login / playback-done events live in the simulator queue and are
  // rebuilt from their tags on restore.
  void saveState(snapshot::Writer& w) const;
  bool loadState(snapshot::Reader& r);

 private:
  struct UserState {
    std::size_t sessionsDone = 0;
    std::size_t videosThisSession = 0;
    VideoId currentVideo = VideoId::invalid();
  };

  void login(UserId user);
  void logout(UserId user);
  // Shared tail of logout (graceful flag drawn) and crashUser (forced
  // abrupt): take the user offline and schedule the next session.
  void endSession(UserId user, bool graceful);
  void requestNext(UserId user);
  void onPlaybackReady(UserId user, VideoId video, sim::SimTime delay,
                       bool timedOut);
  void onPlaybackComplete(UserId user, VideoId video);

  SystemContext& ctx_;
  VodSystem& system_;
  TransferManager& transfers_;
  VideoSelector& selector_;
  std::vector<UserState> users_;
  std::vector<Rng> userRngs_;  // churn timing streams
  std::size_t usersCompleted_ = 0;
  std::uint64_t sessionsCompleted_ = 0;
  std::uint64_t videosWatched_ = 0;
};

}  // namespace st::vod

// Interface every VoD system implements (SocialTube, NetTube, PA-VoD).
//
// The SessionDriver owns the user lifecycle and calls down; the system calls
// back through the playback callback when the requested video is ready to
// play (or timed out). This keeps the workload generator identical across
// systems — the only thing that differs is how providers are found.
#pragma once

#include <functional>
#include <string_view>

#include "sim/time.h"
#include "util/strong_id.h"
#include "vod/audit.h"

namespace st::snapshot {
class Reader;
class Writer;
}  // namespace st::snapshot

namespace st::vod {

class VodSystem {
 public:
  // (user, video, startup delay, timedOut). When timedOut is true the watch
  // was abandoned (no playback).
  using PlaybackCallback =
      std::function<void(UserId, VideoId, sim::SimTime, bool)>;

  virtual ~VodSystem() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  void setPlaybackCallback(PlaybackCallback callback) {
    playbackReady_ = std::move(callback);
  }

  // Session lifecycle (driven by SessionDriver; context online flags are
  // already updated when these run).
  virtual void onLogin(UserId user) = 0;
  virtual void onLogout(UserId user, bool graceful) = 0;

  // The user selected `video`; find a provider, download, and fire the
  // playback callback exactly once.
  virtual void requestVideo(UserId user, VideoId video) = 0;

  // Playback of the user's current video finished (PA-VoD uses this to
  // unregister the watcher; others ignore it).
  virtual void onPlaybackComplete(UserId user, VideoId video) {
    (void)user;
    (void)video;
  }

  // Anti-entropy reconciliation round for a node that rejoined after a
  // crash with possibly-stale local state (fault::RecoveryManager drives
  // this). Implementations re-announce the node, audit its overlay links,
  // and revalidate caches; the default assumes onLogin already rebuilt
  // everything (true for PA-VoD's per-video registration model).
  virtual void reconcile(UserId user) { (void)user; }

  // --- transfer lifecycle hooks -------------------------------------------------
  // Invoked by the TransferManager (which holds this system as its client)
  // instead of per-watch closures, so in-flight transfers survive a
  // checkpoint/restore. The default reports playback and ignores the rest;
  // systems override to trigger prefetching and caching.
  virtual void watchPlaybackReady(UserId user, VideoId video,
                                  sim::SimTime delay, bool timedOut) {
    notifyPlayback(user, video, delay, timedOut);
  }
  // The watch ended; complete = full video downloaded (cacheable). Not
  // called when the user goes offline mid-download.
  virtual void watchFinished(UserId user, VideoId video, bool complete) {
    (void)user;
    (void)video;
    (void)complete;
  }
  // A prefetched first chunk landed at `user`.
  virtual void prefetchArrived(UserId user, VideoId video, bool fromPeer) {
    (void)user;
    (void)video;
    (void)fromPeer;
  }

  // Per-node overlay state, read together once per watched video.
  struct NodeStats {
    // Overlay links the node currently maintains (Fig. 18 metric).
    std::size_t links = 0;
    // Links that are redundant — a second (or later) link between the same
    // pair of nodes held in a different overlay. Only NetTube can have
    // these ("two nodes may be connected by redundant links", §IV-C).
    std::size_t redundantLinks = 0;
  };

  // System-wide state, sampled periodically by the runner.
  struct SystemStats {
    // Size of the state the origin server keeps for this system — (user,
    // key) registrations. §IV-A argues SocialTube's per-channel tracking
    // is far smaller than NetTube's per-video tracking.
    std::size_t serverRegistrations = 0;
  };

  [[nodiscard]] virtual NodeStats nodeStats(UserId user) const = 0;
  [[nodiscard]] virtual SystemStats statsSnapshot() const { return {}; }

  // Walks the system's overlay/directory state and appends every structural
  // contract breach to `report` (see vod/audit.h for the severity model).
  // Driven by fault::InvariantChecker; the default has nothing to check.
  virtual void auditInvariants(AuditReport& report) const { (void)report; }

  // The scoped audit fault::RecoveryManager runs for one rejoined user:
  // given a report scoped to the online `user`, appends exactly the
  // violations auditInvariants would report that name that user. Each
  // system walks the user's own state and registrations, plus the other
  // nodes whose link lists hold the user (found by one linear pass), with
  // the same per-node and per-registration checks its full audit uses.
  virtual void auditUser(AuditReport& report, UserId user) const {
    (void)report;
    (void)user;
  }

  // Checkpoint/restore of the system's overlay, cache and search state (one
  // snapshot section, DESIGN.md §11). The runner also fingerprints a run's
  // final state by hashing what saveState writes.
  virtual void saveState(snapshot::Writer& w) const = 0;
  [[nodiscard]] virtual bool loadState(snapshot::Reader& r) = 0;

 protected:
  void notifyPlayback(UserId user, VideoId video, sim::SimTime delay,
                      bool timedOut) {
    if (playbackReady_) playbackReady_(user, video, delay, timedOut);
  }

 private:
  PlaybackCallback playbackReady_;
};

}  // namespace st::vod

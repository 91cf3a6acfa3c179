// NetTube baseline (Cheng & Liu, INFOCOM'09), as described in §I/§IV-C.
//
// Per-video overlays: the viewers of a video form an overlay; a node joins
// the overlay of every video it watches and *stays* in all of them while
// online, so its link count grows with the number of videos watched (the
// behaviour Fig. 15/18 contrasts with SocialTube). Search: query neighbors
// within two hops across all of the node's overlays; on a miss, ask the
// server directory; the server serves the video itself only when no peer
// has it. Nodes cache every watched video (kept across sessions) and
// prefetch the first chunks of three videos picked at random from their
// neighbors' caches.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "baselines/video_directory.h"
#include "vod/context.h"
#include "vod/search_table.h"
#include "vod/system.h"
#include "vod/transfer.h"
#include "vod/video_cache.h"

namespace st::baselines {

class NetTubeSystem final : public vod::VodSystem, public sim::EventFactory {
 public:
  // Tag kinds (Component::kNetTube) — append-only, stored in snapshots.
  static constexpr std::uint8_t kProbeEvent = 0;        // a = user (periodic)
  static constexpr std::uint8_t kDropLinksEvent = 1;    // a = departing user
  static constexpr std::uint8_t kInventoryAtServer = 2;  // a=user b=payload
  static constexpr std::uint8_t kFloodHop = 3;     // a=origin b=video
                                                   // c=queryId d=ttl
  static constexpr std::uint8_t kSearchHit = 4;    // a=queryId b=provider
  static constexpr std::uint8_t kAskDirectory = 5;  // a=queryId (deadline)
  static constexpr std::uint8_t kDirectoryAtServer = 6;  // a=user
                                                         // b=video|join<<32
                                                         // c=queryId
  static constexpr std::uint8_t kDirectoryReply = 7;  // a=queryId b=payload
  static constexpr std::uint8_t kServerWatch = 8;     // TransferManager's
                                                      // server-watch layout
  static constexpr std::uint8_t kCachedAtServer = 9;  // a=user b=video
  static constexpr std::uint8_t kCachedReply = 10;    // a=video b=payload

  NetTubeSystem(vod::SystemContext& ctx, vod::TransferManager& transfers);
  ~NetTubeSystem() override;

  [[nodiscard]] sim::Callback rebuild(const sim::EventTag& tag) override;
  void discard(const sim::EventTag& tag) override;
  [[nodiscard]] bool onRestored(const sim::EventTag& tag,
                                sim::EventHandle handle) override;

  [[nodiscard]] std::string_view name() const override { return "NetTube"; }

  void onLogin(UserId user) override;
  void onLogout(UserId user, bool graceful) override;
  // Anti-entropy pass for a rejoined node (fault::RecoveryManager): re-send
  // the cached-video inventory so the server's per-video directory re-learns
  // this node as a provider, and run one probe sweep over its overlay links.
  void reconcile(UserId user) override;
  void requestVideo(UserId user, VideoId video) override;
  void watchPlaybackReady(UserId user, VideoId video, sim::SimTime delay,
                          bool timedOut) override;
  void watchFinished(UserId user, VideoId video, bool complete) override;
  void prefetchArrived(UserId user, VideoId video, bool fromPeer) override;
  [[nodiscard]] NodeStats nodeStats(UserId user) const override;
  [[nodiscard]] SystemStats statsSnapshot() const override {
    return {.serverRegistrations = directory_.totalRegistrations()};
  }

  // --- introspection ----------------------------------------------------------
  [[nodiscard]] const vod::VideoCache& cache(UserId user) const {
    return cache_[user.index()];
  }
  [[nodiscard]] std::size_t overlayCount(UserId user) const {
    return overlays_[user.index()].size();
  }
  [[nodiscard]] const VideoDirectory& directory() const { return directory_; }

  // Structural contract audit (see vod/audit.h): per-overlay link caps,
  // symmetry, no empty overlay entries, repair-horizon staleness, directory
  // and cache consistency.
  void auditInvariants(vod::AuditReport& report) const override;
  void auditUser(vod::AuditReport& report, UserId user) const override;

  // Test-only corruption hooks. The first appends `neighbor` to `user`'s
  // overlay for `video` without the reciprocal entry or the cap check; the
  // second registers `user` under `video` at the server without caching it.
  void injectLinkForTest(UserId user, UserId neighbor, VideoId video);
  void injectRegistrationForTest(UserId user, VideoId video);

  // Serializes the directory, per-node overlays/caches, the search pool, and
  // the flood-dedup stamps. Probe timers and search deadlines are re-stored
  // from the simulator queue via onRestored().
  void saveState(snapshot::Writer& w) const override;
  [[nodiscard]] bool loadState(snapshot::Reader& r) override;

 private:
  // video -> links held in that video's overlay. Ordered map: iteration
  // feeds allNeighbors()/probe sweeps (and the snapshot), so the walk
  // order must be a function of the keys, not of hashing.
  using Overlays = std::map<VideoId, std::vector<UserId>>;

  struct Search {
    UserId user;
    VideoId video;
    bool prefetchHit = false;
    sim::SimTime requestTime = 0;
    sim::EventHandle deadline;
  };

  // Distinct neighbors across all of the node's overlays, in order of first
  // appearance.
  [[nodiscard]] std::vector<UserId> allNeighbors(const Overlays& overlays) const;
  // Starts a new de-duplicating walk: a user is already in the walk's
  // result iff neighborMark_ holds the returned generation for it.
  [[nodiscard]] std::uint32_t nextNeighborMark() const;

  void connectOverlayLink(UserId a, UserId b, VideoId video);
  void dropAllLinks(UserId holder, UserId gone);

  void beginSearch(UserId user, VideoId video, bool prefetchHit,
                   sim::SimTime requestTime);
  void floodQuery(UserId origin, UserId at, VideoId video,
                  std::uint64_t queryId, int ttl);
  // Sends the query from `at` to its neighbors with `ttl` hops left. The
  // per-hop fan-out is bounded by the per-overlay link budget (one
  // overlay's worth of neighbors, chosen at random), keeping the flood cost
  // comparable to SocialTube's N_l-bounded channel flood.
  void forwardQuery(UserId origin, UserId at, VideoId video,
                    std::uint64_t queryId, std::vector<UserId> neighbors,
                    int ttl);
  // Sends the user's cached inventory to the server directory.
  void reportInventory(UserId user);
  void onSearchHit(std::uint64_t queryId, UserId provider);
  void askServerDirectory(std::uint64_t queryId);
  // Tag-rebuilt message bodies (see the kind list above).
  void inventoryAtServer(const sim::EventTag& tag);
  void directoryAtServer(const sim::EventTag& tag);
  void applyDirectoryReply(const sim::EventTag& tag);
  void cachedAtServer(const sim::EventTag& tag);
  void applyCachedReply(const sim::EventTag& tag);
  void resolveSearch(std::uint64_t queryId, UserId provider,
                     const std::vector<UserId>& overlayPeers);
  void startDownload(UserId user, VideoId video, UserId provider,
                     bool prefetchHit, sim::SimTime requestTime);
  void onVideoCached(UserId user, VideoId video);

  void prefetchFromNeighbors(UserId user);
  void probeNeighbors(UserId user);

  // The per-node rules (overlays, cache) and the per-registration rules;
  // both audits run each rule through these.
  void auditNode(vod::AuditReport& report, UserId user) const;
  void auditRegistration(vod::AuditReport& report, UserId member,
                         VideoId video) const;

  vod::SystemContext& ctx_;
  vod::TransferManager& transfers_;
  VideoDirectory directory_;
  // Struct-of-arrays node state, indexed by user. Splitting the old Node
  // struct keeps the cache scans (prefetch, audit) and timer bookkeeping off
  // the cache lines that the overlay walks touch.
  std::vector<Overlays> overlays_;
  std::vector<vod::VideoCache> cache_;
  std::vector<sim::EventHandle> probeTimer_;
  vod::SearchTable<Search> searches_;
  // Walk marks for allNeighbors()/nodeStats(), one word per user; not part
  // of the protocol state (never saved).
  mutable std::vector<std::uint32_t> neighborMark_;
  mutable std::uint32_t neighborGeneration_ = 0;
};

}  // namespace st::baselines

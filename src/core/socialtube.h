// SocialTube — the paper's primary contribution (§IV).
//
// Interest-based per-community hierarchical P2P structure:
//  * lower level  — nodes watching a channel form that channel's overlay;
//    each node keeps at most N_l inner-links there.
//  * higher level — channels of the same interest category form a cluster;
//    each node keeps at most N_h inter-links to nodes in sibling channels.
//
// Video search (Algorithm 1): flood the channel overlay with TTL, then the
// category cluster with TTL, then fall back to the origin server. The first
// responder supplies the video and becomes a neighbor.
//
// Channel-facilitated prefetching (§IV-B): while a video plays, the node
// prefetches the first chunks of the M most popular videos of the channel
// it is watching (popularity ranks are published by the server).
//
// Modelling notes:
//  * Query/HIT messages travel over the latency model with loss; phase
//    deadlines bound the wait, exactly like a real timeout-driven client.
//  * Link handshakes are collapsed to one state update (both ends add the
//    link at initiation time); probe rounds detect links whose far ends
//    left abruptly.
//  * Neighbor cache contents are inspected directly when choosing prefetch
//    providers — standing in for the cache digests piggybacked on probe
//    messages in a real deployment.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "vod/context.h"
#include "vod/membership.h"
#include "vod/search_table.h"
#include "vod/system.h"
#include "vod/transfer.h"
#include "vod/video_cache.h"

namespace st::core {

// The origin server's SocialTube state: for each channel, the online users
// registered under it — a user's subscriptions plus the channel they are
// currently watching (§IV-A: "users should report their changes of
// subscribed channels"). Far smaller than NetTube's per-video tracking.
using SubscriberDirectory = vod::MembershipDirectory<ChannelId>;

// Fixed-capacity neighbor list: a mutable view over one node's slice of the
// flat neighbor arena inside the node store. Copying the view is cheap
// (pointer + count cell + cap); mutations write through to the arena, so
// every view of the same slice observes them. Capacity is the audit's hard
// cap (2*N — connect() admits links up to the doubled soft budget) plus a
// little slack that lets the test-only corruption hook push a list past the
// cap the invariant checker enforces.
class LinkList {
 public:
  LinkList(UserId* data, std::uint32_t* count, std::uint32_t cap)
      : data_(data), count_(count), cap_(cap) {}

  [[nodiscard]] std::size_t size() const { return *count_; }
  [[nodiscard]] bool empty() const { return *count_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }
  [[nodiscard]] const UserId* begin() const { return data_; }
  [[nodiscard]] const UserId* end() const { return data_ + *count_; }
  [[nodiscard]] UserId operator[](std::size_t i) const { return data_[i]; }
  operator std::span<const UserId>() const { return {data_, *count_}; }

  void push_back(UserId user) const {
    assert(*count_ < cap_ && "neighbor slice overflow (hard cap + slack)");
    data_[(*count_)++] = user;
  }
  void clear() const { *count_ = 0; }
  // Order-preserving removal: the lists are serialized into snapshots, so
  // their order is part of the bitwise state.
  void eraseAt(std::size_t i) const {
    for (std::size_t k = i + 1; k < *count_; ++k) data_[k - 1] = data_[k];
    --*count_;
  }
  void assign(std::span<const UserId> from) const {
    assert(from.size() <= cap_);
    for (std::size_t i = 0; i < from.size(); ++i) data_[i] = from[i];
    *count_ = static_cast<std::uint32_t>(from.size());
  }

 private:
  UserId* data_;
  std::uint32_t* count_;
  std::uint32_t cap_;
};

class SocialTubeSystem final : public vod::VodSystem,
                               public sim::EventFactory {
 public:
  // Tag kinds (Component::kSocialTube) — append-only, stored in snapshots.
  static constexpr std::uint8_t kProbeEvent = 0;     // a = user (periodic)
  static constexpr std::uint8_t kGoodbyeEvent = 1;   // a = from, b = innerList
  static constexpr std::uint8_t kJoinAtServer = 2;   // a=user b=channel
                                                     // c=video|hit<<32 d=reqT
  static constexpr std::uint8_t kJoinReply = 3;      // a=channel|cat<<32
                                                     // b=payload c=video|hit
                                                     // d=reqT
  static constexpr std::uint8_t kFloodHop = 4;       // a=origin b=video
                                                     // c=queryId d=ttl
  static constexpr std::uint8_t kSearchHit = 5;      // a=queryId b=provider
  static constexpr std::uint8_t kEnterCategory = 6;  // a = queryId (deadline)
  static constexpr std::uint8_t kFallbackEvent = 7;  // a = queryId (deadline)
  static constexpr std::uint8_t kRetryEvent = 8;     // a = queryId (backoff)
  static constexpr std::uint8_t kServerWatch = 9;    // TransferManager's
                                                     // server-watch layout
  static constexpr std::uint8_t kGossipAtHelper = 10;  // a=user b=channel
  static constexpr std::uint8_t kGossipReply = 11;     // a=channel b=payload
  static constexpr std::uint8_t kRepairAtServer = 12;  // a=user b=chan|cat<<32
                                                       // c=needInner|needInter
  static constexpr std::uint8_t kRepairReply = 13;     // a=channel b=payload

  SocialTubeSystem(vod::SystemContext& ctx, vod::TransferManager& transfers);
  ~SocialTubeSystem() override;

  [[nodiscard]] sim::Callback rebuild(const sim::EventTag& tag) override;
  void discard(const sim::EventTag& tag) override;
  [[nodiscard]] bool onRestored(const sim::EventTag& tag,
                                sim::EventHandle handle) override;

  [[nodiscard]] std::string_view name() const override { return "SocialTube"; }

  void onLogin(UserId user) override;
  void onLogout(UserId user, bool graceful) override;
  // Anti-entropy pass for a rejoined node (fault::RecoveryManager): re-assert
  // its server-side registrations, run one probe sweep over its overlay
  // links (dropping dead/asymmetric entries and requesting repair for the
  // shortfall), and revalidate its prefetch cache against the release state.
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

  // --- introspection (tests, benches) ---------------------------------------
  [[nodiscard]] std::span<const UserId> innerNeighbors(UserId user) const {
    return store_.ref(user).inner;
  }
  [[nodiscard]] std::span<const UserId> interNeighbors(UserId user) const {
    return store_.ref(user).inter;
  }
  [[nodiscard]] ChannelId currentChannel(UserId user) const {
    return store_.ref(user).channel;
  }
  [[nodiscard]] const vod::VideoCache& cache(UserId user) const {
    return store_.cache(user);
  }
  [[nodiscard]] const SubscriberDirectory& directory() const {
    return directory_;
  }

  // Structural contract audit (see vod/audit.h): link caps, symmetry,
  // repair-horizon staleness, directory and cache consistency.
  void auditInvariants(vod::AuditReport& report) const override;
  void auditUser(vod::AuditReport& report, UserId user) const override;

  // Test-only corruption hook: appends `neighbor` to `user`'s inner or
  // inter list WITHOUT the reciprocal entry, cap checks, or handshakes —
  // exactly the damage a lost goodbye or a protocol bug would leave behind.
  // The invariant checker and the hardened probe must detect/repair it.
  void injectLinkForTest(UserId user, UserId neighbor, bool inner);

  // Serializes the directory, every node's overlay/cache state, the search
  // pool, and the flood-dedup stamps. Probe timers and search deadlines are
  // re-stored from the simulator queue via onRestored().
  void saveState(snapshot::Writer& w) const override;
  [[nodiscard]] bool loadState(snapshot::Reader& r) override;

 private:
  // Arena slack beyond the audited hard cap: injectLinkForTest deliberately
  // pushes lists past the cap (the checker must then flag them), so the
  // backing slice needs headroom above what the protocol itself ever uses.
  static constexpr std::uint32_t kLinkSlack = 4;

  // One node's fields, assembled from the store's parallel arrays. The
  // reference members alias the arrays; LinkList views alias the neighbor
  // arenas. None of the backing storage ever reallocates after init(), so a
  // ref stays valid for as long as the store lives.
  struct NodeRef {
    ChannelId& channel;    // overlay currently joined
    CategoryId& category;
    LinkList inner;
    LinkList inter;
    vod::VideoCache& cache;
    // Last session's neighborhood, for the reconnect-on-login path (§IV-A).
    ChannelId& lastChannel;
    CategoryId& lastCategory;
    LinkList lastInner;
    LinkList lastInter;
    sim::EventHandle& probeTimer;
  };

  struct ConstNodeRef {
    ChannelId channel;
    CategoryId category;
    std::span<const UserId> inner;
    std::span<const UserId> inter;
    const vod::VideoCache& cache;
    ChannelId lastChannel;
    CategoryId lastCategory;
    std::span<const UserId> lastInner;
    std::span<const UserId> lastInter;
  };

  // Struct-of-arrays node state. A million users previously meant a million
  // Node objects, each owning four heap vectors (~8 allocations apiece) and
  // scattering the hot fields across the heap; the store keeps every field
  // in one contiguous parallel array and packs each neighbor list into a
  // fixed-capacity slice of a flat arena, so probe sweeps, audits, and
  // snapshots scan linearly and steady-state link churn never allocates.
  class NodeStore {
   public:
    void init(std::size_t nodes, std::uint32_t innerCap, std::uint32_t interCap,
              std::size_t cacheVideos, std::size_t prefetchSlots);
    [[nodiscard]] std::size_t size() const { return channel_.size(); }
    [[nodiscard]] NodeRef ref(UserId user);
    [[nodiscard]] ConstNodeRef ref(UserId user) const;
    [[nodiscard]] vod::VideoCache& cache(UserId user) {
      return cache_[user.index()];
    }
    [[nodiscard]] const vod::VideoCache& cache(UserId user) const {
      return cache_[user.index()];
    }
    [[nodiscard]] sim::EventHandle& probeTimer(UserId user) {
      return probeTimer_[user.index()];
    }

   private:
    std::uint32_t innerCap_ = 0;
    std::uint32_t interCap_ = 0;
    std::vector<ChannelId> channel_;
    std::vector<CategoryId> category_;
    std::vector<ChannelId> lastChannel_;
    std::vector<CategoryId> lastCategory_;
    std::vector<std::uint32_t> innerCount_;
    std::vector<std::uint32_t> interCount_;
    std::vector<std::uint32_t> lastInnerCount_;
    std::vector<std::uint32_t> lastInterCount_;
    std::vector<UserId> innerArena_;      // nodes * innerCap_ slots
    std::vector<UserId> interArena_;      // nodes * interCap_ slots
    std::vector<UserId> lastInnerArena_;  // nodes * innerCap_ slots
    std::vector<UserId> lastInterArena_;  // nodes * interCap_ slots
    std::vector<vod::VideoCache> cache_;
    std::vector<sim::EventHandle> probeTimer_;
  };

  enum class SearchPhase { kChannel, kCategory };

  struct Search {
    UserId user;
    VideoId video;
    SearchPhase phase = SearchPhase::kChannel;
    bool prefetchHit = false;
    std::uint32_t attempt = 0;  // overlay passes already exhausted
    sim::SimTime requestTime = 0;
    sim::EventHandle deadline;
  };

  // --- join/leave ------------------------------------------------------------
  // Ensures the node is joined to `channel`'s overlay (and its category's
  // cluster), then begins the search for `video`. May involve a server
  // round trip (kJoinAtServer / kJoinReply).
  void ensureJoinedThenSearch(UserId user, ChannelId channel, VideoId video,
                              bool prefetchHit, sim::SimTime requestTime);
  // Tag-rebuilt message bodies (see the kind list above).
  void joinAtServer(const sim::EventTag& tag);
  void applyJoinReply(const sim::EventTag& tag);
  void gossipAtHelper(const sim::EventTag& tag);
  void repairAtServer(const sim::EventTag& tag);
  // kGossipReply / kRepairReply: link to the offered inner and inter
  // candidates, up to the N_l / N_h budgets.
  void applyLinkReply(const sim::EventTag& tag);
  // At the server: one online entry point per sibling channel of
  // `category`, capped at N_h, channels visited in random order.
  [[nodiscard]] std::vector<UserId> siblingEntryPoints(UserId user,
                                                       ChannelId channel,
                                                       CategoryId category);
  void leaveOverlays(UserId user, bool notifyNeighbors);
  void sendGoodbyes(UserId user, std::span<const UserId> links,
                    bool innerList);
  // Links a and b in their inner (or inter) lists, healing a one-sided
  // entry; refused while either side that lacks the link is at the hard
  // cap 2*N_l (or 2*N_h).
  void connect(UserId a, UserId b, bool innerList);
  void dropLink(UserId from, UserId gone);
  void onGoodbye(UserId at, UserId from, bool innerList);

  // --- search ------------------------------------------------------------------
  void beginSearch(UserId user, VideoId video, bool prefetchHit,
                   sim::SimTime requestTime);
  // Floods the channel phase of an existing search record and arms its
  // phase deadline (shared by the initial attempt and backoff retries).
  void floodChannelPhase(std::uint64_t queryId);
  // Backoff expired: re-run both overlay phases under a fresh query id
  // (the old id's dedup stamps would suppress the re-flood).
  void retrySearch(std::uint64_t staleId);
  void floodChannelQuery(UserId origin, UserId at, VideoId video,
                         std::uint64_t queryId, int ttl);
  void enterCategoryPhase(std::uint64_t queryId);
  void onSearchHit(std::uint64_t queryId, UserId provider);
  void fallbackToServer(std::uint64_t queryId);
  void resolveSearch(std::uint64_t queryId, UserId provider);
  void startDownload(UserId user, VideoId video, UserId provider,
                     bool prefetchHit, sim::SimTime requestTime);

  // --- prefetch ------------------------------------------------------------------
  void prefetchPopular(UserId user, ChannelId channel, VideoId watching);

  // --- audit ------------------------------------------------------------------
  // The per-node rules (links, registrations held, cache) and the
  // per-registration rule; both audits run each rule through these.
  void auditNode(vod::AuditReport& report, UserId user) const;
  void auditRegistration(vod::AuditReport& report, UserId member,
                         ChannelId channel) const;

  // --- maintenance ------------------------------------------------------------
  void probeNeighbors(UserId user);
  void repairLinks(UserId user);
  // Neighbor-of-neighbor repair (config.gossipRepair); returns false when
  // no live neighbor can help and the server path should run instead.
  bool gossipRepairLinks(UserId user);

  vod::SystemContext& ctx_;
  vod::TransferManager& transfers_;
  SubscriberDirectory directory_;
  NodeStore store_;
  vod::SearchTable<Search> searches_;
};

}  // namespace st::core

#include "baselines/nettube.h"

#include <algorithm>
#include <cassert>

namespace st::baselines {

namespace {
bool contains(const std::vector<UserId>& list, UserId value) {
  return std::find(list.begin(), list.end(), value) != list.end();
}

}  // namespace

using sim::hi32;
using sim::lo32;
using sim::pack;

NetTubeSystem::NetTubeSystem(vod::SystemContext& ctx,
                             vod::TransferManager& transfers)
    : ctx_(ctx),
      transfers_(transfers),
      searches_(ctx.catalog().userCount(), ctx.catalog().videoCount()) {
  overlays_.resize(ctx.catalog().userCount());
  neighborMark_.resize(ctx.catalog().userCount());
  probeTimer_.resize(ctx.catalog().userCount());
  cache_.reserve(ctx.catalog().userCount());
  for (std::size_t i = 0; i < ctx.catalog().userCount(); ++i) {
    cache_.emplace_back(ctx.config().cacheCapacityVideos,
                        ctx.config().prefetchCacheSlots);
  }
  transfers_.setClient(this);
  ctx_.sim().registerFactory(sim::Component::kNetTube, this);
}

NetTubeSystem::~NetTubeSystem() {
  if (ctx_.sim().factory(sim::Component::kNetTube) == this) {
    ctx_.sim().registerFactory(sim::Component::kNetTube, nullptr);
  }
}

sim::Callback NetTubeSystem::rebuild(const sim::EventTag& tag) {
  switch (tag.kind) {
    case kProbeEvent: {
      const UserId user{lo32(tag.a)};
      return [this, user] { probeNeighbors(user); };
    }
    case kDropLinksEvent: {
      const UserId at{tag.a32};
      const UserId from{lo32(tag.a)};
      return ctx_.wrapStage(tag, [this, at, from] { dropAllLinks(at, from); });
    }
    case kInventoryAtServer:
      return ctx_.wrapStage(tag, [this, tag] { inventoryAtServer(tag); });
    case kFloodHop: {
      const UserId at{tag.a32};
      const UserId origin{lo32(tag.a)};
      const VideoId video{lo32(tag.b)};
      const std::uint64_t queryId = tag.c;
      const int ttl = static_cast<int>(tag.d);
      return ctx_.wrapStage(tag, [this, origin, at, video, queryId, ttl] {
        floodQuery(origin, at, video, queryId, ttl);
      });
    }
    case kSearchHit: {
      const std::uint64_t queryId = tag.a;
      const UserId provider{lo32(tag.b)};
      return ctx_.wrapStage(
          tag, [this, queryId, provider] { onSearchHit(queryId, provider); });
    }
    case kAskDirectory: {
      const std::uint64_t queryId = tag.a;
      return [this, queryId] { askServerDirectory(queryId); };
    }
    case kDirectoryAtServer:
      return ctx_.wrapStage(tag, [this, tag] { directoryAtServer(tag); });
    case kDirectoryReply:
      // Carries a payload: the online check lives inside the handler so an
      // offline receiver still frees it (wrapStage would silently drop).
      return [this, tag] { applyDirectoryReply(tag); };
    case kServerWatch:
      return ctx_.wrapStage(
          tag, [this, tag] { transfers_.startServerWatch(tag); });
    case kCachedAtServer:
      return ctx_.wrapStage(tag, [this, tag] { cachedAtServer(tag); });
    case kCachedReply:
      return [this, tag] { applyCachedReply(tag); };  // payload, see above
    default:
      assert(false && "unknown NetTube event kind");
      return [] {};
  }
}

void NetTubeSystem::discard(const sim::EventTag& tag) {
  // A lost message must free the payload its closure would have consumed.
  // If-live: under `dup:` fault windows the dropped message can be the
  // second copy of one whose first delivery already consumed the payload.
  switch (tag.kind) {
    case kInventoryAtServer:
    case kDirectoryReply:
    case kCachedReply:
      ctx_.freePayloadIfLive(tag.b);
      break;
    case kServerWatch:
      transfers_.discardServerWatch(tag);
      break;
    default:
      break;
  }
}

bool NetTubeSystem::onRestored(const sim::EventTag& tag,
                               sim::EventHandle handle) {
  const auto user = [this](std::uint64_t word) {
    return ctx_.validUser(lo32(word));
  };
  const auto video = [this](std::uint64_t word) {
    return ctx_.validVideo(lo32(word));
  };
  // Reply payloads list users; the inventory lists the sender's videos.
  const auto users = [this](std::uint64_t payloadId) {
    return ctx_.validPayload(payloadId, ctx_.catalog().userCount(), 0);
  };
  if (!ctx_.validStage(tag)) return false;
  switch (tag.kind) {
    case kProbeEvent:
      if (!user(tag.a)) return false;
      probeTimer_[lo32(tag.a)] = handle;
      return true;
    case kAskDirectory: {
      Search* search = searches_.find(tag.a);
      if (search == nullptr) return false;
      search->deadline = handle;
      return true;
    }
    case kDropLinksEvent:
      return user(tag.a32) && user(tag.a);
    case kInventoryAtServer:
      return user(tag.a) &&
             ctx_.validPayload(tag.b, ctx_.catalog().videoCount(), 0);
    case kFloodHop:
      return user(tag.a32) && user(tag.a) && video(tag.b);
    case kSearchHit:
      return user(tag.b);
    case kDirectoryAtServer:
    case kCachedAtServer:
      return user(tag.a) && video(tag.b);
    case kServerWatch:
      return transfers_.validServerWatch(tag);
    case kDirectoryReply:
      return user(tag.a32) && users(tag.b);
    case kCachedReply:
      return user(tag.a32) && video(tag.a) && users(tag.b);
    default:
      return false;
  }
}

vod::VodSystem::NodeStats NetTubeSystem::nodeStats(UserId user) const {
  // Per-overlay links are counted separately even when they join the same
  // pair of nodes — that surplus is the redundancy §IV-C calls out ("two
  // nodes may be connected by redundant links; each link corresponds to
  // one video overlay").
  NodeStats stats;
  const std::uint32_t mark = nextNeighborMark();
  for (const auto& [video, links] : overlays_[user.index()]) {
    stats.links += links.size();
    for (const UserId n : links) {
      if (neighborMark_[n.index()] == mark) {
        ++stats.redundantLinks;  // pair already linked via another overlay
      } else {
        neighborMark_[n.index()] = mark;
      }
    }
  }
  return stats;
}

std::vector<UserId> NetTubeSystem::allNeighbors(
    const Overlays& overlays) const {
  const std::uint32_t mark = nextNeighborMark();
  std::vector<UserId> result;
  for (const auto& [video, links] : overlays) {
    for (const UserId n : links) {
      if (neighborMark_[n.index()] == mark) continue;
      neighborMark_[n.index()] = mark;
      result.push_back(n);
    }
  }
  return result;
}

std::uint32_t NetTubeSystem::nextNeighborMark() const {
  if (++neighborGeneration_ == 0) {
    // Wrapped: clear every mark so none from 2^32 walks ago can match.
    std::fill(neighborMark_.begin(), neighborMark_.end(), 0);
    neighborGeneration_ = 1;
  }
  return neighborGeneration_;
}

void NetTubeSystem::connectOverlayLink(UserId a, UserId b, VideoId video) {
  if (a == b) return;
  // Look up before inserting: a refused connect must not leave an empty
  // overlay entry behind (it would distort overlayCount and the joining
  // heuristic in askServerDirectory).
  Overlays& na = overlays_[a.index()];
  Overlays& nb = overlays_[b.index()];
  const auto ia = na.find(video);
  if (ia != na.end() && contains(ia->second, b)) return;
  const std::size_t cap = ctx_.config().linksPerVideoOverlay;
  if (ia != na.end() && ia->second.size() >= cap) return;
  const auto ib = nb.find(video);
  if (ib != nb.end() && ib->second.size() >= cap) return;
  na[video].push_back(b);
  nb[video].push_back(a);
}

void NetTubeSystem::dropAllLinks(UserId holder, UserId gone) {
  Overlays& overlays = overlays_[holder.index()];
  for (auto it = overlays.begin(); it != overlays.end();) {
    auto& links = it->second;
    const auto linkIt = std::find(links.begin(), links.end(), gone);
    if (linkIt != links.end()) links.erase(linkIt);
    it = links.empty() ? overlays.erase(it) : std::next(it);
  }
}

void NetTubeSystem::onLogin(UserId user) {
  overlays_[user.index()].clear();
  // Report the cached inventory so the server can direct other nodes here
  // ("users need to report the changes of videos they watch", §IV-A).
  reportInventory(user);
  probeTimer_[user.index()] = ctx_.sim().schedulePeriodicTagged(
      ctx_.config().probeInterval,
      sim::makeTag(sim::Component::kNetTube, kProbeEvent, user.value()));
}

void NetTubeSystem::reportInventory(UserId user) {
  const vod::VideoCache& cache = cache_[user.index()];
  if (cache.videoList().empty()) return;
  vod::SystemContext::Payload payload;
  for (const VideoId video : cache.videoList()) {
    payload.u.push_back(video.value());
  }
  const std::uint64_t payloadId = ctx_.stashPayload(std::move(payload));
  ctx_.sendToServer(user,
                    sim::makeTag(sim::Component::kNetTube, kInventoryAtServer,
                                 user.value(), payloadId));
}

void NetTubeSystem::inventoryAtServer(const sim::EventTag& tag) {
  const UserId user{lo32(tag.a)};
  const std::optional<vod::SystemContext::Payload> payload =
      ctx_.receivePayload(tag.b, user);
  if (!payload) return;
  for (const std::uint32_t raw : payload->u) directory_.add(user, VideoId{raw});
}

void NetTubeSystem::onLogout(UserId user, bool graceful) {
  ctx_.sim().cancel(probeTimer_[user.index()]);
  probeTimer_[user.index()] = sim::EventHandle{};

  searches_.abandon(user, ctx_.sim());

  if (graceful) {
    for (const UserId n : allNeighbors(overlays_[user.index()])) {
      ctx_.sendUser(user, n,
                    sim::makeTag(sim::Component::kNetTube, kDropLinksEvent,
                                 user.value()));
    }
  }
  directory_.removeAll(user);
  overlays_[user.index()].clear();
}

void NetTubeSystem::requestVideo(UserId user, VideoId video) {
  const vod::VideoCache& cache = cache_[user.index()];
  const sim::SimTime requestTime = ctx_.sim().now();

  if (cache.contains(video)) {
    ctx_.metrics().countCacheHit();
    notifyPlayback(user, video, 0, false);
    prefetchFromNeighbors(user);
    return;
  }

  const bool prefetchHit = cache.hasFirstChunk(video);
  if (prefetchHit) {
    ctx_.metrics().countPrefetchHit();
    ST_TRACE(ctx_.trace(), ctx_.sim().now(), kPrefetchHit, user.value(),
             video.value(), 0);
    notifyPlayback(user, video, 0, false);
    prefetchFromNeighbors(user);
  }
  beginSearch(user, video, prefetchHit, requestTime);
}

void NetTubeSystem::beginSearch(UserId user, VideoId video, bool prefetchHit,
                                sim::SimTime requestTime) {
  if (!ctx_.isOnline(user)) return;
  searches_.abandon(user, ctx_.sim());

  Search search;
  search.user = user;
  search.video = video;
  search.prefetchHit = prefetchHit;
  search.requestTime = requestTime;
  const std::uint64_t queryId = searches_.start(search);

  std::vector<UserId> neighbors = allNeighbors(overlays_[user.index()]);
  if (neighbors.empty()) {
    // First video of a session: straight to the server directory, exactly
    // as NetTube's join works.
    askServerDirectory(queryId);
    return;
  }
  forwardQuery(user, user, video, queryId, std::move(neighbors),
               ctx_.config().ttl);
  searches_.find(queryId)->deadline = ctx_.sim().scheduleTagged(
      ctx_.config().searchPhaseTimeout,
      sim::makeTag(sim::Component::kNetTube, kAskDirectory, queryId));
}

void NetTubeSystem::floodQuery(UserId origin, UserId at, VideoId video,
                               std::uint64_t queryId, int ttl) {
  if (searches_.seen(at, queryId)) return;
  if (cache_[at.index()].contains(video)) {
    ctx_.sendUser(at, origin,
                  sim::makeTag(sim::Component::kNetTube, kSearchHit, queryId,
                               at.value()));
    return;
  }
  if (ttl <= 1) return;
  forwardQuery(origin, at, video, queryId,
               allNeighbors(overlays_[at.index()]), ttl - 1);
}

void NetTubeSystem::forwardQuery(UserId origin, UserId at, VideoId video,
                                 std::uint64_t queryId,
                                 std::vector<UserId> neighbors, int ttl) {
  if (neighbors.size() > ctx_.config().linksPerVideoOverlay) {
    ctx_.rng().shuffle(neighbors);
    neighbors.resize(ctx_.config().linksPerVideoOverlay);
  }
  for (const UserId n : neighbors) {
    if (n == origin) continue;  // never back to the searcher
    if (!ctx_.neighborAllowed(at, n)) continue;  // breaker open at this hop
    ctx_.sendUser(at, n,
                  sim::makeTag(sim::Component::kNetTube, kFloodHop,
                               origin.value(), video.value(), queryId,
                               static_cast<std::uint64_t>(ttl)));
  }
}

void NetTubeSystem::onSearchHit(std::uint64_t queryId, UserId provider) {
  const Search* found = searches_.find(queryId);
  if (found == nullptr) return;
  if (!ctx_.isOnline(provider)) {
    // The responder died between answering and our receipt — suspicious.
    ctx_.reportNeighborFailure(found->user, provider);
    return;
  }
  ctx_.metrics().countChannelHit();  // peer hit via overlay flooding
  resolveSearch(queryId, provider, {provider});
}

void NetTubeSystem::askServerDirectory(std::uint64_t queryId) {
  Search* found = searches_.find(queryId);
  if (found == nullptr) return;
  Search& search = *found;
  ctx_.sim().cancel(search.deadline);
  search.deadline = sim::EventHandle{};
  const UserId user = search.user;
  const VideoId video = search.video;
  // The directory only helps when a node *first* requests a video (the
  // NetTube join: "the server directs it to connect to the providers in the
  // overlay of the video"). A node already inside overlays that missed its
  // 2-hop query "resorts to the server" — i.e. the server serves the video
  // itself. This is precisely the availability limitation §IV-C contrasts
  // with SocialTube.
  const bool joining = overlays_[user.index()].empty();

  ctx_.sendToServer(user,
                    sim::makeTag(sim::Component::kNetTube, kDirectoryAtServer,
                                 user.value(),
                                 pack(video.value(), joining ? 1 : 0),
                                 queryId));
}

void NetTubeSystem::directoryAtServer(const sim::EventTag& tag) {
  const UserId user{lo32(tag.a)};
  const VideoId video{lo32(tag.b)};
  const bool joining = hi32(tag.b) != 0;
  const std::uint64_t queryId = tag.c;
  std::vector<UserId> candidates;
  if (joining) {
    candidates = directory_.randomMembers(
        video, ctx_.config().linksPerVideoOverlay, user, ctx_.rng());
    // The directory only lists online holders, but double-check liveness.
    std::erase_if(candidates, [this](UserId u) { return !ctx_.isOnline(u); });
    // Breaker filtering happens after the RNG draws so that a disabled
    // board leaves the random stream untouched.
    std::erase_if(candidates, [this, user](UserId u) {
      return !ctx_.neighborAllowed(user, u);
    });
  }
  vod::SystemContext::Payload payload;
  payload.u = vod::fromUsers(candidates);
  const std::uint64_t payloadId = ctx_.stashPayload(std::move(payload));
  ctx_.sendFromServer(user, sim::makeTag(sim::Component::kNetTube,
                                         kDirectoryReply, queryId, payloadId));
}

void NetTubeSystem::applyDirectoryReply(const sim::EventTag& tag) {
  const UserId user{tag.a32};
  const std::uint64_t queryId = tag.a;
  const std::optional<vod::SystemContext::Payload> payload =
      ctx_.receivePayload(tag.b, user);
  if (!payload) return;
  const Search* search = searches_.find(queryId);
  if (search == nullptr) return;
  const std::vector<UserId> candidates = vod::toUsers(payload->u);
  if (candidates.empty()) {
    ctx_.metrics().countServerFallback();
    ST_TRACE(ctx_.trace(), ctx_.sim().now(), kServerFallback,
             search->user.value(), search->video.value(), 0);
    resolveSearch(queryId, UserId::invalid(), {});
    return;
  }
  ctx_.metrics().countCategoryHit();  // directory-mediated peer hit
  resolveSearch(queryId, candidates.front(), candidates);
}

void NetTubeSystem::resolveSearch(std::uint64_t queryId, UserId provider,
                                  const std::vector<UserId>& overlayPeers) {
  assert(searches_.find(queryId) != nullptr);
  const Search search = searches_.take(queryId);
  ctx_.sim().cancel(search.deadline);
  if (!ctx_.isOnline(search.user)) return;

  // Join the video's overlay by linking to the discovered holders.
  for (const UserId peer : overlayPeers) {
    if (!ctx_.neighborAllowed(search.user, peer)) continue;
    if (ctx_.isOnline(peer)) {
      connectOverlayLink(search.user, peer, search.video);
    }
  }
  if (provider.valid() && !ctx_.isOnline(provider)) {
    provider = UserId::invalid();
  }
  startDownload(search.user, search.video, provider, search.prefetchHit,
                search.requestTime);
}

void NetTubeSystem::startDownload(UserId user, VideoId video, UserId provider,
                                  bool prefetchHit, sim::SimTime requestTime) {
  vod::TransferManager::WatchRequest request;
  request.user = user;
  request.video = video;
  request.provider = provider;
  request.firstChunkCached = prefetchHit;
  request.requestTime = requestTime;
  // Swarming (extension): stripe across overlay neighbors holding the video.
  if (ctx_.config().bodySources > 1) {
    for (const UserId n : allNeighbors(overlays_[user.index()])) {
      if (request.extraProviders.size() + 1 >= ctx_.config().bodySources) {
        break;
      }
      if (n == provider) continue;
      if (!ctx_.neighborAllowed(user, n)) continue;  // breaker open
      if (ctx_.isOnline(n) && cache_[n.index()].contains(video)) {
        request.extraProviders.push_back(n);
      }
    }
  }
  request.reportPlayback = !prefetchHit;

  if (!provider.valid()) {
    transfers_.requestFromServer(sim::Component::kNetTube, kServerWatch,
                                 std::move(request));
    return;
  }
  transfers_.startWatch(std::move(request));
}

void NetTubeSystem::watchPlaybackReady(UserId user, VideoId video,
                                       sim::SimTime delay, bool timedOut) {
  notifyPlayback(user, video, delay, timedOut);
  if (!timedOut) prefetchFromNeighbors(user);
}

void NetTubeSystem::watchFinished(UserId user, VideoId video, bool complete) {
  if (complete) onVideoCached(user, video);
}

void NetTubeSystem::prefetchArrived(UserId user, VideoId video, bool) {
  if (ctx_.isOnline(user)) {
    cache_[user.index()].insertFirstChunk(video);
  }
}

void NetTubeSystem::onVideoCached(UserId user, VideoId video) {
  cache_[user.index()].insert(video);
  // Report the new copy so the directory can hand this node out as a
  // provider (NetTube's per-video reporting overhead), and take a place in
  // the video's overlay: the server introduces current members and the node
  // links to them ("when a node finishes watching a video, it remains in
  // its overlay", §I). This is what makes NetTube's link count grow with
  // every video watched (Fig. 15/18).
  ctx_.sendToServer(user,
                    sim::makeTag(sim::Component::kNetTube, kCachedAtServer,
                                 user.value(), video.value()));
}

void NetTubeSystem::cachedAtServer(const sim::EventTag& tag) {
  const UserId user{lo32(tag.a)};
  const VideoId video{lo32(tag.b)};
  if (!ctx_.isOnline(user)) return;
  std::vector<UserId> members = directory_.randomMembers(
      video, ctx_.config().linksPerVideoOverlay, user, ctx_.rng());
  directory_.add(user, video);
  vod::SystemContext::Payload payload;
  payload.u = vod::fromUsers(members);
  const std::uint64_t payloadId = ctx_.stashPayload(std::move(payload));
  ctx_.sendFromServer(user,
                      sim::makeTag(sim::Component::kNetTube, kCachedReply,
                                   video.value(), payloadId));
}

void NetTubeSystem::applyCachedReply(const sim::EventTag& tag) {
  const UserId user{tag.a32};
  const VideoId video{lo32(tag.a)};
  const std::optional<vod::SystemContext::Payload> payload =
      ctx_.receivePayload(tag.b, user);
  if (!payload) return;
  for (const UserId member : vod::toUsers(payload->u)) {
    if (!ctx_.neighborAllowed(user, member)) continue;
    if (ctx_.isOnline(member)) {
      connectOverlayLink(user, member, video);
    }
  }
}

void NetTubeSystem::prefetchFromNeighbors(UserId user) {
  if (!ctx_.config().prefetchEnabled) return;
  if (!ctx_.isOnline(user)) return;
  const vod::VideoCache& cache = cache_[user.index()];
  std::vector<UserId> neighbors = allNeighbors(overlays_[user.index()]);
  std::erase_if(neighbors, [this](UserId n) { return !ctx_.isOnline(n); });
  if (neighbors.empty()) return;
  ctx_.rng().shuffle(neighbors);

  // NetTube prefetches *randomly* from neighbors' watched videos — the
  // strategy §IV-B argues is less accurate than popularity ranking.
  std::size_t issued = 0;
  for (const UserId n : neighbors) {
    if (issued >= ctx_.config().prefetchCount) break;
    if (!ctx_.neighborAllowed(user, n)) continue;  // breaker open
    const VideoId candidate = cache_[n.index()].randomVideo(ctx_.rng());
    if (!candidate.valid()) continue;
    if (cache.contains(candidate) || cache.hasFirstChunk(candidate)) {
      continue;
    }
    transfers_.startPrefetch(user, candidate, n);
    ++issued;
  }
}

void NetTubeSystem::reconcile(UserId user) {
  if (!ctx_.isOnline(user)) return;
  // Re-announce: the crash tore down every directory registration, so the
  // server no longer lists this node as a provider for anything it holds.
  // Re-send the full cached inventory (directory adds are idempotent, so a
  // rejoin racing the login-time report is harmless).
  reportInventory(user);
  // Overlay-link audit: one immediate probe sweep drops links whose far end
  // died or dropped us while this node was dark, without waiting out the
  // periodic probe interval.
  probeNeighbors(user);
}

void NetTubeSystem::probeNeighbors(UserId user) {
  if (!ctx_.isOnline(user)) return;
  Overlays& overlays = overlays_[user.index()];
  // A live neighbor's probe response includes whether it still sits in this
  // overlay, so besides dead neighbors the sweep drops links the far end no
  // longer reciprocates (a lost goodbye, or a relogin that reset the peer's
  // overlays while our side still remembered the old link).
  for (auto it = overlays.begin(); it != overlays.end();) {
    const VideoId video = it->first;
    auto& links = it->second;
    for (std::size_t i = 0; i < links.size();) {
      ctx_.metrics().countProbe();
      const UserId n = links[i];
      ST_TRACE(ctx_.trace(), ctx_.sim().now(), kProbe, user.value(),
               n.value(), 0);
      bool stale = !ctx_.isOnline(n);
      if (!stale) {
        const Overlays& peer = overlays_[n.index()];
        const auto peerIt = peer.find(video);
        stale = peerIt == peer.end() || !contains(peerIt->second, user);
      }
      if (stale) {
        ctx_.reportNeighborFailure(user, n);
        links.erase(links.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      ctx_.reportNeighborSuccess(user, n);
      ++i;
    }
    it = links.empty() ? overlays.erase(it) : std::next(it);
  }
}

// --- invariant audit ----------------------------------------------------------

void NetTubeSystem::auditInvariants(vod::AuditReport& report) const {
  for (std::size_t i = 0; i < overlays_.size(); ++i) {
    auditNode(report, UserId{static_cast<std::uint32_t>(i)});
  }
  directory_.forEach([&](UserId member, VideoId video) {
    auditRegistration(report, member, video);
  });
}

void NetTubeSystem::auditUser(vod::AuditReport& report, UserId user) const {
  auditNode(report, user);
  // Another node's overlays raise only two rules about an online `user`: a
  // one-sided link to it (nt.asym_link) and a duplicate entry for it
  // (nt.dup_link). One pass over every overlay list finds the nodes
  // listing it.
  for (std::size_t i = 0; i < overlays_.size(); ++i) {
    const UserId holder{static_cast<std::uint32_t>(i)};
    if (holder == user) continue;
    for (const auto& [video, links] : overlays_[i]) {
      if (contains(links, user)) {
        auditNode(report, holder);
        break;
      }
    }
  }
  directory_.forEachKeyOf(user, [&](VideoId video) {
    auditRegistration(report, user, video);
  });
}

void NetTubeSystem::auditNode(vod::AuditReport& report, UserId user) const {
  const std::size_t cap = ctx_.config().linksPerVideoOverlay;
  const Overlays& overlays = overlays_[user.index()];
  if (!ctx_.isOnline(user)) {
    if (!overlays.empty()) {
      report.violate("nt.offline_has_links", user,
                     static_cast<std::uint32_t>(overlays.size()));
    }
  } else {
    for (const auto& [video, links] : overlays) {
      if (links.empty()) {
        report.violate("nt.empty_overlay", user, video.value());
      }
      if (links.size() > cap) {
        report.violate("nt.overlay_cap", user, video.value());
      }
      for (std::size_t j = 0; j < links.size(); ++j) {
        const UserId n = links[j];
        if (n == user) {
          report.violate("nt.self_link", user, video.value());
          continue;
        }
        if (std::find(links.begin(),
                      links.begin() + static_cast<std::ptrdiff_t>(j), n) !=
            links.begin() + static_cast<std::ptrdiff_t>(j)) {
          report.violate("nt.dup_link", user, n);
          continue;
        }
        if (!ctx_.isOnline(n)) {
          if (ctx_.offlineSince(n) < report.staleBefore()) {
            report.violate("nt.stale_link", user, n);
          }
          continue;
        }
        const Overlays& peer = overlays_[n.index()];
        const auto peerIt = peer.find(video);
        if (peerIt == peer.end() || !contains(peerIt->second, user)) {
          report.violateTransient("nt.asym_link", user, n);
        }
      }
    }
  }
  for (const VideoId video : cache_[user.index()].videoList()) {
    if (!ctx_.isReleased(video)) {
      report.violate("nt.cache_unreleased", user, video.value());
    }
  }
}

void NetTubeSystem::auditRegistration(vod::AuditReport& report,
                                      UserId member, VideoId video) const {
  // Bounded caches evict without telling the server (the directory drifts by
  // design), so cache/directory agreement is only a contract when the cache
  // is unbounded — the paper's setting.
  const bool unboundedCache = ctx_.config().cacheCapacityVideos == 0;
  if (!ctx_.isOnline(member)) {
    report.violate("nt.directory_offline", member, video.value());
  } else if (unboundedCache && !cache_[member.index()].contains(video)) {
    report.violate("nt.directory_uncached", member, video.value());
  }
}

void NetTubeSystem::injectLinkForTest(UserId user, UserId neighbor,
                                      VideoId video) {
  overlays_[user.index()][video].push_back(neighbor);
}

void NetTubeSystem::injectRegistrationForTest(UserId user, VideoId video) {
  directory_.add(user, video);
}

// --- checkpoint/restore --------------------------------------------------------

void NetTubeSystem::saveState(snapshot::Writer& w) const {
  w.section(0x5454454e);  // "NETT"
  directory_.saveState(w);
  w.u64(overlays_.size());
  for (std::size_t i = 0; i < overlays_.size(); ++i) {
    w.u64(overlays_[i].size());
    for (const auto& [video, links] : overlays_[i]) {
      w.u32(video.value());
      w.u64(links.size());
      for (const UserId n : links) w.u32(n.value());
    }
    cache_[i].saveState(w);
  }
  searches_.saveState(w, [](snapshot::Writer& w, const Search& search) {
    w.boolean(search.prefetchHit);
    w.i64(search.requestTime);
  });
}

bool NetTubeSystem::loadState(snapshot::Reader& r) {
  r.section(0x5454454e, "NetTube");
  if (!directory_.loadState(r)) return false;
  const std::size_t nodeCount = r.count(4);
  if (!r.ok() || nodeCount != overlays_.size()) {
    r.fail("NetTube node count mismatch");
    return false;
  }
  for (std::size_t node = 0; node < overlays_.size(); ++node) {
    Overlays& overlays = overlays_[node];
    overlays.clear();
    const std::size_t overlayCount = r.count(4 + 8);
    for (std::size_t i = 0; i < overlayCount; ++i) {
      const VideoId video{
          r.id(ctx_.catalog().videoCount(), "NetTube overlay video")};
      if (!r.ok()) return false;
      std::vector<UserId>& links = overlays[video];
      const std::size_t linkCount = r.count(4);
      for (std::size_t j = 0; j < linkCount; ++j) {
        links.push_back(UserId{r.id(overlays_.size(), "NetTube overlay link")});
      }
    }
    if (!cache_[node].loadState(r, ctx_.catalog().videoCount())) {
      return false;
    }
    probeTimer_[node] = sim::EventHandle{};
    if (!r.ok()) return false;
  }
  return searches_.loadState(
      r, "NetTube", [](snapshot::Reader& in, Search& search) {
        search.prefetchHit = in.boolean();
        search.requestTime = in.i64();
        return true;
      });
}

}  // namespace st::baselines

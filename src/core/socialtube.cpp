#include "core/socialtube.h"

#include <algorithm>
#include <cassert>

namespace st::core {

namespace {
void removeFrom(LinkList list, UserId value) {
  const auto it = std::find(list.begin(), list.end(), value);
  if (it != list.end()) {
    list.eraseAt(static_cast<std::size_t>(it - list.begin()));
  }
}

bool contains(std::span<const UserId> list, UserId value) {
  return std::find(list.begin(), list.end(), value) != list.end();
}

}  // namespace

using sim::hi32;
using sim::lo32;
using sim::pack;

void SocialTubeSystem::NodeStore::init(std::size_t nodes,
                                       std::uint32_t innerCap,
                                       std::uint32_t interCap,
                                       std::size_t cacheVideos,
                                       std::size_t prefetchSlots) {
  innerCap_ = innerCap;
  interCap_ = interCap;
  channel_.assign(nodes, ChannelId::invalid());
  category_.assign(nodes, CategoryId::invalid());
  lastChannel_.assign(nodes, ChannelId::invalid());
  lastCategory_.assign(nodes, CategoryId::invalid());
  innerCount_.assign(nodes, 0);
  interCount_.assign(nodes, 0);
  lastInnerCount_.assign(nodes, 0);
  lastInterCount_.assign(nodes, 0);
  innerArena_.assign(nodes * innerCap_, UserId::invalid());
  interArena_.assign(nodes * interCap_, UserId::invalid());
  lastInnerArena_.assign(nodes * innerCap_, UserId::invalid());
  lastInterArena_.assign(nodes * interCap_, UserId::invalid());
  probeTimer_.assign(nodes, sim::EventHandle{});
  cache_.clear();
  cache_.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    cache_.emplace_back(cacheVideos, prefetchSlots);
  }
}

SocialTubeSystem::NodeRef SocialTubeSystem::NodeStore::ref(UserId user) {
  const std::size_t i = user.index();
  return NodeRef{
      channel_[i],
      category_[i],
      LinkList(innerArena_.data() + i * innerCap_, &innerCount_[i], innerCap_),
      LinkList(interArena_.data() + i * interCap_, &interCount_[i], interCap_),
      cache_[i],
      lastChannel_[i],
      lastCategory_[i],
      LinkList(lastInnerArena_.data() + i * innerCap_, &lastInnerCount_[i],
               innerCap_),
      LinkList(lastInterArena_.data() + i * interCap_, &lastInterCount_[i],
               interCap_),
      probeTimer_[i]};
}

SocialTubeSystem::ConstNodeRef SocialTubeSystem::NodeStore::ref(
    UserId user) const {
  const std::size_t i = user.index();
  return ConstNodeRef{
      channel_[i],
      category_[i],
      {innerArena_.data() + i * innerCap_, innerCount_[i]},
      {interArena_.data() + i * interCap_, interCount_[i]},
      cache_[i],
      lastChannel_[i],
      lastCategory_[i],
      {lastInnerArena_.data() + i * innerCap_, lastInnerCount_[i]},
      {lastInterArena_.data() + i * interCap_, lastInterCount_[i]}};
}

SocialTubeSystem::SocialTubeSystem(vod::SystemContext& ctx,
                                   vod::TransferManager& transfers)
    : ctx_(ctx),
      transfers_(transfers),
      searches_(ctx.catalog().userCount(), ctx.catalog().videoCount()) {
  store_.init(
      ctx.catalog().userCount(),
      static_cast<std::uint32_t>(ctx.config().innerLinks * 2) + kLinkSlack,
      static_cast<std::uint32_t>(ctx.config().interLinks * 2) + kLinkSlack,
      ctx.config().cacheCapacityVideos, ctx.config().prefetchCacheSlots);
  transfers_.setClient(this);
  ctx_.sim().registerFactory(sim::Component::kSocialTube, this);
}

SocialTubeSystem::~SocialTubeSystem() {
  if (ctx_.sim().factory(sim::Component::kSocialTube) == this) {
    ctx_.sim().registerFactory(sim::Component::kSocialTube, nullptr);
  }
}

sim::Callback SocialTubeSystem::rebuild(const sim::EventTag& tag) {
  switch (tag.kind) {
    case kProbeEvent: {
      const UserId user{lo32(tag.a)};
      return [this, user] { probeNeighbors(user); };
    }
    case kGoodbyeEvent: {
      const UserId at{tag.a32};
      const UserId from{lo32(tag.a)};
      const bool innerList = tag.b != 0;
      return ctx_.wrapStage(
          tag, [this, at, from, innerList] { onGoodbye(at, from, innerList); });
    }
    case kJoinAtServer:
      return ctx_.wrapStage(tag, [this, tag] { joinAtServer(tag); });
    case kJoinReply:
      // Carries a payload: the online check lives inside applyJoinReply so
      // an offline receiver still frees it (wrapStage would silently drop).
      return [this, tag] { applyJoinReply(tag); };
    case kFloodHop: {
      const UserId at{tag.a32};
      const UserId origin{lo32(tag.a)};
      const VideoId video{lo32(tag.b)};
      const std::uint64_t queryId = tag.c;
      const int ttl = static_cast<int>(tag.d);
      return ctx_.wrapStage(tag, [this, origin, at, video, queryId, ttl] {
        floodChannelQuery(origin, at, video, queryId, ttl);
      });
    }
    case kSearchHit: {
      const std::uint64_t queryId = tag.a;
      const UserId provider{lo32(tag.b)};
      return ctx_.wrapStage(
          tag, [this, queryId, provider] { onSearchHit(queryId, provider); });
    }
    case kEnterCategory: {
      const std::uint64_t queryId = tag.a;
      return [this, queryId] { enterCategoryPhase(queryId); };
    }
    case kFallbackEvent: {
      const std::uint64_t queryId = tag.a;
      return [this, queryId] { fallbackToServer(queryId); };
    }
    case kRetryEvent: {
      const std::uint64_t queryId = tag.a;
      return [this, queryId] { retrySearch(queryId); };
    }
    case kServerWatch:
      return ctx_.wrapStage(
          tag, [this, tag] { transfers_.startServerWatch(tag); });
    case kGossipAtHelper:
      return ctx_.wrapStage(tag, [this, tag] { gossipAtHelper(tag); });
    case kGossipReply:
    case kRepairReply:
      return [this, tag] { applyLinkReply(tag); };  // payload, see kJoinReply
    case kRepairAtServer:
      return ctx_.wrapStage(tag, [this, tag] { repairAtServer(tag); });
    default:
      assert(false && "unknown SocialTube event kind");
      return [] {};
  }
}

void SocialTubeSystem::discard(const sim::EventTag& tag) {
  // A lost message must free the payload its closure would have consumed.
  // If-live: under `dup:` fault windows the dropped message can be the
  // second copy of one whose first delivery already consumed the payload.
  switch (tag.kind) {
    case kJoinReply:
    case kGossipReply:
    case kRepairReply:
      ctx_.freePayloadIfLive(tag.b);
      break;
    case kServerWatch:
      transfers_.discardServerWatch(tag);
      break;
    default:
      break;
  }
}

bool SocialTubeSystem::onRestored(const sim::EventTag& tag,
                                  sim::EventHandle handle) {
  const auto user = [this](std::uint64_t word) {
    return ctx_.validUser(lo32(word));
  };
  const auto video = [this](std::uint64_t word) {
    return ctx_.validVideo(lo32(word));
  };
  const auto channel = [this](std::uint64_t word) {
    return ctx_.validChannel(lo32(word));
  };
  // Packed category halves may carry "no category" (CategoryId::invalid()).
  const auto category = [this](std::uint64_t word) {
    return hi32(word) == CategoryId::invalid().value() ||
           ctx_.validCategory(hi32(word));
  };
  // Join, gossip and repair replies carry inner (u) and inter (v) users.
  const auto links = [this](std::uint64_t payloadId) {
    const std::size_t users = ctx_.catalog().userCount();
    return ctx_.validPayload(payloadId, users, users);
  };
  if (!ctx_.validStage(tag)) return false;
  switch (tag.kind) {
    case kProbeEvent:
      if (!user(tag.a)) return false;
      store_.probeTimer(UserId{lo32(tag.a)}) = handle;
      return true;
    case kEnterCategory:
    case kFallbackEvent:
    case kRetryEvent: {
      Search* search = searches_.find(tag.a);
      if (search == nullptr) return false;
      search->deadline = handle;
      return true;
    }
    case kGoodbyeEvent:
      return user(tag.a32) && user(tag.a);
    case kJoinAtServer:
      return user(tag.a) && channel(tag.b) && video(tag.c);
    case kServerWatch:
      return transfers_.validServerWatch(tag);
    case kGossipAtHelper:
      return user(tag.a32) && user(tag.a) && channel(tag.b);
    case kRepairAtServer:
      return user(tag.a) && channel(tag.b) && category(tag.b);
    case kJoinReply:
      return user(tag.a32) && channel(tag.a) && category(tag.a) &&
             video(tag.c) && links(tag.b);
    case kFloodHop:
      return user(tag.a32) && user(tag.a) && video(tag.b);
    case kSearchHit:
      return user(tag.b);
    case kGossipReply:
    case kRepairReply:
      return user(tag.a32) && channel(tag.a) && links(tag.b);
    default:
      return false;
  }
}

vod::VodSystem::NodeStats SocialTubeSystem::nodeStats(UserId user) const {
  const ConstNodeRef node = store_.ref(user);
  return {.links = node.inner.size() + node.inter.size()};
}

// --- links -------------------------------------------------------------------

void SocialTubeSystem::connect(UserId a, UserId b, bool innerList) {
  if (a == b) return;
  const NodeRef na = store_.ref(a);
  const NodeRef nb = store_.ref(b);
  const LinkList la = innerList ? na.inner : na.inter;
  const LinkList lb = innerList ? nb.inner : nb.inter;
  // One side may already hold the link — e.g. b kept a stale entry across
  // a's abrupt departure and relogin. Heal the asymmetry instead of
  // duplicating the entry on the side that still has it.
  const bool aHas = contains(la, b);
  const bool bHas = contains(lb, a);
  if (aHas && bHas) return;
  const std::size_t hardCap =
      (innerList ? ctx_.config().innerLinks : ctx_.config().interLinks) * 2;
  if ((!aHas && la.size() >= hardCap) || (!bHas && lb.size() >= hardCap)) {
    return;
  }
  if (!aHas) la.push_back(b);
  if (!bHas) lb.push_back(a);
}

void SocialTubeSystem::sendGoodbyes(UserId user, std::span<const UserId> links,
                                    bool innerList) {
  for (const UserId n : links) {
    ctx_.sendUser(user, n,
                  sim::makeTag(sim::Component::kSocialTube, kGoodbyeEvent,
                               user.value(), innerList ? 1 : 0));
  }
}

void SocialTubeSystem::dropLink(UserId from, UserId gone) {
  const NodeRef node = store_.ref(from);
  removeFrom(node.inner, gone);
  removeFrom(node.inter, gone);
}

void SocialTubeSystem::onGoodbye(UserId at, UserId from, bool innerList) {
  // Goodbyes race with reconnects: a channel bounce (or a quick relogin) can
  // re-establish the pair while the goodbye is still in flight, and letting
  // the stale message sever the newer link leaves a one-sided entry that the
  // probe sweep then misreads as the neighbor's failure — under churn the
  // pair can stay asymmetric for whole audit rounds and falsely feed the
  // breaker. A goodbye only binds while the sender still has us dropped
  // from the list it announced, and it only severs that list.
  const NodeRef sender = store_.ref(from);
  const bool relinked = innerList ? contains(sender.inner, at)
                                  : contains(sender.inter, at);
  if (relinked) return;
  const NodeRef node = store_.ref(at);
  removeFrom(innerList ? node.inner : node.inter, from);
}

// --- session lifecycle ----------------------------------------------------------

void SocialTubeSystem::onLogin(UserId user) {
  const NodeRef node = store_.ref(user);
  node.inner.clear();
  node.inter.clear();

  // The server registers the user under every subscribed channel — the
  // per-community membership that makes subscribers findable as providers
  // even while they watch elsewhere (§III O2, §IV-A).
  for (const ChannelId subscription :
       ctx_.catalog().user(user).subscriptions) {
    directory_.add(user, subscription);
  }

  // Reconnect to last session's neighborhood first (§IV-A); any survivor
  // keeps us in the overlay without a server join.
  if (node.lastChannel.valid()) {
    node.channel = node.lastChannel;
    node.category = node.lastCategory;
    for (const UserId n : node.lastInner) {
      if (ctx_.isOnline(n) && node.inner.size() < ctx_.config().innerLinks) {
        connect(user, n, /*innerList=*/true);
      }
    }
    for (const UserId n : node.lastInter) {
      if (ctx_.isOnline(n) &&
          node.inter.size() < ctx_.config().interLinks) {
        connect(user, n, /*innerList=*/false);
      }
    }
    directory_.add(user, node.channel);
  }

  node.probeTimer = ctx_.sim().schedulePeriodicTagged(
      ctx_.config().probeInterval,
      sim::makeTag(sim::Component::kSocialTube, kProbeEvent, user.value()));
}

void SocialTubeSystem::onLogout(UserId user, bool graceful) {
  const NodeRef node = store_.ref(user);
  ctx_.sim().cancel(node.probeTimer);
  node.probeTimer = sim::EventHandle{};

  // Abandon any in-flight search.
  searches_.abandon(user, ctx_.sim());

  // Remember the neighborhood for next session's reconnect.
  node.lastChannel = node.channel;
  node.lastCategory = node.category;
  node.lastInner.assign(node.inner);
  node.lastInter.assign(node.inter);

  if (graceful) {
    // Goodbye messages let neighbors update immediately; abrupt departures
    // leave stale links until the next probe round.
    sendGoodbyes(user, node.inner, /*innerList=*/true);
    sendGoodbyes(user, node.inter, /*innerList=*/false);
  }
  // The server learns of the departure either way (graceful goodbye or
  // session tracking) and clears every membership.
  directory_.removeAll(user);
  node.inner.clear();
  node.inter.clear();
  node.channel = ChannelId::invalid();
  node.category = CategoryId::invalid();
}

// --- join ----------------------------------------------------------------------

void SocialTubeSystem::leaveOverlays(UserId user, bool notifyNeighbors) {
  const NodeRef node = store_.ref(user);
  if (notifyNeighbors) sendGoodbyes(user, node.inner, /*innerList=*/true);
  node.inner.clear();
  // Subscription memberships persist; only a temporary membership in a
  // channel the user merely watched is withdrawn.
  if (node.channel.valid() &&
      !ctx_.catalog().isSubscribed(user, node.channel)) {
    directory_.remove(user, node.channel);
  }
}

void SocialTubeSystem::ensureJoinedThenSearch(UserId user, ChannelId channel,
                                              VideoId video, bool prefetchHit,
                                              sim::SimTime requestTime) {
  const NodeRef node = store_.ref(user);
  if (node.channel == channel && !node.inner.empty()) {
    beginSearch(user, video, prefetchHit, requestTime);
    return;
  }

  // Server round trip: the server hands out entry points into the channel
  // overlay and into each sibling channel of the category (§IV-A join).
  ctx_.sendToServer(
      user, sim::makeTag(sim::Component::kSocialTube, kJoinAtServer,
                         user.value(), channel.value(),
                         pack(video.value(), prefetchHit ? 1 : 0),
                         static_cast<std::uint64_t>(requestTime)));
}

void SocialTubeSystem::joinAtServer(const sim::EventTag& tag) {
  const UserId user{lo32(tag.a)};
  const ChannelId channel{lo32(tag.b)};
  if (!ctx_.isOnline(user)) return;
  const trace::Channel& channelInfo = ctx_.catalog().channel(channel);
  const CategoryId category = channelInfo.primaryCategory();

  // The node "builds its links to other nodes in the lower-level channel
  // overlay until the number reaches N_l" (§IV-A) — the server seeds the
  // full budget from the channel's online community.
  std::vector<UserId> innerCandidates = directory_.randomMembers(
      channel, ctx_.config().innerLinks, user, ctx_.rng());

  std::vector<UserId> interCandidates =
      siblingEntryPoints(user, channel, category);

  // The server records the join now (the node reported its move).
  directory_.add(user, channel);

  vod::SystemContext::Payload payload;
  payload.u = vod::fromUsers(innerCandidates);
  payload.v = vod::fromUsers(interCandidates);
  const std::uint64_t payloadId = ctx_.stashPayload(std::move(payload));
  ctx_.sendFromServer(
      user, sim::makeTag(sim::Component::kSocialTube, kJoinReply,
                         pack(channel.value(), category.value()), payloadId,
                         tag.c, tag.d));
}

void SocialTubeSystem::applyJoinReply(const sim::EventTag& tag) {
  const UserId user{tag.a32};
  const ChannelId channel{lo32(tag.a)};
  const CategoryId category{hi32(tag.a)};
  const std::optional<vod::SystemContext::Payload> payload =
      ctx_.receivePayload(tag.b, user);
  if (!payload) return;
  const std::vector<UserId> innerCandidates = vod::toUsers(payload->u);
  const std::vector<UserId> interCandidates = vod::toUsers(payload->v);

  const NodeRef node = store_.ref(user);
  const bool categoryChanged = node.category != category;
  if (node.channel != channel) {
    leaveOverlays(user, /*notifyNeighbors=*/true);
    node.channel = channel;
  }
  directory_.add(user, channel);  // re-assert after any leave
  node.category = category;

  for (const UserId candidate : innerCandidates) {
    if (!ctx_.neighborAllowed(user, candidate)) continue;
    if (ctx_.isOnline(candidate)) connect(user, candidate, /*innerList=*/true);
  }
  if (categoryChanged) {
    sendGoodbyes(user, node.inter, /*innerList=*/false);
    node.inter.clear();
  }
  for (const UserId candidate : interCandidates) {
    if (node.inter.size() >= ctx_.config().interLinks) break;
    if (!ctx_.neighborAllowed(user, candidate)) continue;
    if (ctx_.isOnline(candidate)) connect(user, candidate, /*innerList=*/false);
  }
  beginSearch(user, VideoId{lo32(tag.c)}, hi32(tag.c) != 0,
              static_cast<sim::SimTime>(tag.d));
}

// --- request path -----------------------------------------------------------------

void SocialTubeSystem::requestVideo(UserId user, VideoId video) {
  const NodeRef node = store_.ref(user);
  const sim::SimTime requestTime = ctx_.sim().now();
  const ChannelId channel = ctx_.catalog().video(video).channel;

  if (node.cache.contains(video)) {
    // Full local copy: playback is immediate and free.
    ctx_.metrics().countCacheHit();
    notifyPlayback(user, video, 0, false);
    prefetchPopular(user, channel, video);
    return;
  }

  const bool prefetchHit = node.cache.hasFirstChunk(video);
  if (prefetchHit) {
    // First chunk is local: playback starts immediately; the body still
    // needs a provider.
    ctx_.metrics().countPrefetchHit();
    ST_TRACE(ctx_.trace(), ctx_.sim().now(), kPrefetchHit, user.value(),
             video.value(), 0);
    notifyPlayback(user, video, 0, false);
    prefetchPopular(user, channel, video);
  }

  ensureJoinedThenSearch(user, channel, video, prefetchHit, requestTime);
}

void SocialTubeSystem::beginSearch(UserId user, VideoId video,
                                   bool prefetchHit,
                                   sim::SimTime requestTime) {
  if (!ctx_.isOnline(user)) return;

  // A previous search may still be pending (e.g. a prefetch-hit body search
  // outliving a very short playback); abandon it before starting anew.
  searches_.abandon(user, ctx_.sim());

  Search search;
  search.user = user;
  search.video = video;
  search.prefetchHit = prefetchHit;
  search.requestTime = requestTime;
  floodChannelPhase(searches_.start(search));
}

void SocialTubeSystem::floodChannelPhase(std::uint64_t queryId) {
  Search& search = *searches_.find(queryId);
  search.phase = SearchPhase::kChannel;
  const UserId user = search.user;
  const VideoId video = search.video;
  const NodeRef node = store_.ref(user);

  if (node.inner.empty()) {
    enterCategoryPhase(queryId);
    return;
  }
  for (const UserId n : node.inner) {
    if (!ctx_.neighborAllowed(user, n)) continue;  // breaker open
    ctx_.sendUser(user, n,
                  sim::makeTag(sim::Component::kSocialTube, kFloodHop,
                               user.value(), video.value(), queryId,
                               static_cast<std::uint64_t>(ctx_.config().ttl)));
  }
  searches_.find(queryId)->deadline = ctx_.sim().scheduleTagged(
      ctx_.config().searchPhaseTimeout,
      sim::makeTag(sim::Component::kSocialTube, kEnterCategory, queryId));
}

void SocialTubeSystem::retrySearch(std::uint64_t staleId) {
  if (searches_.find(staleId) == nullptr) return;  // abandoned during backoff
  Search search = searches_.take(staleId);
  search.deadline = sim::EventHandle{};
  // Defensive; logout abandons the search.
  if (!ctx_.isOnline(search.user)) return;
  // Re-insert under a fresh pool id: the dedup stamps of the previous
  // attempt would otherwise suppress the whole re-flood.
  floodChannelPhase(searches_.start(std::move(search)));
}

void SocialTubeSystem::floodChannelQuery(UserId origin, UserId at,
                                         VideoId video, std::uint64_t queryId,
                                         int ttl) {
  const NodeRef node = store_.ref(at);
  if (searches_.seen(at, queryId)) return;
  if (node.cache.contains(video)) {
    ctx_.sendUser(at, origin,
                  sim::makeTag(sim::Component::kSocialTube, kSearchHit,
                               queryId, at.value()));
    return;
  }
  if (ttl <= 1) return;
  for (const UserId n : node.inner) {
    if (n == origin) continue;
    if (!ctx_.neighborAllowed(at, n)) continue;  // breaker open at this hop
    ctx_.sendUser(at, n,
                  sim::makeTag(sim::Component::kSocialTube, kFloodHop,
                               origin.value(), video.value(), queryId,
                               static_cast<std::uint64_t>(ttl - 1)));
  }
}

void SocialTubeSystem::enterCategoryPhase(std::uint64_t queryId) {
  Search* found = searches_.find(queryId);
  if (found == nullptr) return;
  Search& search = *found;
  ctx_.sim().cancel(search.deadline);
  search.phase = SearchPhase::kCategory;

  const NodeRef node = store_.ref(search.user);
  if (node.inter.empty()) {
    fallbackToServer(queryId);
    return;
  }
  for (const UserId n : node.inter) {
    const UserId origin = search.user;
    const VideoId video = search.video;
    if (!ctx_.neighborAllowed(origin, n)) continue;  // breaker open
    // The inter-neighbor searches its own channel overlay with a fresh TTL.
    ctx_.sendUser(origin, n,
                  sim::makeTag(sim::Component::kSocialTube, kFloodHop,
                               origin.value(), video.value(), queryId,
                               static_cast<std::uint64_t>(ctx_.config().ttl)));
  }
  search.deadline = ctx_.sim().scheduleTagged(
      ctx_.config().searchPhaseTimeout,
      sim::makeTag(sim::Component::kSocialTube, kFallbackEvent, queryId));
}

void SocialTubeSystem::onSearchHit(std::uint64_t queryId, UserId provider) {
  Search* found = searches_.find(queryId);
  if (found == nullptr) return;  // already resolved
  if (!ctx_.isOnline(provider)) {
    // The responder died between answering and our receipt — suspicious.
    ctx_.reportNeighborFailure(found->user, provider);
    return;
  }
  Search& search = *found;

  // First responder wins; the requester also connects to it (§IV-A).
  const NodeRef node = store_.ref(search.user);
  if (search.phase == SearchPhase::kChannel) {
    ctx_.metrics().countChannelHit();
    if (node.inner.size() < ctx_.config().innerLinks) {
      connect(search.user, provider, /*innerList=*/true);
    }
  } else {
    ctx_.metrics().countCategoryHit();
    if (node.inter.size() < ctx_.config().interLinks) {
      connect(search.user, provider, /*innerList=*/false);
    }
  }
  resolveSearch(queryId, provider);
}

void SocialTubeSystem::fallbackToServer(std::uint64_t queryId) {
  Search* search = searches_.find(queryId);
  if (search == nullptr) return;
  if (search->attempt < ctx_.config().searchRetries) {
    // Both overlay phases came up dry — often a transient condition (lost
    // floods, neighbors mid-crash). Retry with exponential backoff before
    // burdening the server.
    ctx_.metrics().countSearchRetry();
    const sim::SimTime backoff = ctx_.config().searchRetryBackoff
                                 << search->attempt;
    ++search->attempt;
    search->deadline = ctx_.sim().scheduleTagged(
        backoff,
        sim::makeTag(sim::Component::kSocialTube, kRetryEvent, queryId));
    return;
  }
  ctx_.metrics().countServerFallback();
  ST_TRACE(ctx_.trace(), ctx_.sim().now(), kServerFallback,
           search->user.value(), search->video.value(), 0);
  resolveSearch(queryId, UserId::invalid());
}

void SocialTubeSystem::resolveSearch(std::uint64_t queryId, UserId provider) {
  assert(searches_.find(queryId) != nullptr);
  const Search search = searches_.take(queryId);
  ctx_.sim().cancel(search.deadline);
  if (!ctx_.isOnline(search.user)) return;
  startDownload(search.user, search.video, provider, search.prefetchHit,
                search.requestTime);
}

void SocialTubeSystem::startDownload(UserId user, VideoId video,
                                     UserId provider, bool prefetchHit,
                                     sim::SimTime requestTime) {
  vod::TransferManager::WatchRequest request;
  request.user = user;
  request.video = video;
  request.provider = provider;
  request.firstChunkCached = prefetchHit;
  request.requestTime = requestTime;
  // Swarming (extension): stripe the body across additional neighbors known
  // (via cache digests) to hold the video.
  if (ctx_.config().bodySources > 1) {
    const NodeRef node = store_.ref(user);
    for (const LinkList* links : {&node.inner, &node.inter}) {
      for (const UserId n : *links) {
        if (request.extraProviders.size() + 1 >= ctx_.config().bodySources) {
          break;
        }
        if (n == provider) continue;
        if (!ctx_.neighborAllowed(user, n)) continue;  // breaker open
        if (ctx_.isOnline(n) && store_.cache(n).contains(video)) {
          request.extraProviders.push_back(n);
        }
      }
    }
  }
  request.reportPlayback = !prefetchHit;

  if (!provider.valid()) {
    transfers_.requestFromServer(sim::Component::kSocialTube, kServerWatch,
                                 std::move(request));
    return;
  }
  transfers_.startWatch(std::move(request));
}

void SocialTubeSystem::watchPlaybackReady(UserId user, VideoId video,
                                          sim::SimTime delay, bool timedOut) {
  notifyPlayback(user, video, delay, timedOut);
  if (!timedOut) {
    prefetchPopular(user, ctx_.catalog().video(video).channel, video);
  }
}

void SocialTubeSystem::watchFinished(UserId user, VideoId video,
                                     bool complete) {
  if (complete) store_.cache(user).insert(video);
}

void SocialTubeSystem::prefetchArrived(UserId user, VideoId video, bool) {
  if (ctx_.isOnline(user)) {
    store_.cache(user).insertFirstChunk(video);
  }
}

// --- prefetch ------------------------------------------------------------------------

void SocialTubeSystem::prefetchPopular(UserId user, ChannelId channel,
                                       VideoId watching) {
  if (!ctx_.config().prefetchEnabled) return;
  if (!ctx_.isOnline(user)) return;
  const NodeRef node = store_.ref(user);
  const trace::Channel& channelInfo = ctx_.catalog().channel(channel);

  std::size_t issued = 0;
  for (const VideoId candidate : channelInfo.videos) {
    if (issued >= ctx_.config().prefetchCount) break;
    if (candidate == watching) continue;
    if (!ctx_.isReleased(candidate)) continue;  // not published yet
    if (node.cache.contains(candidate) || node.cache.hasFirstChunk(candidate)) {
      continue;
    }
    // Prefer an overlay neighbor that holds the video (their cache digests
    // arrive with probe messages) — channel neighbors first, then category
    // neighbors; only then does the server supply the chunk.
    UserId provider = UserId::invalid();
    for (const LinkList* links : {&node.inner, &node.inter}) {
      for (const UserId n : *links) {
        if (!ctx_.neighborAllowed(user, n)) continue;  // breaker open
        if (ctx_.isOnline(n) && store_.cache(n).contains(candidate)) {
          provider = n;
          break;
        }
      }
      if (provider.valid()) break;
    }
    transfers_.startPrefetch(user, candidate, provider);
    ++issued;
  }
}

// --- maintenance ---------------------------------------------------------------------

bool SocialTubeSystem::gossipRepairLinks(UserId user) {
  // Neighbor-of-neighbor repair: ask one live neighbor to share its
  // neighbor lists instead of going to the server. Falls back to the server
  // (returns false) when no live neighbor remains.
  const NodeRef node = store_.ref(user);
  std::vector<UserId> alive;
  for (const LinkList* links : {&node.inner, &node.inter}) {
    for (const UserId n : *links) {
      if (ctx_.isOnline(n)) alive.push_back(n);
    }
  }
  if (alive.empty()) return false;
  const UserId helper = alive[ctx_.rng().uniformInt(alive.size())];
  const ChannelId channel = node.channel;

  ctx_.sendUser(user, helper,
                sim::makeTag(sim::Component::kSocialTube, kGossipAtHelper,
                             user.value(), channel.value()));
  return true;
}

void SocialTubeSystem::gossipAtHelper(const sim::EventTag& tag) {
  // At the helper: snapshot its neighbor lists and send them back.
  const UserId helper{tag.a32};
  const UserId user{lo32(tag.a)};
  const ChannelId channel{lo32(tag.b)};
  const NodeRef helperNode = store_.ref(helper);
  vod::SystemContext::Payload payload;
  payload.u = vod::fromUsers(helperNode.inner);
  payload.v = vod::fromUsers(helperNode.inter);
  const std::uint64_t payloadId = ctx_.stashPayload(std::move(payload));
  ctx_.sendUser(helper, user,
                sim::makeTag(sim::Component::kSocialTube, kGossipReply,
                             channel.value(), payloadId));
}

void SocialTubeSystem::applyLinkReply(const sim::EventTag& tag) {
  const UserId user{tag.a32};
  const ChannelId channel{lo32(tag.a)};
  const std::optional<vod::SystemContext::Payload> payload =
      ctx_.receivePayload(tag.b, user);
  if (!payload) return;
  const NodeRef node = store_.ref(user);
  if (node.channel != channel) return;  // switched since the request
  for (const std::uint32_t raw : payload->u) {
    const UserId candidate{raw};
    if (node.inner.size() >= ctx_.config().innerLinks) break;
    if (!ctx_.neighborAllowed(user, candidate)) continue;
    if (ctx_.isOnline(candidate)) connect(user, candidate, /*innerList=*/true);
  }
  for (const std::uint32_t raw : payload->v) {
    const UserId candidate{raw};
    if (node.inter.size() >= ctx_.config().interLinks) break;
    if (!ctx_.neighborAllowed(user, candidate)) continue;
    if (ctx_.isOnline(candidate)) connect(user, candidate, /*innerList=*/false);
  }
}

void SocialTubeSystem::reconcile(UserId user) {
  if (!ctx_.isOnline(user)) return;
  const NodeRef node = store_.ref(user);

  // Re-announce: a crash tears down the server's registrations (session
  // tracking), so a rejoined node must re-assert every subscription plus
  // the channel it is currently watching. add() is idempotent.
  for (const ChannelId sub : ctx_.catalog().user(user).subscriptions) {
    directory_.add(user, sub);
  }
  if (node.channel.valid()) directory_.add(user, node.channel);

  // Cache revalidation is structural here: releases are monotonic (a video
  // never un-publishes), so every full copy and prefetched chunk the node
  // crashed with is still valid — the st.cache_unreleased audit rule backs
  // this up every round.
  //
  // Overlay-link audit: one immediate probe sweep drops links whose far end
  // died or moved while this node was dark, feeds the breaker board, and
  // requests repair for any shortfall — the same machinery the periodic
  // probe uses, run out of band so recovery does not wait a full interval.
  probeNeighbors(user);
}

void SocialTubeSystem::probeNeighbors(UserId user) {
  if (!ctx_.isOnline(user)) return;
  const NodeRef node = store_.ref(user);
  bool lostAny = false;

  // A live neighbor's probe response carries its current channel and a
  // digest of its own neighbor list, so besides dead neighbors the sweep
  // also drops links whose far end moved away or no longer reciprocates.
  // Channel switches and graceful departures are announced by goodbye
  // messages, but a lost goodbye must not leave a stale link beyond the
  // next probe round — this sweep is the repair horizon.
  const auto sweep = [&](LinkList links, bool innerList) {
    for (std::size_t i = 0; i < links.size();) {
      ctx_.metrics().countProbe();
      const UserId n = links[i];
      ST_TRACE(ctx_.trace(), ctx_.sim().now(), kProbe, user.value(),
               n.value(), 0);
      const NodeRef peer = store_.ref(n);
      bool stale = !ctx_.isOnline(n);
      if (!stale) {
        // Inner neighbors must still reciprocate AND still belong to this
        // channel's community (subscriber or current watcher) — the probe
        // response carries both. A subscriber watching another channel is
        // a legitimate community member, not a stale link.
        stale = innerList ? (!contains(peer.inner, user) ||
                             !(directory_.contains(n, node.channel) ||
                               peer.channel == node.channel))
                          : !contains(peer.inter, user);
      }
      if (stale) {
        // Dead or moved-away neighbor: drop the link and feed the breaker —
        // repeated offenders are excluded from repair until they prove
        // themselves in a half-open trial.
        ctx_.reportNeighborFailure(user, n);
        dropLink(n, user);  // remove reciprocal entry if any
        links.eraseAt(i);
        lostAny = true;
        continue;
      }
      ctx_.reportNeighborSuccess(user, n);
      ++i;
    }
  };
  sweep(node.inner, /*innerList=*/true);
  sweep(node.inter, /*innerList=*/false);

  if (lostAny || node.inner.size() < ctx_.config().innerLinks ||
      node.inter.size() < ctx_.config().interLinks) {
    repairLinks(user);
  }
}

void SocialTubeSystem::repairLinks(UserId user) {
  const NodeRef node = store_.ref(user);
  if (!node.channel.valid()) return;
  const std::size_t needInner =
      node.inner.size() < ctx_.config().innerLinks
          ? ctx_.config().innerLinks - node.inner.size()
          : 0;
  const bool needInter = node.inter.size() < ctx_.config().interLinks;
  if (needInner == 0 && !needInter) return;

  ctx_.metrics().countRepair();
  ST_TRACE(ctx_.trace(), ctx_.sim().now(), kRepair, user.value(), 0,
           needInner);
  if (ctx_.config().gossipRepair && gossipRepairLinks(user)) return;
  const ChannelId channel = node.channel;
  const CategoryId category = node.category;
  ctx_.sendToServer(
      user, sim::makeTag(sim::Component::kSocialTube, kRepairAtServer,
                         user.value(), pack(channel.value(), category.value()),
                         pack(static_cast<std::uint32_t>(needInner),
                              needInter ? 1 : 0)));
}

void SocialTubeSystem::repairAtServer(const sim::EventTag& tag) {
  const UserId user{lo32(tag.a)};
  const ChannelId channel{lo32(tag.b)};
  const CategoryId category{hi32(tag.b)};
  const std::size_t needInner = lo32(tag.c);
  const bool needInter = hi32(tag.c) != 0;
  if (!ctx_.isOnline(user)) return;
  std::vector<UserId> innerCandidates =
      directory_.randomMembers(channel, needInner, user, ctx_.rng());
  std::vector<UserId> interCandidates;
  if (needInter && category.valid()) {
    interCandidates = siblingEntryPoints(user, channel, category);
  }
  vod::SystemContext::Payload payload;
  payload.u = vod::fromUsers(innerCandidates);
  payload.v = vod::fromUsers(interCandidates);
  const std::uint64_t payloadId = ctx_.stashPayload(std::move(payload));
  ctx_.sendFromServer(user,
                      sim::makeTag(sim::Component::kSocialTube, kRepairReply,
                                   channel.value(), payloadId));
}

std::vector<UserId> SocialTubeSystem::siblingEntryPoints(UserId user,
                                                         ChannelId channel,
                                                         CategoryId category) {
  std::vector<ChannelId> siblings;
  for (const ChannelId sibling : ctx_.catalog().category(category).channels) {
    if (sibling != channel) siblings.push_back(sibling);
  }
  ctx_.rng().shuffle(siblings);
  std::vector<UserId> entryPoints;
  for (const ChannelId sibling : siblings) {
    if (entryPoints.size() >= ctx_.config().interLinks) break;
    const std::vector<UserId> picked =
        directory_.randomMembers(sibling, 1, user, ctx_.rng());
    if (!picked.empty()) entryPoints.push_back(picked.front());
  }
  return entryPoints;
}

// --- invariant audit ----------------------------------------------------------

void SocialTubeSystem::auditInvariants(vod::AuditReport& report) const {
  for (std::size_t i = 0; i < store_.size(); ++i) {
    auditNode(report, UserId{static_cast<std::uint32_t>(i)});
  }
  directory_.forEach([&](UserId member, ChannelId channel) {
    auditRegistration(report, member, channel);
  });
}

void SocialTubeSystem::auditUser(vod::AuditReport& report, UserId user) const {
  auditNode(report, user);
  // Another node's lists raise only two rules about an online `user`: a
  // one-sided link to it (*_asym) and a duplicate entry for it (*_dup).
  // One pass over the arenas' live slices finds the nodes listing it; a
  // reverse-link index would cost a write on every connect and dropLink.
  for (std::size_t i = 0; i < store_.size(); ++i) {
    const UserId holder{static_cast<std::uint32_t>(i)};
    const ConstNodeRef node = store_.ref(holder);
    if (holder != user &&
        (contains(node.inner, user) || contains(node.inter, user))) {
      auditNode(report, holder);
    }
  }
  directory_.forEachKeyOf(user, [&](ChannelId channel) {
    auditRegistration(report, user, channel);
  });
}

void SocialTubeSystem::auditNode(vod::AuditReport& report,
                                 UserId user) const {
  // Hard caps: connect() admits a link while either side is below 2*N_l
  // (resp. 2*N_h) — the soft budget N_l/N_h steers link *seeking*, the
  // doubled cap is what the structure guarantees.
  const std::size_t innerCap = ctx_.config().innerLinks * 2;
  const std::size_t interCap = ctx_.config().interLinks * 2;

  const auto auditList = [&](std::span<const UserId> links, bool innerList) {
    const char* tag = innerList ? "st.inner" : "st.inter";
    if (links.size() > (innerList ? innerCap : interCap)) {
      report.violate(std::string(tag) + "_cap", user,
                     static_cast<std::uint32_t>(links.size()));
    }
    for (std::size_t i = 0; i < links.size(); ++i) {
      const UserId n = links[i];
      if (n == user) {
        report.violate(std::string(tag) + "_self", user, n);
        continue;
      }
      if (std::find(links.begin(), links.begin() +
                                       static_cast<std::ptrdiff_t>(i),
                    n) != links.begin() + static_cast<std::ptrdiff_t>(i)) {
        report.violate(std::string(tag) + "_dup", user, n);
        continue;
      }
      const ConstNodeRef peer = store_.ref(n);
      if (!ctx_.isOnline(n)) {
        // A dead neighbor is legitimate until the next probe round sweeps
        // it; one that died before the repair horizon is a leak.
        if (ctx_.offlineSince(n) < report.staleBefore()) {
          report.violate(std::string(tag) + "_stale", user, n);
        }
        continue;
      }
      // Live-peer checks mirror the hardened probe: a lost goodbye may
      // leave these broken for up to one probe round, hence transient.
      const bool reciprocal =
          innerList ? contains(peer.inner, user) : contains(peer.inter, user);
      if (!reciprocal) {
        report.violateTransient(std::string(tag) + "_asym", user, n);
      }
      // No community-membership check for inner links and no category check
      // for inter links: both are formation-time properties (§IV-A), not
      // steady-state ones. A neighbor's membership legitimately flaps as
      // they watch across channels (temporary directory memberships come
      // and go), so sampling it at audit instants would confirm healthy
      // pairs; the probe sweep is what retires links whose far end left the
      // community for good.
    }
  };

  const ConstNodeRef node = store_.ref(user);
  if (ctx_.isOnline(user)) {
    auditList(node.inner, /*innerList=*/true);
    auditList(node.inter, /*innerList=*/false);
    // The server must know the user under every subscribed channel while
    // they are online (§IV-A registration), plus the channel currently
    // being watched.
    for (const ChannelId sub : ctx_.catalog().user(user).subscriptions) {
      if (!directory_.contains(user, sub)) {
        report.violate("st.directory_missing_sub", user, sub.value());
      }
    }
    if (node.channel.valid() && !directory_.contains(user, node.channel)) {
      // The join round trip is in flight right after a channel switch.
      report.violateTransient("st.directory_missing_current", user,
                              node.channel.value());
    }
  } else if (!node.inner.empty() || !node.inter.empty()) {
    // onLogout clears both lists synchronously.
    report.violate("st.offline_has_links", user,
                   static_cast<std::uint32_t>(node.inner.size() +
                                              node.inter.size()));
  }
  // Cached videos (cache persists across sessions) must all be published.
  for (const VideoId video : node.cache.videoList()) {
    if (!ctx_.isReleased(video)) {
      report.violate("st.cache_unreleased", user, video.value());
    }
  }
}

void SocialTubeSystem::auditRegistration(vod::AuditReport& report,
                                         UserId member,
                                         ChannelId channel) const {
  // The directory must never retain a departed user: onLogout removes every
  // registration synchronously, so this is instant, not transient.
  if (!ctx_.isOnline(member)) {
    report.violate("st.directory_offline", member, channel.value());
  }
}

void SocialTubeSystem::injectLinkForTest(UserId user, UserId neighbor,
                                         bool inner) {
  const NodeRef node = store_.ref(user);
  (inner ? node.inner : node.inter).push_back(neighbor);
}

// --- checkpoint/restore --------------------------------------------------------

void SocialTubeSystem::saveState(snapshot::Writer& w) const {
  w.section(0x54434f53);  // "SOCT"
  directory_.saveState(w);
  w.u64(store_.size());
  const auto saveList = [&w](std::span<const UserId> list) {
    w.u64(list.size());
    for (const UserId n : list) w.u32(n.value());
  };
  for (std::size_t i = 0; i < store_.size(); ++i) {
    const ConstNodeRef node = store_.ref(UserId{static_cast<std::uint32_t>(i)});
    w.u32(node.channel.value());
    w.u32(node.category.value());
    saveList(node.inner);
    saveList(node.inter);
    w.u32(node.lastChannel.value());
    w.u32(node.lastCategory.value());
    saveList(node.lastInner);
    saveList(node.lastInter);
    node.cache.saveState(w);
  }
  searches_.saveState(w, [](snapshot::Writer& w, const Search& search) {
    w.u8(static_cast<std::uint8_t>(search.phase));
    w.boolean(search.prefetchHit);
    w.u32(search.attempt);
    w.i64(search.requestTime);
  });
}

bool SocialTubeSystem::loadState(snapshot::Reader& r) {
  r.section(0x54434f53, "SocialTube");
  if (!directory_.loadState(r)) return false;
  const std::size_t nodeCount = r.count(4);
  if (!r.ok() || nodeCount != store_.size()) {
    r.fail("SocialTube node count mismatch");
    return false;
  }
  const auto loadList = [this, &r](LinkList list) {
    list.clear();
    const std::size_t n = r.count(4);
    if (n > list.capacity()) {
      r.fail("SocialTube link list over capacity");
      return;
    }
    for (std::size_t i = 0; i < n; ++i) {
      list.push_back(UserId{r.id(store_.size(), "SocialTube link user")});
    }
  };
  // Channel and category ids index the catalog; "none" (the invalid id)
  // is legal.
  const std::size_t channels = ctx_.catalog().channelCount();
  const std::size_t categories = ctx_.catalog().categoryCount();
  for (std::size_t i = 0; i < store_.size(); ++i) {
    const NodeRef node = store_.ref(UserId{static_cast<std::uint32_t>(i)});
    node.channel =
        ChannelId{r.id(channels, "SocialTube node channel", /*noneOk=*/true)};
    node.category = CategoryId{
        r.id(categories, "SocialTube node category", /*noneOk=*/true)};
    loadList(node.inner);
    loadList(node.inter);
    node.lastChannel = ChannelId{
        r.id(channels, "SocialTube node lastChannel", /*noneOk=*/true)};
    node.lastCategory = CategoryId{
        r.id(categories, "SocialTube node lastCategory", /*noneOk=*/true)};
    loadList(node.lastInner);
    loadList(node.lastInter);
    if (!node.cache.loadState(r, ctx_.catalog().videoCount())) return false;
    node.probeTimer = sim::EventHandle{};
    if (!r.ok()) return false;
  }
  return searches_.loadState(
      r, "SocialTube", [](snapshot::Reader& in, Search& search) {
        search.phase = static_cast<SearchPhase>(in.u8());
        search.prefetchHit = in.boolean();
        search.attempt = in.u32();
        search.requestTime = in.i64();
        return true;
      });
}

}  // namespace st::core

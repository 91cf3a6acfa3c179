#include "baselines/pavod.h"

#include <cassert>

namespace st::baselines {

using sim::lo32;

PaVodSystem::PaVodSystem(vod::SystemContext& ctx,
                         vod::TransferManager& transfers)
    : ctx_(ctx),
      transfers_(transfers),
      current_(ctx.catalog().userCount(), VideoId::invalid()),
      haveFull_(ctx.catalog().userCount(), 0),
      peerProvider_(ctx.catalog().userCount(), 0) {
  transfers_.setClient(this);
  ctx_.sim().registerFactory(sim::Component::kPaVod, this);
}

PaVodSystem::~PaVodSystem() {
  if (ctx_.sim().factory(sim::Component::kPaVod) == this) {
    ctx_.sim().registerFactory(sim::Component::kPaVod, nullptr);
  }
}

sim::Callback PaVodSystem::rebuild(const sim::EventTag& tag) {
  switch (tag.kind) {
    case kWatchersAtServer:
      return ctx_.wrapStage(tag, [this, tag] { watchersAtServer(tag); });
    case kWatchersReply:
      // Carries a payload: the online check lives inside the handler so an
      // offline receiver still frees it (wrapStage would silently drop).
      return [this, tag] { applyWatchersReply(tag); };
    case kProviderRegister:
      return ctx_.wrapStage(tag, [this, tag] { providerRegister(tag); });
    default:
      assert(false && "unknown PA-VoD event kind");
      return [] {};
  }
}

void PaVodSystem::discard(const sim::EventTag& tag) {
  // A lost watcher-list reply must free the candidate payload. If-live:
  // under `dup:` fault windows the dropped message can be the second copy
  // of one whose first delivery already consumed it.
  if (tag.kind == kWatchersReply) ctx_.freePayloadIfLive(tag.b);
}

bool PaVodSystem::onRestored(const sim::EventTag& tag, sim::EventHandle) {
  if (!ctx_.validStage(tag)) return false;
  switch (tag.kind) {
    case kWatchersAtServer:
    case kProviderRegister:
      return ctx_.validUser(lo32(tag.a)) && ctx_.validVideo(lo32(tag.b));
    case kWatchersReply:
      return ctx_.validUser(tag.a32) && ctx_.validVideo(lo32(tag.a)) &&
             (!UserId{lo32(tag.c)}.valid() || ctx_.validUser(lo32(tag.c))) &&
             ctx_.validPayload(tag.b, ctx_.catalog().userCount(), 0);
    default:
      return false;
  }
}

vod::VodSystem::NodeStats PaVodSystem::nodeStats(UserId user) const {
  // PA-VoD maintains no overlay; the only "link" is an active peer download.
  return {.links = peerProvider_[user.index()] != 0 ? std::size_t{1}
                                                    : std::size_t{0}};
}

void PaVodSystem::onLogin(UserId user) {
  resetNode(user);
}

void PaVodSystem::onLogout(UserId user, bool graceful) {
  (void)graceful;  // no overlay state to say goodbye to
  watchers_.removeAll(user);
  resetNode(user);
}

void PaVodSystem::requestVideo(UserId user, VideoId video) {
  const sim::SimTime requestTime = ctx_.sim().now();
  // A new request supersedes the previous watch; the node stops providing
  // the old video.
  if (current_[user.index()].valid()) {
    watchers_.remove(user, current_[user.index()]);
  }
  current_[user.index()] = video;
  haveFull_[user.index()] = 0;
  peerProvider_[user.index()] = 0;

  // Ask the server for current watchers of this video.
  ctx_.sendToServer(user,
                    sim::makeTag(sim::Component::kPaVod, kWatchersAtServer,
                                 user.value(), video.value(), 0,
                                 static_cast<std::uint64_t>(requestTime)));
}

void PaVodSystem::watchersAtServer(const sim::EventTag& tag) {
  const UserId user{lo32(tag.a)};
  const VideoId video{lo32(tag.b)};
  std::vector<UserId> candidates = watchers_.randomMembers(
      video, ctx_.config().watcherListSize, user, ctx_.rng());
  std::erase_if(candidates, [this](UserId u) { return !ctx_.isOnline(u); });
  // Breaker filtering happens after the RNG draws so that a disabled
  // board leaves the random stream untouched.
  std::erase_if(candidates, [this, user](UserId u) {
    return !ctx_.neighborAllowed(user, u);
  });
  const UserId provider =
      candidates.empty() ? UserId::invalid() : candidates.front();
  if (!provider.valid()) {
    ctx_.metrics().countServerFallback();
    ST_TRACE(ctx_.trace(), ctx_.sim().now(), kServerFallback, user.value(),
             video.value(), 0);
  }
  vod::SystemContext::Payload payload;
  payload.u = vod::fromUsers(candidates);
  const std::uint64_t payloadId = ctx_.stashPayload(std::move(payload));
  ctx_.sendFromServer(user,
                      sim::makeTag(sim::Component::kPaVod, kWatchersReply,
                                   video.value(), payloadId, provider.value(),
                                   tag.d));
}

void PaVodSystem::applyWatchersReply(const sim::EventTag& tag) {
  const UserId user{tag.a32};
  const VideoId video{lo32(tag.a)};
  const std::optional<vod::SystemContext::Payload> payload =
      ctx_.receivePayload(tag.b, user);
  if (!payload) return;
  if (current_[user.index()] != video) return;  // stale reply
  UserId source{lo32(tag.c)};
  if (source.valid() && !ctx_.isOnline(source)) {
    source = UserId::invalid();
  }
  if (source.valid()) ctx_.metrics().countChannelHit();
  startDownload(user, video, source, vod::toUsers(payload->u),
                static_cast<sim::SimTime>(tag.d));
}

void PaVodSystem::startDownload(UserId user, VideoId video, UserId provider,
                                std::vector<UserId> extraProviders,
                                sim::SimTime requestTime) {
  peerProvider_[user.index()] = provider.valid() ? 1 : 0;

  vod::TransferManager::WatchRequest request;
  request.user = user;
  request.video = video;
  request.provider = provider;
  if (ctx_.config().bodySources > 1) {
    std::erase_if(extraProviders, [&](UserId u) {
      return u == provider || !ctx_.isOnline(u);
    });
    request.extraProviders = std::move(extraProviders);
  }
  request.requestTime = requestTime;
  // Without a peer the request is already at the server, which serves it.
  transfers_.startWatch(std::move(request));
}

void PaVodSystem::watchFinished(UserId user, VideoId video, bool complete) {
  if (!complete || current_[user.index()] != video) return;
  // Full copy in hand while still watching: become a provider.
  haveFull_[user.index()] = 1;
  ctx_.sendToServer(user,
                    sim::makeTag(sim::Component::kPaVod, kProviderRegister,
                                 user.value(), video.value()));
}

void PaVodSystem::providerRegister(const sim::EventTag& tag) {
  const UserId user{lo32(tag.a)};
  const VideoId video{lo32(tag.b)};
  if (ctx_.isOnline(user) && current_[user.index()] == video &&
      haveFull_[user.index()] != 0) {
    watchers_.add(user, video);
  }
}

void PaVodSystem::auditInvariants(vod::AuditReport& report) const {
  watchers_.forEach([&](UserId member, VideoId video) {
    auditWatcher(report, member, video);
  });
}

void PaVodSystem::auditUser(vod::AuditReport& report, UserId user) const {
  // Every rule is about one advertisement and names its watcher.
  watchers_.forEachKeyOf(user, [&](VideoId video) {
    auditWatcher(report, user, video);
  });
}

void PaVodSystem::auditWatcher(vod::AuditReport& report, UserId member,
                               VideoId video) const {
  // The watcher directory is pruned synchronously on logout, playback end,
  // and video switch, so a stale advertisement is a bug, not churn noise.
  if (!ctx_.isOnline(member)) {
    report.violate("pv.watcher_offline", member, video.value());
    return;
  }
  if (current_[member.index()] != video) {
    report.violate("pv.watcher_wrong_video", member, video.value());
  } else if (haveFull_[member.index()] == 0) {
    report.violate("pv.watcher_incomplete", member, video.value());
  }
}

void PaVodSystem::onPlaybackComplete(UserId user, VideoId video) {
  if (current_[user.index()] != video) return;
  // Playback over: the node no longer provides this video (the defining
  // PA-VoD limitation for short videos).
  watchers_.remove(user, video);
  resetNode(user);
}

// --- checkpoint/restore --------------------------------------------------------

void PaVodSystem::saveState(snapshot::Writer& w) const {
  w.section(0x44564150);  // "PAVD"
  watchers_.saveState(w);
  w.u64(current_.size());
  for (std::size_t i = 0; i < current_.size(); ++i) {
    w.u32(current_[i].value());
    w.boolean(haveFull_[i] != 0);
    w.boolean(peerProvider_[i] != 0);
  }
}

bool PaVodSystem::loadState(snapshot::Reader& r) {
  r.section(0x44564150, "PA-VoD");
  if (!watchers_.loadState(r)) return false;
  const std::size_t nodeCount = r.count(4 + 1 + 1);
  if (!r.ok() || nodeCount != current_.size()) {
    r.fail("PA-VoD node count mismatch");
    return false;
  }
  for (std::size_t i = 0; i < current_.size(); ++i) {
    current_[i] = VideoId{r.id(ctx_.catalog().videoCount(),
                               "PA-VoD current video", /*noneOk=*/true)};
    haveFull_[i] = r.boolean() ? 1 : 0;
    peerProvider_[i] = r.boolean() ? 1 : 0;
  }
  return r.ok();
}

}  // namespace st::baselines

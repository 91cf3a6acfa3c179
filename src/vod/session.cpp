#include "vod/session.h"

#include <cassert>

namespace st::vod {

SessionDriver::SessionDriver(SystemContext& ctx, VodSystem& system,
                             TransferManager& transfers,
                             VideoSelector& selector, std::uint64_t seed)
    : ctx_(ctx),
      system_(system),
      transfers_(transfers),
      selector_(selector),
      users_(ctx.catalog().userCount()) {
  userRngs_.reserve(users_.size());
  for (std::size_t i = 0; i < users_.size(); ++i) {
    userRngs_.push_back(Rng::forPurpose(seed ^ (0x5e55ull << 16 | i), "churn"));
  }
  system_.setPlaybackCallback(
      [this](UserId user, VideoId video, sim::SimTime delay, bool timedOut) {
        onPlaybackReady(user, video, delay, timedOut);
      });
  ctx_.sim().registerFactory(sim::Component::kSession, this);
}

SessionDriver::~SessionDriver() {
  if (ctx_.sim().factory(sim::Component::kSession) == this) {
    ctx_.sim().registerFactory(sim::Component::kSession, nullptr);
  }
}

sim::Callback SessionDriver::rebuild(const sim::EventTag& tag) {
  const UserId user{static_cast<std::uint32_t>(tag.a)};
  switch (tag.kind) {
    case kLoginEvent:
      return [this, user] { login(user); };
    case kPlaybackDoneEvent: {
      const VideoId video{static_cast<std::uint32_t>(tag.b)};
      return [this, user, video] { onPlaybackComplete(user, video); };
    }
    default:
      assert(false && "unknown session event kind");
      return [] {};
  }
}

bool SessionDriver::onRestored(const sim::EventTag& tag, sim::EventHandle) {
  switch (tag.kind) {
    case kLoginEvent:
      return ctx_.validUser(tag.a);
    case kPlaybackDoneEvent:
      return ctx_.validUser(tag.a) && ctx_.validVideo(tag.b);
    default:
      return false;
  }
}

void SessionDriver::start() {
  const double stagger = ctx_.config().loginStaggerSeconds;
  for (std::size_t i = 0; i < users_.size(); ++i) {
    const UserId user{static_cast<std::uint32_t>(i)};
    const sim::SimTime at =
        sim::fromSeconds(userRngs_[i].uniform(0.0, stagger));
    ctx_.sim().scheduleAtTagged(
        at, sim::makeTag(sim::Component::kSession, kLoginEvent, user.value()));
  }
}

void SessionDriver::login(UserId user) {
  // Idempotent: a rejoin fault can bring the user back before their
  // scheduled next login fires; the superseded login must be a no-op.
  if (ctx_.isOnline(user)) return;
  UserState& state = users_[user.index()];
  state.videosThisSession = 0;
  state.currentVideo = VideoId::invalid();
  ctx_.setOnline(user, true);
  ST_TRACE(ctx_.trace(), ctx_.sim().now(), kLogin, user.value(), 0,
           state.sessionsDone);
  system_.onLogin(user);
  requestNext(user);
}

void SessionDriver::requestNext(UserId user) {
  UserState& state = users_[user.index()];
  const VideoId video =
      state.currentVideo.valid()
          ? selector_.nextVideo(user, state.currentVideo)
          : selector_.firstVideo(user);
  state.currentVideo = video;
  system_.requestVideo(user, video);
}

void SessionDriver::onPlaybackReady(UserId user, VideoId video,
                                    sim::SimTime delay, bool timedOut) {
  UserState& state = users_[user.index()];
  // A stale event: the user left, or moved on to another video.
  if (!ctx_.isOnline(user) || video != state.currentVideo) return;
  if (timedOut) {
    ctx_.metrics().recordStartupTimeout();
    // The user gave up on this video; move on after a short pause.
    ctx_.sim().scheduleTagged(
        sim::kSecond, sim::makeTag(sim::Component::kSession, kPlaybackDoneEvent,
                                   user.value(), video.value()));
    return;
  }
  ctx_.metrics().recordStartupDelay(sim::toMillis(delay));
  double length = ctx_.library().asset(video).lengthSeconds;
  Rng& rng = userRngs_[user.index()];
  if (ctx_.config().abandonProbability > 0.0 &&
      rng.bernoulli(ctx_.config().abandonProbability)) {
    // Early abandonment: the viewer quits partway through.
    length *= rng.uniform(0.1, 0.9);
  }
  ctx_.sim().scheduleTagged(
      sim::fromSeconds(length),
      sim::makeTag(sim::Component::kSession, kPlaybackDoneEvent, user.value(),
                   video.value()));
}

void SessionDriver::onPlaybackComplete(UserId user, VideoId video) {
  UserState& state = users_[user.index()];
  if (!ctx_.isOnline(user) || video != state.currentVideo) return;
  system_.onPlaybackComplete(user, video);
  ++state.videosThisSession;
  ++videosWatched_;
  const VodSystem::NodeStats stats = system_.nodeStats(user);
  ctx_.metrics().recordLinks(state.videosThisSession, stats.links);
  ctx_.metrics().recordRedundantLinks(stats.redundantLinks);
  if (state.videosThisSession < ctx_.config().videosPerSession) {
    requestNext(user);
    return;
  }
  logout(user);
}

void SessionDriver::logout(UserId user) {
  assert(ctx_.isOnline(user));
  const bool graceful = !userRngs_[user.index()].bernoulli(
      ctx_.config().abruptDepartureFraction);
  endSession(user, graceful);
}

void SessionDriver::crashUser(UserId user) {
  if (!ctx_.isOnline(user)) return;
  // No RNG draw here: the graceful/abrupt stream stays aligned with the
  // fault-free run for every session the injector does not touch.
  endSession(user, /*graceful=*/false);
}

void SessionDriver::rejoinUser(UserId user) {
  const UserState& state = users_[user.index()];
  if (ctx_.isOnline(user)) return;
  if (state.sessionsDone >= ctx_.config().sessionsPerUser) return;
  login(user);
}

void SessionDriver::endSession(UserId user, bool graceful) {
  UserState& state = users_[user.index()];
  assert(ctx_.isOnline(user));
  ctx_.setOnline(user, false);
  ST_TRACE(ctx_.trace(), ctx_.sim().now(), kLogout, user.value(), 0,
           graceful ? 1 : 0);
  transfers_.onUserOffline(user);
  system_.onLogout(user, graceful);

  ++state.sessionsDone;
  ++sessionsCompleted_;
  if (state.sessionsDone >= ctx_.config().sessionsPerUser) {
    ++usersCompleted_;
    return;
  }
  const double offSeconds = userRngs_[user.index()].exponential(
      ctx_.config().offTimeMeanSeconds);
  ctx_.sim().scheduleTagged(
      sim::fromSeconds(offSeconds),
      sim::makeTag(sim::Component::kSession, kLoginEvent, user.value()));
}

void SessionDriver::saveState(snapshot::Writer& w) const {
  w.section(0x53534553);  // "SESS"
  w.u64(users_.size());
  for (const UserState& state : users_) {
    w.u64(state.sessionsDone);
    w.u64(state.videosThisSession);
    w.u32(state.currentVideo.value());
  }
  for (const Rng& rng : userRngs_) snapshot::saveRngState(w, rng.state());
  w.u64(usersCompleted_);
  w.u64(sessionsCompleted_);
  w.u64(videosWatched_);
}

bool SessionDriver::loadState(snapshot::Reader& r) {
  r.section(0x53534553, "session driver");
  const std::size_t userCount = r.count(8 + 8 + 4);
  if (!r.ok() || userCount != users_.size()) {
    r.fail("session driver user count mismatch");
    return false;
  }
  std::vector<UserState> users(userCount);
  for (UserState& state : users) {
    state.sessionsDone = r.u64();
    state.videosThisSession = r.u64();
    state.currentVideo = VideoId{r.u32()};
  }
  std::vector<Rng::State> rngs(userCount);
  for (Rng::State& state : rngs) state = snapshot::loadRngState(r);
  const std::uint64_t usersCompleted = r.u64();
  const std::uint64_t sessionsCompleted = r.u64();
  const std::uint64_t videosWatched = r.u64();
  if (!r.ok()) return false;
  users_ = std::move(users);
  for (std::size_t i = 0; i < userCount; ++i) userRngs_[i].setState(rngs[i]);
  usersCompleted_ = static_cast<std::size_t>(usersCompleted);
  sessionsCompleted_ = sessionsCompleted;
  videosWatched_ = videosWatched;
  return true;
}

}  // namespace st::vod

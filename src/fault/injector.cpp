#include "fault/injector.h"

#include <algorithm>
#include <cassert>

#include "fault/recovery.h"

namespace st::fault {

Injector::Injector(vod::SystemContext& ctx, Schedule schedule,
                   std::uint64_t seed)
    : ctx_(ctx),
      schedule_(std::move(schedule)),
      rng_(Rng::forPurpose(seed, "faults")),
      blackholed_(ctx.catalog().userCount(), 0),
      isolated_(ctx.catalog().userCount(), 0),
      crashes_(&ctx.metrics().registry().counter("fault.crashes")),
      events_(&ctx.metrics().registry().counter("fault.events")) {
  // Per-kind counters appear only when the schedule can bump them, so the
  // counter snapshot of a run with an old-style spec is unchanged.
  obs::Registry& registry = ctx.metrics().registry();
  if (schedule_.has(FaultKind::kRejoin)) {
    rejoins_ = &registry.counter("fault.rejoins");
  }
  if (schedule_.has(FaultKind::kDup)) {
    dups_ = &registry.counter("fault.dup_messages");
  }
  if (schedule_.has(FaultKind::kReorder)) {
    reorders_ = &registry.counter("fault.reordered");
  }
  if (schedule_.has(FaultKind::kFlap)) {
    flapToggles_ = &registry.counter("fault.flap_toggles");
  }
  ctx_.sim().registerFactory(sim::Component::kFault, this);
}

Injector::~Injector() {
  if (armed_) ctx_.network().setFaultHook(nullptr);
  if (ctx_.sim().factory(sim::Component::kFault) == this) {
    ctx_.sim().registerFactory(sim::Component::kFault, nullptr);
  }
}

sim::Callback Injector::rebuild(const sim::EventTag& tag) {
  // Captures the index, not the event: a restored tag is range-checked by
  // onRestored() only after rebuild() runs.
  const auto index = static_cast<std::size_t>(tag.a);
  switch (tag.kind) {
    case kActivateEvent:
      return [this, index] { activate(schedule_.events()[index]); };
    case kDeactivateEvent:
      return [this, index] { deactivate(schedule_.events()[index]); };
    case kToggleEvent:
      return [this, index] { toggleFlap(schedule_.events()[index]); };
    default:
      assert(false && "unknown fault event kind");
      return [] {};
  }
}

bool Injector::onRestored(const sim::EventTag& tag, sim::EventHandle) {
  return tag.kind <= kToggleEvent && tag.a < schedule_.events().size();
}

void Injector::arm() {
  assert(!armed_ && "arm() must be called once");
  if (schedule_.empty()) return;
  armed_ = true;
  ctx_.network().setFaultHook(this);
  const std::vector<FaultEvent>& events = schedule_.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& event = events[i];
    ctx_.sim().scheduleAtTagged(
        event.at, sim::makeTag(sim::Component::kFault, kActivateEvent, i));
    // Crash and rejoin are instantaneous; everything else is a window.
    if (event.kind != FaultKind::kCrash &&
        event.kind != FaultKind::kRejoin) {
      ctx_.sim().scheduleAtTagged(
          event.at + event.duration,
          sim::makeTag(sim::Component::kFault, kDeactivateEvent, i));
    }
  }
}

std::vector<UserId> Injector::partitionMembers(const FaultEvent& event) const {
  // A user belongs to the partitioned cluster when their primary interest
  // is the isolated category (first listed interest; users with none fall
  // back to user-index modulo category count, matching miniature catalogs).
  std::vector<UserId> members;
  const std::size_t categories = ctx_.catalog().categoryCount();
  if (categories == 0) return members;
  const std::size_t target = event.category.index() % categories;
  for (std::size_t i = 0; i < ctx_.catalog().userCount(); ++i) {
    const UserId user{static_cast<std::uint32_t>(i)};
    const auto& interests = ctx_.catalog().user(user).interests;
    const std::size_t primary =
        interests.empty() ? i % categories : interests.front().index();
    if (primary == target) members.push_back(user);
  }
  return members;
}

std::vector<UserId> Injector::drawVictims(const FaultEvent& event,
                                          bool offlineOnly) {
  std::vector<UserId> victims;
  const std::size_t users = ctx_.catalog().userCount();
  if (users == 0) return victims;
  if (event.user.valid()) {
    // Explicit target(s); out-of-range ids wrap so every spec is total.
    victims.push_back(
        UserId{static_cast<std::uint32_t>(event.user.index() % users)});
    if (event.peer.valid()) {
      victims.push_back(
          UserId{static_cast<std::uint32_t>(event.peer.index() % users)});
    }
    return victims;
  }
  std::vector<UserId> pool;
  for (std::size_t i = 0; i < users; ++i) {
    const UserId user{static_cast<std::uint32_t>(i)};
    // Rejoin targets users that are offline *and* have been online before —
    // never-logged-in users have no stale state to bring back.
    if (offlineOnly &&
        (ctx_.isOnline(user) || ctx_.offlineSince(user) == 0)) {
      continue;
    }
    pool.push_back(user);
  }
  rng_.shuffle(pool);
  const auto count = static_cast<std::size_t>(
      event.fraction * static_cast<double>(pool.size()));
  victims.assign(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(count));
  return victims;
}

void Injector::activate(const FaultEvent& event) {
  events_->inc();
  std::uint64_t affected = 0;
  std::uint32_t subject = 0;

  switch (event.kind) {
    case FaultKind::kCrash: {
      // Ungraceful departure wave: a random fraction of the *online*
      // population drops with no goodbyes, drawn from the injector's own
      // RNG stream (protocol streams stay untouched).
      std::vector<UserId> online;
      for (std::size_t i = 0; i < ctx_.catalog().userCount(); ++i) {
        const UserId user{static_cast<std::uint32_t>(i)};
        if (ctx_.isOnline(user)) online.push_back(user);
      }
      rng_.shuffle(online);
      const auto count = static_cast<std::size_t>(
          event.fraction * static_cast<double>(online.size()));
      for (std::size_t i = 0; i < count; ++i) {
        crashes_->inc();
        if (crashHandler_) crashHandler_(online[i]);
      }
      affected = count;
      break;
    }
    case FaultKind::kBlackhole: {
      std::vector<UserId> victims = drawVictims(event, false);
      for (const UserId victim : victims) {
        if (blackholed_[victim.index()]++ == 0) ++blackholedUsers_;
      }
      affected = victims.size();
      subject = victims.empty() ? 0 : victims.front().value();
      blackholeVictims_.emplace_back(&event, std::move(victims));
      break;
    }
    case FaultKind::kLoss: {
      activeLoss_.push_back(&event);
      affected = activeLoss_.size();
      break;
    }
    case FaultKind::kPartition: {
      const std::vector<UserId> members = partitionMembers(event);
      for (const UserId member : members) {
        if (isolated_[member.index()]++ == 0) ++isolatedUsers_;
      }
      if (event.cutServer) ++serverCuts_;
      affected = members.size();
      subject = event.category.value();
      break;
    }
    case FaultKind::kServerOutage: {
      ++serverOutages_;
      affected = 1;
      break;
    }
    case FaultKind::kSlow:
    case FaultKind::kFlap: {
      GrayWindow window;
      window.event = &event;
      window.victims = drawVictims(event, false);
      std::sort(window.victims.begin(), window.victims.end(),
                [](UserId a, UserId b) { return a.value() < b.value(); });
      affected = window.victims.size();
      subject = window.victims.empty() ? 0 : window.victims.front().value();
      slowWindows_.push_back(std::move(window));
      if (event.kind == FaultKind::kFlap) {
        // First phase flip; subsequent flips chain from toggleFlap(). Flips
        // stay strictly inside the window so they never race deactivation.
        const std::size_t index = static_cast<std::size_t>(
            &event - schedule_.events().data());
        const sim::SimTime next = ctx_.sim().now() + event.period;
        if (next < event.at + event.duration) {
          ctx_.sim().scheduleAtTagged(
              next,
              sim::makeTag(sim::Component::kFault, kToggleEvent, index));
        }
      }
      break;
    }
    case FaultKind::kDup:
    case FaultKind::kReorder: {
      GrayWindow window;
      window.event = &event;
      // Edge/node scoping only (user=, user=+peer=); unscoped windows match
      // every message, so no victim draw (and no RNG perturbation).
      window.victims = event.user.valid() ? drawVictims(event, false)
                                          : std::vector<UserId>{};
      std::sort(window.victims.begin(), window.victims.end(),
                [](UserId a, UserId b) { return a.value() < b.value(); });
      affected = window.victims.size();
      subject = window.victims.empty() ? 0 : window.victims.front().value();
      auto& windows =
          event.kind == FaultKind::kDup ? dupWindows_ : reorderWindows_;
      windows.push_back(std::move(window));
      break;
    }
    case FaultKind::kRejoin: {
      const std::vector<UserId> victims = drawVictims(event, true);
      for (const UserId victim : victims) {
        if (rejoins_ != nullptr) rejoins_->inc();
        if (rejoinHandler_) rejoinHandler_(victim);
      }
      affected = victims.size();
      subject = victims.empty() ? 0 : victims.front().value();
      break;
    }
  }

  ST_TRACE(ctx_.trace(), ctx_.sim().now(), kFault,
           static_cast<std::uint32_t>(event.kind), subject, affected);
}

void Injector::deactivate(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kCrash:
      break;  // instantaneous, never scheduled for deactivation
    case FaultKind::kBlackhole: {
      const auto it = std::find_if(
          blackholeVictims_.begin(), blackholeVictims_.end(),
          [&event](const auto& entry) { return entry.first == &event; });
      assert(it != blackholeVictims_.end());
      for (const UserId victim : it->second) {
        if (--blackholed_[victim.index()] == 0) --blackholedUsers_;
      }
      blackholeVictims_.erase(it);
      break;
    }
    case FaultKind::kLoss: {
      const auto it =
          std::find(activeLoss_.begin(), activeLoss_.end(), &event);
      assert(it != activeLoss_.end());
      activeLoss_.erase(it);
      break;
    }
    case FaultKind::kPartition: {
      for (const UserId member : partitionMembers(event)) {
        if (--isolated_[member.index()] == 0) --isolatedUsers_;
      }
      if (event.cutServer) --serverCuts_;
      break;
    }
    case FaultKind::kServerOutage: {
      --serverOutages_;
      break;
    }
    case FaultKind::kSlow:
    case FaultKind::kFlap:
    case FaultKind::kDup:
    case FaultKind::kReorder: {
      auto& windows = (event.kind == FaultKind::kDup) ? dupWindows_
                      : (event.kind == FaultKind::kReorder)
                          ? reorderWindows_
                          : slowWindows_;
      const auto it = std::find_if(
          windows.begin(), windows.end(),
          [&event](const GrayWindow& w) { return w.event == &event; });
      assert(it != windows.end());
      windows.erase(it);
      break;
    }
    case FaultKind::kRejoin:
      break;  // instantaneous, never scheduled for deactivation
  }
}

void Injector::toggleFlap(const FaultEvent& event) {
  const auto it = std::find_if(
      slowWindows_.begin(), slowWindows_.end(),
      [&event](const GrayWindow& w) { return w.event == &event; });
  assert(it != slowWindows_.end());
  it->applied = !it->applied;
  if (flapToggles_ != nullptr) flapToggles_->inc();
  const std::size_t index =
      static_cast<std::size_t>(&event - schedule_.events().data());
  const sim::SimTime next = ctx_.sim().now() + event.period;
  if (next < event.at + event.duration) {
    ctx_.sim().scheduleAtTagged(
        next, sim::makeTag(sim::Component::kFault, kToggleEvent, index));
  }
}

bool Injector::edgeMatches(const GrayWindow& window, EndpointId from,
                           EndpointId to) {
  const FaultEvent& event = *window.event;
  const auto less = [](UserId a, UserId b) { return a.value() < b.value(); };
  if (event.user.valid() && event.peer.valid()) {
    // Edge scope: only traffic between the two named users, either way.
    const std::uint32_t a = window.victims.front().value();
    const std::uint32_t b = window.victims.back().value();
    return (from.value() == a && to.value() == b) ||
           (from.value() == b && to.value() == a);
  }
  if (!event.user.valid() &&
      (event.kind == FaultKind::kDup || event.kind == FaultKind::kReorder)) {
    return true;  // unscoped delivery faults hit every edge
  }
  return std::binary_search(window.victims.begin(), window.victims.end(),
                            UserId{from.value()}, less) ||
         std::binary_search(window.victims.begin(), window.victims.end(),
                            UserId{to.value()}, less);
}

bool Injector::isolatedUser(EndpointId endpoint) const {
  const std::size_t index = endpoint.index();
  return index < isolated_.size() && isolated_[index] > 0;
}

net::MessageFaultHook::Decision Injector::onMessage(EndpointId from,
                                                    EndpointId to) {
  Decision decision;
  const EndpointId server = ctx_.serverEndpoint();
  const bool serverMessage = from == server || to == server;

  if (serverOutages_ > 0 && serverMessage) {
    decision.drop = true;
    return decision;
  }
  if (blackholedUsers_ > 0) {
    const auto holed = [this](EndpointId e) {
      return e.index() < blackholed_.size() && blackholed_[e.index()] > 0;
    };
    if (holed(from) || holed(to)) {
      decision.drop = true;
      return decision;
    }
  }
  if (isolatedUsers_ > 0) {
    if (serverMessage) {
      // The server is reachable from the island only when no active
      // partition severs it.
      const EndpointId peer = from == server ? to : from;
      if (serverCuts_ > 0 && isolatedUser(peer)) {
        decision.drop = true;
        return decision;
      }
    } else if (isolatedUser(from) != isolatedUser(to)) {
      decision.drop = true;
      return decision;
    }
  }
  // Loss windows draw from the injector RNG only while active, so a run
  // whose windows never overlap a message keeps every stream untouched.
  for (const FaultEvent* window : activeLoss_) {
    if (rng_.bernoulli(window->lossRate)) {
      decision.drop = true;
      return decision;
    }
    decision.addDelay(window->extraDelay);
  }
  // Gray failures: overlapping slow/flap windows compound multiplicatively.
  // The factor is recomputed per message from the active windows (never
  // accumulated incrementally), so flap toggles cannot drift the value.
  for (const GrayWindow& window : slowWindows_) {
    if (window.applied && edgeMatches(window, from, to)) {
      decision.delayFactor *= window.event->factor;
    }
  }
  // Delivery faults. The factor >= 1 and the reorder displacement > 0 keep
  // every delivery at or above the latency model's minimum, so the sharded
  // engine's lookahead floor still holds.
  for (const GrayWindow& window : dupWindows_) {
    if (!edgeMatches(window, from, to)) continue;
    if (rng_.bernoulli(window.event->lossRate) && !decision.duplicate) {
      decision.duplicate = true;
      if (dups_ != nullptr) dups_->inc();
    }
  }
  for (const GrayWindow& window : reorderWindows_) {
    if (!edgeMatches(window, from, to)) continue;
    if (window.event->extraDelay > 0 &&
        rng_.bernoulli(window.event->lossRate)) {
      // Uniform displacement in (0, delay_ms] — forward only, so the
      // reordering stays legal against undisplaced same-floor traffic.
      decision.addDelay(1 + static_cast<sim::SimTime>(rng_.uniformInt(
          static_cast<std::uint64_t>(window.event->extraDelay))));
      if (reorders_ != nullptr) reorders_->inc();
    }
  }
  return decision;
}

void Injector::saveState(snapshot::Writer& w) const {
  w.section(0x544c4146);  // "FALT"
  const FaultEvent* base = schedule_.events().data();
  w.u64(schedule_.events().size());
  w.boolean(armed_);
  snapshot::saveRngState(w, rng_.state());
  w.u64(blackholed_.size());
  for (const std::uint16_t count : blackholed_) w.u16(count);
  w.u32(blackholedUsers_);
  for (const std::uint16_t count : isolated_) w.u16(count);
  w.u32(isolatedUsers_);
  w.u32(serverCuts_);
  w.u32(serverOutages_);
  w.u64(activeLoss_.size());
  for (const FaultEvent* event : activeLoss_) {
    w.u64(static_cast<std::uint64_t>(event - base));
  }
  w.u64(blackholeVictims_.size());
  for (const auto& [event, victims] : blackholeVictims_) {
    w.u64(static_cast<std::uint64_t>(event - base));
    w.u64(victims.size());
    for (const UserId victim : victims) w.u32(victim.value());
  }
  const auto writeWindows = [&](const std::vector<GrayWindow>& windows) {
    w.u64(windows.size());
    for (const GrayWindow& window : windows) {
      w.u64(static_cast<std::uint64_t>(window.event - base));
      w.boolean(window.applied);
      w.u64(window.victims.size());
      for (const UserId victim : window.victims) w.u32(victim.value());
    }
  };
  writeWindows(slowWindows_);
  writeWindows(dupWindows_);
  writeWindows(reorderWindows_);
  w.boolean(recovery_ != nullptr);
  if (recovery_ != nullptr) recovery_->saveState(w);
}

bool Injector::loadState(snapshot::Reader& r) {
  r.section(0x544c4146, "fault injector");
  const std::uint64_t scheduleSize = r.u64();
  if (r.ok() && scheduleSize != schedule_.events().size()) {
    r.fail("fault schedule size mismatch (restore with the same --faults)");
    return false;
  }
  const bool armed = r.boolean();
  const Rng::State rng = snapshot::loadRngState(r);
  const std::size_t users = r.count(2);
  if (!r.ok() || users != blackholed_.size()) {
    r.fail("fault injector user count mismatch");
    return false;
  }
  std::vector<std::uint16_t> blackholed(users);
  for (std::uint16_t& count : blackholed) count = r.u16();
  const std::uint32_t blackholedUsers = r.u32();
  std::vector<std::uint16_t> isolated(users);
  for (std::uint16_t& count : isolated) count = r.u16();
  const std::uint32_t isolatedUsers = r.u32();
  const std::uint32_t serverCuts = r.u32();
  const std::uint32_t serverOutages = r.u32();
  const std::size_t lossCount = r.count(8);
  std::vector<const FaultEvent*> activeLoss;
  for (std::size_t i = 0; i < lossCount; ++i) {
    const std::uint64_t index = r.u64();
    if (r.ok() && index >= schedule_.events().size()) {
      r.fail("fault loss-window index out of range");
      return false;
    }
    activeLoss.push_back(&schedule_.events()[static_cast<std::size_t>(index)]);
  }
  const std::size_t blackholeCount = r.count(8 + 8);
  std::vector<std::pair<const FaultEvent*, std::vector<UserId>>> victims;
  for (std::size_t i = 0; i < blackholeCount; ++i) {
    const std::uint64_t index = r.u64();
    if (r.ok() && index >= schedule_.events().size()) {
      r.fail("fault blackhole index out of range");
      return false;
    }
    std::vector<UserId> list(r.count(4));
    for (UserId& victim : list) {
      victim = UserId{r.u32()};
      if (r.ok() && victim.index() >= users) {
        r.fail("fault blackhole victim out of range");
        return false;
      }
    }
    victims.emplace_back(&schedule_.events()[static_cast<std::size_t>(index)],
                         std::move(list));
  }
  const auto readWindows = [&](std::vector<GrayWindow>* out) {
    const std::size_t count = r.count(8 + 1 + 8);
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t index = r.u64();
      if (r.ok() && index >= schedule_.events().size()) {
        r.fail("fault gray-window index out of range");
        return false;
      }
      GrayWindow window;
      window.event = &schedule_.events()[static_cast<std::size_t>(index)];
      window.applied = r.boolean();
      window.victims.resize(r.count(4));
      for (UserId& victim : window.victims) {
        victim = UserId{r.u32()};
        if (r.ok() && victim.index() >= users) {
          r.fail("fault gray-window victim out of range");
          return false;
        }
      }
      out->push_back(std::move(window));
    }
    return r.ok();
  };
  std::vector<GrayWindow> slowWindows;
  std::vector<GrayWindow> dupWindows;
  std::vector<GrayWindow> reorderWindows;
  if (!readWindows(&slowWindows) || !readWindows(&dupWindows) ||
      !readWindows(&reorderWindows)) {
    return false;
  }
  const bool hasRecovery = r.boolean();
  if (r.ok() && hasRecovery != (recovery_ != nullptr)) {
    r.fail("recovery manager presence mismatch (restore with the same "
           "--faults)");
    return false;
  }
  if (hasRecovery && !recovery_->loadState(r)) return false;
  if (!r.ok()) return false;
  rng_.setState(rng);
  blackholed_ = std::move(blackholed);
  blackholedUsers_ = blackholedUsers;
  isolated_ = std::move(isolated);
  isolatedUsers_ = isolatedUsers;
  serverCuts_ = serverCuts;
  serverOutages_ = serverOutages;
  activeLoss_ = std::move(activeLoss);
  blackholeVictims_ = std::move(victims);
  slowWindows_ = std::move(slowWindows);
  dupWindows_ = std::move(dupWindows);
  reorderWindows_ = std::move(reorderWindows);
  if (armed && !armed_) {
    armed_ = true;
    ctx_.network().setFaultHook(this);
  }
  return true;
}

}  // namespace st::fault

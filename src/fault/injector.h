// Deterministic fault injection driven by a fault::Schedule.
//
// The injector turns scripted fault events into simulator events and a
// net::MessageFaultHook, so faults are part of the same deterministic event
// stream as the protocols: the same seed and spec reproduce the same drops,
// crashes, and windows bitwise, across thread counts (runs are parallel
// across seeds, each run single-threaded).
//
// Mechanics per kind:
//  * crash     — at t, a fraction of the online population departs
//    ungracefully (no goodbyes), via the crash handler (SessionDriver::
//    crashUser). Crash victims are drawn from the injector's own RNG stream.
//  * blackhole — window [t, t+dur): every message to or from the chosen
//    users (one explicit `user=`, or a random `frac` of the population)
//    vanishes.
//  * loss      — window [t, t+dur): every message is dropped with `rate`
//    probability and otherwise delayed by `delay_ms`, layered on top of the
//    run's LatencyModel. Overlapping windows compound.
//  * partition — window [t, t+dur): users whose primary interest is `cat`
//    are cut off from everyone else (overlapping partitions merge into one
//    island); with server=1 their server path is cut too.
//  * outage    — window [t, t+dur): all server traffic vanishes.
//  * slow      — window [t, t+dur): gray failure. Every message to or from
//    the chosen users (one `user=`, the `user=`/`peer=` edge, or a random
//    `frac`) takes `factor` times its modeled latency. The victim stays
//    alive to probes but violates deadlines, so protocols must route around
//    it via SLO scoring, not liveness checks. Latency-only by design: the
//    flow (bandwidth) plane restores completion handles from snapshots, so
//    mutating capacities mid-window would not round-trip (DESIGN.md §14).
//  * flap      — slow whose factor toggles on/off every `period`, modeling
//    a node that oscillates between healthy and degraded.
//  * dup       — window [t, t+dur): each matching message is delivered
//    twice with probability `rate` (the copy takes an independent latency
//    draw, so it can arrive before or after the original).
//  * reorder   — window [t, t+dur): each matching message is displaced
//    forward by a uniform draw in (0, delay_ms] with probability `rate` —
//    a legal reordering against undisplaced traffic.
//  * rejoin    — at t, crashed/offline users log back in with stale local
//    state (via the rejoin handler, normally SessionDriver::rejoinUser
//    plus RecoveryManager::onRejoin). One explicit `user=`, or `frac` of
//    the currently-offline population drawn from the injector RNG.
//
// An empty schedule arms nothing at all — no hook, no simulator events, no
// RNG draws — so a "none" run is bitwise-identical to a run without an
// injector. Per-kind counters are registered only when the schedule
// contains that kind, keeping counter snapshots of old-spec runs unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fault/schedule.h"
#include "net/network.h"
#include "obs/registry.h"
#include "snapshot/codec.h"
#include "util/rng.h"
#include "vod/context.h"

namespace st::fault {

class RecoveryManager;

class Injector final : public net::MessageFaultHook, public sim::EventFactory {
 public:
  // Tag kinds (Component::kFault) — append-only, stored in snapshots.
  // `a` is the event's index into the schedule, so restoring requires the
  // run to be armed with the identical fault spec.
  static constexpr std::uint8_t kActivateEvent = 0;
  static constexpr std::uint8_t kDeactivateEvent = 1;
  static constexpr std::uint8_t kToggleEvent = 2;  // flap phase flip

  Injector(vod::SystemContext& ctx, Schedule schedule, std::uint64_t seed);
  ~Injector() override;

  [[nodiscard]] sim::Callback rebuild(const sim::EventTag& tag) override;
  [[nodiscard]] bool onRestored(const sim::EventTag& tag,
                                sim::EventHandle handle) override;
  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  // Who to call for each crash victim (normally SessionDriver::crashUser).
  // Crash events with no handler still count victims but touch nobody.
  void setCrashHandler(std::function<void(UserId)> handler) {
    crashHandler_ = std::move(handler);
  }

  // Who to call for each rejoin victim (normally SessionDriver::rejoinUser
  // chained with RecoveryManager::onRejoin). Victims are users that are
  // offline at event time; the handler logs them back in with whatever
  // stale state the system kept for them.
  void setRejoinHandler(std::function<void(UserId)> handler) {
    rejoinHandler_ = std::move(handler);
  }

  // The recovery manager (created by the runner when the schedule has
  // rejoin events) piggybacks its state on the injector's snapshot section,
  // so the component table keeps its fixed shape. Presence must match
  // between save and load — both sides derive it from the same schedule.
  void setRecovery(RecoveryManager* recovery) { recovery_ = recovery; }

  // Installs the message hook and schedules every event. Call once, before
  // Simulator::run(). A no-event schedule installs nothing.
  void arm();

  // net::MessageFaultHook: consulted for every message while armed.
  Decision onMessage(EndpointId from, EndpointId to) override;

  [[nodiscard]] std::uint64_t crashesInjected() const {
    return crashes_->value();
  }
  [[nodiscard]] std::uint64_t activations() const { return events_->value(); }
  [[nodiscard]] std::uint64_t rejoinsInjected() const {
    return rejoins_ != nullptr ? rejoins_->value() : 0;
  }
  [[nodiscard]] std::uint64_t duplicatesInjected() const {
    return dups_ != nullptr ? dups_->value() : 0;
  }
  [[nodiscard]] std::uint64_t reordersInjected() const {
    return reorders_ != nullptr ? reorders_->value() : 0;
  }
  [[nodiscard]] std::uint64_t flapTogglesInjected() const {
    return flapToggles_ != nullptr ? flapToggles_->value() : 0;
  }

  // Serializes the fault RNG and all active-window state (references to
  // schedule events stored as indices). Restoring installs the message hook
  // when the saved run was armed — do NOT also call arm(); the pending
  // activate/deactivate events come back with the simulator queue. Fails if
  // this injector's schedule size differs from the saved run's.
  void saveState(snapshot::Writer& w) const;
  bool loadState(snapshot::Reader& r);

 private:
  void activate(const FaultEvent& event);
  void deactivate(const FaultEvent& event);
  void toggleFlap(const FaultEvent& event);
  [[nodiscard]] bool isolatedUser(EndpointId endpoint) const;
  // The user set a blackhole/partition event affects (resolved lazily so
  // activation and deactivation agree without storing per-event state).
  [[nodiscard]] std::vector<UserId> partitionMembers(
      const FaultEvent& event) const;
  // Victims of a targeted event (explicit user= wrapped into range, or a
  // frac draw over the population / the offline population for rejoin).
  [[nodiscard]] std::vector<UserId> drawVictims(const FaultEvent& event,
                                                bool offlineOnly);

  // Does a dup/reorder/slow window apply to a from→to message? Unscoped
  // windows match everything; user= windows match messages touching the
  // victim set; user=+peer= windows match only that edge (both directions).
  struct GrayWindow;
  [[nodiscard]] static bool edgeMatches(const GrayWindow& window,
                                        EndpointId from, EndpointId to);

  vod::SystemContext& ctx_;
  Schedule schedule_;
  Rng rng_;
  std::function<void(UserId)> crashHandler_;
  std::function<void(UserId)> rejoinHandler_;
  RecoveryManager* recovery_ = nullptr;
  bool armed_ = false;

  // Active-window state. Counts (not flags) so overlapping windows nest.
  std::vector<std::uint16_t> blackholed_;  // per user
  std::uint32_t blackholedUsers_ = 0;      // users with count > 0
  std::vector<std::uint16_t> isolated_;    // per user
  std::uint32_t isolatedUsers_ = 0;
  std::uint32_t serverCuts_ = 0;    // partitions with server=1
  std::uint32_t serverOutages_ = 0;
  std::vector<const FaultEvent*> activeLoss_;
  // Blackhole victim sets are drawn at activation and must be released
  // identically at deactivation; keyed by event address (events live in
  // schedule_ for the injector's lifetime).
  std::vector<std::pair<const FaultEvent*, std::vector<UserId>>>
      blackholeVictims_;

  // Gray (slow/flap) and delivery-fault (dup/reorder) windows, keyed by
  // event address like blackholeVictims_. `applied` is the flap phase —
  // always true for the other kinds. Victim lists are sorted for binary
  // search; an empty list with an invalid event->user means "match all"
  // (dup/reorder with no user= scope).
  struct GrayWindow {
    const FaultEvent* event = nullptr;
    std::vector<UserId> victims;  // sorted
    bool applied = true;
  };
  std::vector<GrayWindow> slowWindows_;     // slow + flap
  std::vector<GrayWindow> dupWindows_;      // dup
  std::vector<GrayWindow> reorderWindows_;  // reorder

  obs::Counter* crashes_;  // "fault.crashes"
  obs::Counter* events_;   // "fault.events"
  // Per-kind counters, registered only when the schedule contains the kind
  // (null otherwise) so old-spec counter snapshots are unchanged.
  obs::Counter* rejoins_ = nullptr;      // "fault.rejoins"
  obs::Counter* dups_ = nullptr;         // "fault.dup_messages"
  obs::Counter* reorders_ = nullptr;     // "fault.reordered"
  obs::Counter* flapToggles_ = nullptr;  // "fault.flap_toggles"
};

}  // namespace st::fault

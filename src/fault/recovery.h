// Anti-entropy recovery for crash-rejoin faults.
//
// A `rejoin:` fault event brings a crashed node back online with whatever
// stale per-node state the system kept for it — dead overlay links, a cache
// directory the server no longer agrees with, watchers that moved on. The
// RecoveryManager drives the node back to a clean structural state: every
// round it calls the system's reconcile() hook (re-announce, overlay-link
// audit, cache revalidation) and then re-audits the node; rounds repeat on
// a fixed cadence until the node's slice of the invariant report is clean
// (or a bounded number of rounds passes, at which point the ordinary
// InvariantChecker will confirm whatever is still broken).
//
// The re-audit is the scoped audit (VodSystem::auditUser and
// TransferManager::auditUser into a report scoped to the node): exactly
// the violations the full audit reports that name the node, as actor or as
// a user subject, at the cost of the node's neighborhood plus one linear
// pass over the link and watch lists, not a walk over every node.
//
// The manager is deterministic (no RNG) and snapshot-able: per-user round
// progress serializes inside the injector's FALT section (see
// Injector::setRecovery), and the pending round events ride the simulator
// queue as Component::kRecovery tags. It is only constructed when the fault
// schedule contains rejoin events, so its counters never appear in
// old-spec or calm runs.
#pragma once

#include <cstdint>
#include <map>

#include "obs/registry.h"
#include "snapshot/codec.h"
#include "vod/context.h"
#include "vod/system.h"
#include "vod/transfer.h"

namespace st::fault {

struct RecoveryOptions {
  // Cadence between reconciliation rounds for one rejoined user.
  sim::SimTime roundInterval = 30 * sim::kSecond;
  // Give up after this many rounds (the checker then owns the violation).
  std::uint32_t maxRounds = 8;
  // Staleness horizon for the per-user audit; 0 derives probeInterval + 1s,
  // matching the InvariantChecker's default repair horizon.
  sim::SimTime graceHorizon = 0;
};

class RecoveryManager final : public sim::EventFactory {
 public:
  // Tag kind (Component::kRecovery) — append-only, stored in snapshots.
  static constexpr std::uint8_t kRoundEvent = 0;  // a = user id

  RecoveryManager(vod::SystemContext& ctx, vod::VodSystem& system,
                  vod::TransferManager& transfers,
                  RecoveryOptions options = {});
  ~RecoveryManager() override;
  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  [[nodiscard]] sim::Callback rebuild(const sim::EventTag& tag) override;

  // A rejoin fault brought `user` back: start (or restart) its
  // reconciliation rounds. Wire this into Injector::setRejoinHandler after
  // SessionDriver::rejoinUser so the node is online before round one.
  void onRejoin(UserId user);

  [[nodiscard]] std::uint64_t roundsRun() const { return roundsRun_->value(); }
  [[nodiscard]] std::uint64_t usersRecovered() const {
    return recovered_->value();
  }
  [[nodiscard]] std::uint64_t usersAbandoned() const {
    return abandoned_->value();
  }

  // Field-level (sectionless) serialization, nested inside the injector's
  // FALT section. Pending round events restore with the simulator queue.
  void saveState(snapshot::Writer& w) const;
  bool loadState(snapshot::Reader& r);

 private:
  void runRound(UserId user);
  // Is the rejoined node's slice of the structural audit clean (no
  // violation names this user; see vod::AuditViolation::names)?
  [[nodiscard]] bool userClean(UserId user);

  vod::SystemContext& ctx_;
  vod::VodSystem& system_;
  vod::TransferManager& transfers_;
  RecoveryOptions options_;
  sim::SimTime horizon_;
  // user id -> rounds already run. Ordered map: serialization iterates it.
  std::map<std::uint32_t, std::uint32_t> rounds_;
  obs::Counter* roundsRun_;  // "recovery.rounds"
  obs::Counter* recovered_;  // "recovery.recovered"
  obs::Counter* abandoned_;  // "recovery.abandoned"
};

}  // namespace st::fault

#include "fault/recovery.h"

#include <cassert>

namespace st::fault {

RecoveryManager::RecoveryManager(vod::SystemContext& ctx,
                                 vod::VodSystem& system,
                                 vod::TransferManager& transfers,
                                 RecoveryOptions options)
    : ctx_(ctx),
      system_(system),
      transfers_(transfers),
      options_(options),
      horizon_(options.graceHorizon > 0
                   ? options.graceHorizon
                   : ctx.config().probeInterval + sim::kSecond),
      roundsRun_(&ctx.metrics().registry().counter("recovery.rounds")),
      recovered_(&ctx.metrics().registry().counter("recovery.recovered")),
      abandoned_(&ctx.metrics().registry().counter("recovery.abandoned")) {
  ctx_.sim().registerFactory(sim::Component::kRecovery, this);
}

RecoveryManager::~RecoveryManager() {
  if (ctx_.sim().factory(sim::Component::kRecovery) == this) {
    ctx_.sim().registerFactory(sim::Component::kRecovery, nullptr);
  }
}

sim::Callback RecoveryManager::rebuild(const sim::EventTag& tag) {
  assert(tag.kind == kRoundEvent && "unknown recovery event kind");
  const UserId user{static_cast<std::uint32_t>(tag.a)};
  return [this, user] { runRound(user); };
}

void RecoveryManager::onRejoin(UserId user) {
  const auto it = rounds_.find(user.value());
  if (it != rounds_.end()) {
    // Already recovering (rejoined twice inside one loop): restart the
    // round budget; the pending round event keeps the cadence.
    it->second = 0;
    return;
  }
  rounds_.emplace(user.value(), 0);
  ctx_.sim().scheduleTagged(
      options_.roundInterval,
      sim::makeTag(sim::Component::kRecovery, kRoundEvent, user.value()));
}

bool RecoveryManager::userClean(UserId user) {
  const sim::SimTime now = ctx_.sim().now();
  vod::AuditReport report(now, now - horizon_, user);
  system_.auditUser(report, user);
  transfers_.auditUser(report, user);
  return report.clean();
}

void RecoveryManager::runRound(UserId user) {
  const auto it = rounds_.find(user.value());
  if (it == rounds_.end()) return;  // already settled
  if (!ctx_.isOnline(user)) {
    // Crashed again mid-recovery; the next rejoin restarts from scratch.
    rounds_.erase(it);
    return;
  }
  roundsRun_->inc();
  system_.reconcile(user);
  ++it->second;
  // The reconcile pass above is asynchronous (probes and re-announcements
  // are in flight), so the node may only audit clean on a later round.
  if (userClean(user)) {
    recovered_->inc();
    rounds_.erase(it);
    return;
  }
  if (it->second >= options_.maxRounds) {
    // Stop churning; whatever is left is a real violation and the
    // InvariantChecker will confirm it against the repair horizon.
    abandoned_->inc();
    rounds_.erase(it);
    return;
  }
  ctx_.sim().scheduleTagged(
      options_.roundInterval,
      sim::makeTag(sim::Component::kRecovery, kRoundEvent, user.value()));
}

void RecoveryManager::saveState(snapshot::Writer& w) const {
  w.u64(rounds_.size());
  for (const auto& [user, roundCount] : rounds_) {
    w.u32(user);
    w.u32(roundCount);
  }
}

bool RecoveryManager::loadState(snapshot::Reader& r) {
  const std::size_t count = r.count(4 + 4);
  std::map<std::uint32_t, std::uint32_t> rounds;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t user = r.u32();
    const std::uint32_t roundCount = r.u32();
    if (!r.ok()) return false;
    if (user >= ctx_.catalog().userCount()) {
      r.fail("recovery round user out of range");
      return false;
    }
    // saveState writes the ledger in ascending user order.
    if (!rounds.empty() && user <= rounds.rbegin()->first) {
      r.fail("recovery ledger users not ascending");
      return false;
    }
    rounds.emplace_hint(rounds.end(), user, roundCount);
  }
  if (!r.ok()) return false;
  rounds_ = std::move(rounds);
  return true;
}

}  // namespace st::fault

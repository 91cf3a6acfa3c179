#include "fault/invariants.h"

#include <cassert>
#include <utility>

namespace st::fault {

InvariantChecker::InvariantChecker(vod::SystemContext& ctx,
                                   vod::VodSystem& system,
                                   vod::TransferManager& transfers,
                                   CheckerOptions options)
    : ctx_(ctx),
      system_(system),
      transfers_(transfers),
      options_(std::move(options)),
      horizon_(options_.graceHorizon > 0
                   ? options_.graceHorizon
                   : ctx.config().probeInterval + sim::kSecond),
      audits_(&ctx.metrics().registry().counter("invariant.audits")),
      violations_(&ctx.metrics().registry().counter("invariant.violations")) {
  ctx_.sim().registerFactory(sim::Component::kInvariants, this);
}

InvariantChecker::~InvariantChecker() {
  if (ctx_.sim().factory(sim::Component::kInvariants) == this) {
    ctx_.sim().registerFactory(sim::Component::kInvariants, nullptr);
  }
}

sim::Callback InvariantChecker::rebuild(const sim::EventTag& tag) {
  (void)tag;
  assert(tag.kind == kAuditEvent && "unknown invariant event kind");
  return [this] { auditNow(); };
}

void InvariantChecker::arm() {
  if (options_.auditInterval <= 0) return;
  ctx_.sim().schedulePeriodicTagged(
      options_.auditInterval,
      sim::makeTag(sim::Component::kInvariants, kAuditEvent));
}

std::vector<vod::AuditViolation> InvariantChecker::auditNow() {
  audits_->inc();
  const sim::SimTime now = ctx_.sim().now();
  vod::AuditReport report(now, now - horizon_);
  system_.auditInvariants(report);
  transfers_.auditInvariants(report);

  std::vector<vod::AuditViolation> confirmed;
  std::map<SuspectKey, sim::SimTime> stillSuspect;
  for (const vod::AuditViolation& violation : report.violations()) {
    if (!violation.transient) {
      confirmed.push_back(violation);
      continue;
    }
    SuspectKey key{violation.rule, violation.actor, violation.subject};
    const auto it = suspects_.find(key);
    const sim::SimTime firstSeen = it != suspects_.end() ? it->second : now;
    stillSuspect.emplace(std::move(key), firstSeen);
    if (now - firstSeen >= horizon_) confirmed.push_back(violation);
  }
  // Suspects absent from this audit healed; forget them so a later
  // recurrence restarts its persistence clock.
  suspects_ = std::move(stillSuspect);

  for (const vod::AuditViolation& violation : confirmed) {
    violations_->inc();
    ST_TRACE(ctx_.trace(), now, kViolation, violation.actor,
             violation.subject, 0);
    if (options_.onViolation) options_.onViolation(violation);
  }
  return confirmed;
}

void InvariantChecker::saveState(snapshot::Writer& w) const {
  w.section(0x52415649);  // "IVAR"
  w.u64(suspects_.size());
  for (const auto& [key, firstSeen] : suspects_) {
    w.str(std::get<0>(key));
    w.u32(std::get<1>(key));
    w.u32(std::get<2>(key));
    w.i64(firstSeen);
  }
}

bool InvariantChecker::loadState(snapshot::Reader& r) {
  r.section(0x52415649, "invariant checker");
  const std::size_t n = r.count(8 + 4 + 4 + 8);
  std::map<SuspectKey, sim::SimTime> suspects;
  for (std::size_t i = 0; i < n; ++i) {
    std::string rule = r.str();
    const std::uint32_t actor = r.u32();
    const std::uint32_t subject = r.u32();
    const sim::SimTime firstSeen = r.i64();
    if (!r.ok()) return false;
    SuspectKey key{std::move(rule), actor, subject};
    // saveState writes the table in ascending key order.
    if (!suspects.empty() && !(suspects.rbegin()->first < key)) {
      r.fail("invariant checker suspect keys not ascending");
      return false;
    }
    suspects.emplace_hint(suspects.end(), std::move(key), firstSeen);
  }
  if (!r.ok()) return false;
  suspects_ = std::move(suspects);
  return true;
}

}  // namespace st::fault

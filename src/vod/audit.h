// Structural-invariant audit report shared by every VoD system.
//
// The paper's overlay has a machine-checkable contract (§IV-A): bounded
// inner/inter link budgets, symmetric links, inter-links only into sibling
// channels of the same interest category, and no links to nodes that
// departed longer ago than one probe round can tolerate. Each system's
// auditInvariants() walks its own state and appends violations here; the
// fault::InvariantChecker drives the walk periodically and decides which
// violations are real.
//
// Two severities:
//  * violate()          — unconditionally wrong the instant it is observed
//    (an oversized link set, a watch owned by an offline user).
//  * violateTransient() — wrong only if it *persists*: in-flight goodbye
//    messages and not-yet-probed stale links legitimately look broken for a
//    bounded window. The checker confirms these only when the same
//    (rule, actor, subject) triple stays violated for longer than the
//    repair horizon.
//
// Every violation's actor is a user. Its subject is a user only for the
// rules that name a counterpart node (a neighbor, a watch owner, a
// provider): those call the UserId overloads, and the violation records the
// kind. A report built with a scope user keeps only the violations that
// name that user (AuditViolation::names); it collects the scoped audits
// (auditUser) that fault::RecoveryManager runs per rejoined user.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "util/strong_id.h"

namespace st::vod {

struct AuditViolation {
  std::string rule;           // stable identifier, e.g. "st.inner_cap"
  std::uint32_t actor = 0;    // the user whose state is wrong
  std::uint32_t subject = 0;  // counterpart (rule-specific, see userSubject)
  bool transient = false;     // confirm-on-persistence (see header comment)
  // True when `subject` is a user id; otherwise it is a video or channel
  // id, a list size, or 0.
  bool userSubject = false;

  // Does the violation name `user`, as its actor or as a user subject?
  [[nodiscard]] bool names(UserId user) const {
    return actor == user.value() || (userSubject && subject == user.value());
  }
};

class AuditReport {
 public:
  AuditReport(sim::SimTime now, sim::SimTime staleBefore,
              UserId scope = UserId::invalid())
      : now_(now), staleBefore_(staleBefore), scope_(scope) {}

  [[nodiscard]] sim::SimTime now() const { return now_; }
  // Links to nodes offline since before this instant are past the repair
  // horizon and must have been probed out already.
  [[nodiscard]] sim::SimTime staleBefore() const { return staleBefore_; }

  // The subject is another user.
  void violate(std::string rule, UserId actor, UserId subject) {
    add({std::move(rule), actor.value(), subject.value(), false, true});
  }
  void violateTransient(std::string rule, UserId actor, UserId subject) {
    add({std::move(rule), actor.value(), subject.value(), true, true});
  }
  // The subject is a video or channel id, a list size, or 0.
  void violate(std::string rule, UserId actor, std::uint32_t subject) {
    add({std::move(rule), actor.value(), subject, false, false});
  }
  void violateTransient(std::string rule, UserId actor,
                        std::uint32_t subject) {
    add({std::move(rule), actor.value(), subject, true, false});
  }

  [[nodiscard]] const std::vector<AuditViolation>& violations() const {
    return violations_;
  }
  [[nodiscard]] bool clean() const { return violations_.empty(); }

 private:
  void add(AuditViolation violation) {
    if (scope_.valid() && !violation.names(scope_)) return;
    violations_.push_back(std::move(violation));
  }

  sim::SimTime now_;
  sim::SimTime staleBefore_;
  UserId scope_;  // invalid: the full audit keeps every violation
  std::vector<AuditViolation> violations_;
};

}  // namespace st::vod

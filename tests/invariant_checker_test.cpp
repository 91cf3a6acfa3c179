// InvariantChecker coverage: green on healthy overlays for all three
// systems, seeded corruptions are detected (instantly or after the
// transient grace horizon), and the repair-horizon regression — stale links
// left by an abrupt departure must be probed out within one probe interval.
#include "fault/invariants.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "baselines/nettube.h"
#include "baselines/pavod.h"
#include "core/socialtube.h"
#include "fault/recovery.h"
#include "harness.h"

namespace st::fault {
namespace {

using st::testing::Stack;
using st::testing::miniCatalog;

bool hasRule(const std::vector<vod::AuditViolation>& violations,
             const std::string& rule) {
  return std::any_of(violations.begin(), violations.end(),
                     [&rule](const vod::AuditViolation& v) {
                       return v.rule == rule;
                     });
}

// Drives a realistic mixed workload through any VodSystem: everyone logs
// in, then users watch videos from their home-category channels so links,
// caches, directories, and watch state all get populated.
void populate(Stack& stack, vod::VodSystem& system, std::size_t watches = 12) {
  const std::size_t users = stack.catalog().userCount();
  for (std::size_t u = 0; u < users; ++u) {
    const UserId user{static_cast<std::uint32_t>(u)};
    stack.ctx().setOnline(user, true);
    system.onLogin(user);
  }
  stack.settle();
  const std::size_t channels = stack.catalog().channelCount();
  for (std::size_t i = 0; i < watches; ++i) {
    const UserId user{static_cast<std::uint32_t>(i % users)};
    const auto& channel =
        stack.catalog().channel(ChannelId{static_cast<std::uint32_t>(
            (user.index() % 2) * (channels / 2) + i % (channels / 2))});
    system.requestVideo(user, channel.videos[i % channel.videos.size()]);
    stack.settle();
  }
}

// A healthy overlay must stay green through audits spread across more than
// one grace horizon: instant rules on every audit, transient rules once
// persistence could have confirmed them.
void expectGreen(Stack& stack, vod::VodSystem& system) {
  CheckerOptions options;
  std::vector<vod::AuditViolation> confirmed;
  options.onViolation = [&confirmed](const vod::AuditViolation& v) {
    confirmed.push_back(v);
  };
  InvariantChecker checker(stack.ctx(), system, stack.transfers(),
                           std::move(options));
  EXPECT_TRUE(checker.auditNow().empty());
  stack.sim().runUntil(stack.sim().now() + checker.graceHorizon() +
                       sim::kSecond);
  EXPECT_TRUE(checker.auditNow().empty());
  EXPECT_EQ(checker.violationsConfirmed(), 0u);
  for (const vod::AuditViolation& v : confirmed) {
    ADD_FAILURE() << v.rule << " actor=" << v.actor
                  << " subject=" << v.subject;
  }
}

TEST(InvariantCheckerHealthy, SocialTubeStaysGreen) {
  Stack stack(miniCatalog(12, 2, 3, 8));
  core::SocialTubeSystem system(stack.ctx(), stack.transfers());
  populate(stack, system);
  expectGreen(stack, system);
}

TEST(InvariantCheckerHealthy, NetTubeStaysGreen) {
  Stack stack(miniCatalog(12, 2, 3, 8));
  baselines::NetTubeSystem system(stack.ctx(), stack.transfers());
  populate(stack, system);
  expectGreen(stack, system);
}

TEST(InvariantCheckerHealthy, PaVodStaysGreen) {
  Stack stack(miniCatalog(12, 2, 3, 8));
  baselines::PaVodSystem system(stack.ctx(), stack.transfers());
  populate(stack, system);
  expectGreen(stack, system);
}

TEST(InvariantCheckerHealthy, PeriodicArmAuditsOnSchedule) {
  Stack stack(miniCatalog(12, 2, 3, 8));
  core::SocialTubeSystem system(stack.ctx(), stack.transfers());
  populate(stack, system);
  CheckerOptions options;
  options.auditInterval = sim::kMinute;
  InvariantChecker checker(stack.ctx(), system, stack.transfers(),
                           std::move(options));
  checker.arm();
  stack.sim().runUntil(stack.sim().now() + 5 * sim::kMinute + sim::kSecond);
  EXPECT_GE(checker.auditsRun(), 5u);
  EXPECT_EQ(checker.violationsConfirmed(), 0u);
}

// --- seeded corruptions -------------------------------------------------------

TEST(InvariantCheckerCorruption, OversizedLinkSetConfirmsInstantly) {
  Stack stack(miniCatalog(14, 2, 3, 8));
  core::SocialTubeSystem system(stack.ctx(), stack.transfers());
  populate(stack, system);
  // Blow past the hard cap (2 * N_l) with one-sided links; the cap breach
  // must confirm on the very first audit, no persistence needed.
  const UserId victim{0};
  const std::size_t cap = stack.config().innerLinks * 2;
  const auto& existing = system.innerNeighbors(victim);
  std::uint32_t next = 1;
  while (system.innerNeighbors(victim).size() <= cap) {
    const UserId neighbor{next++};
    ASSERT_LT(next, stack.catalog().userCount());
    if (neighbor == victim ||
        std::find(existing.begin(), existing.end(), neighbor) !=
            existing.end()) {
      continue;
    }
    system.injectLinkForTest(victim, neighbor, /*inner=*/true);
  }
  InvariantChecker checker(stack.ctx(), system, stack.transfers(), {});
  const auto confirmed = checker.auditNow();
  EXPECT_TRUE(hasRule(confirmed, "st.inner_cap"));
  EXPECT_GT(checker.violationsConfirmed(), 0u);
}

TEST(InvariantCheckerCorruption, AsymmetricLinkConfirmsAfterGrace) {
  // Probes off (huge interval) so nothing heals the corruption; a short
  // explicit grace horizon keeps the test fast.
  vod::VodConfig config;
  config.probeInterval = 2 * sim::kHour;
  Stack stack(miniCatalog(12, 2, 3, 8), config);
  core::SocialTubeSystem system(stack.ctx(), stack.transfers());
  populate(stack, system);

  const UserId alice{0};
  UserId bob = UserId::invalid();  // any online user alice is NOT linked to
  for (std::uint32_t u = 1; u < stack.catalog().userCount(); ++u) {
    const auto& inner = system.innerNeighbors(alice);
    const auto& inter = system.interNeighbors(alice);
    if (std::find(inner.begin(), inner.end(), UserId{u}) == inner.end() &&
        std::find(inter.begin(), inter.end(), UserId{u}) == inter.end()) {
      bob = UserId{u};
      break;
    }
  }
  ASSERT_TRUE(bob.valid());
  system.injectLinkForTest(alice, bob, /*inner=*/true);

  CheckerOptions options;
  options.graceHorizon = 2 * sim::kSecond;
  InvariantChecker checker(stack.ctx(), system, stack.transfers(),
                           std::move(options));
  // First audit: the asymmetry is only a suspect, nothing confirms.
  EXPECT_FALSE(hasRule(checker.auditNow(), "st.inner_asym"));
  // Still broken one grace horizon later: now it is real.
  stack.sim().runUntil(stack.sim().now() + 3 * sim::kSecond);
  EXPECT_TRUE(hasRule(checker.auditNow(), "st.inner_asym"));
  EXPECT_GT(checker.violationsConfirmed(), 0u);
}

TEST(InvariantCheckerCorruption, DanglingWatchOnOfflineUserIsInstant) {
  Stack stack(miniCatalog(12, 2, 3, 8));
  core::SocialTubeSystem system(stack.ctx(), stack.transfers());
  populate(stack, system);
  // User 11 participated in populate(); force them offline and graft a
  // watch onto them — exactly the state a missed onUserOffline would leak.
  const UserId ghost{11};
  stack.ctx().setOnline(ghost, false);
  stack.transfers().onUserOffline(ghost);
  system.onLogout(ghost, /*graceful=*/true);
  stack.transfers().injectWatchForTest(ghost, VideoId{0});
  InvariantChecker checker(stack.ctx(), system, stack.transfers(), {});
  EXPECT_TRUE(hasRule(checker.auditNow(), "tm.offline_watch"));
}

// --- recovery verdicts --------------------------------------------------------

// A rejoined user is dirty only when a violation names them. Ids of another
// kind that happen to equal the user's id do not count: here an offline
// user's leaked watch reports its video, whose id equals the rejoined
// user's, as the subject of tm.offline_watch.
TEST(RecoveryVerdict, UnrelatedIdEqualToTheUserDoesNotHoldThemDirty) {
  Stack stack(miniCatalog(12, 2, 3, 8));
  core::SocialTubeSystem system(stack.ctx(), stack.transfers());
  populate(stack, system);
  RecoveryManager recovery(stack.ctx(), system, stack.transfers());

  const UserId ghost{11};
  stack.ctx().setOnline(ghost, false);
  stack.transfers().onUserOffline(ghost);
  system.onLogout(ghost, /*graceful=*/true);
  const UserId rejoined{3};
  stack.transfers().injectWatchForTest(ghost, VideoId{rejoined.value()});
  stack.settle();

  recovery.onRejoin(rejoined);
  stack.sim().runUntil(stack.sim().now() + 5 * sim::kMinute);
  EXPECT_EQ(recovery.roundsRun(), 1u);
  EXPECT_EQ(recovery.usersRecovered(), 1u);
  EXPECT_EQ(recovery.usersAbandoned(), 0u);
}

// --- repair-horizon regression ------------------------------------------------

// The bug: onLogout(user, graceful=false) sends no goodbyes, so neighbors
// keep links to the departed node. The probe round must sweep those within
// one interval — and the checker's default horizon is calibrated to exactly
// that promise.
TEST(RepairHorizon, AbruptDepartureLinksSweptWithinOneProbeInterval) {
  vod::VodConfig config;
  config.probeInterval = 2 * sim::kMinute;
  Stack stack(miniCatalog(12, 2, 3, 8), config);
  core::SocialTubeSystem system(stack.ctx(), stack.transfers());
  for (std::uint32_t u = 0; u < stack.catalog().userCount(); ++u) {
    stack.ctx().setOnline(UserId{u}, true);
    system.onLogin(UserId{u});
  }
  stack.settle();

  // Two users watching the same unpopular video form a mutual inner link
  // (the channel-overlay search connects requester to provider).
  const UserId alice{0};
  const UserId bob{1};
  const VideoId shared = stack.catalog().channel(ChannelId{0}).videos[7];
  system.requestVideo(alice, shared);
  stack.settle();
  system.requestVideo(bob, shared);
  stack.settle();
  {
    const auto& links = system.innerNeighbors(alice);
    ASSERT_NE(std::find(links.begin(), links.end(), bob), links.end())
        << "workload formed no link";
  }

  // Bob vanishes without goodbyes; alice's link is now stale.
  stack.ctx().setOnline(bob, false);
  stack.transfers().onUserOffline(bob);
  system.onLogout(bob, /*graceful=*/false);
  const auto& links = system.innerNeighbors(alice);
  ASSERT_NE(std::find(links.begin(), links.end(), bob), links.end())
      << "abrupt logout should leave the neighbor's link stale";

  // One probe interval (plus slack) later the sweep has dropped it...
  stack.sim().runUntil(stack.sim().now() + config.probeInterval +
                       2 * sim::kSecond);
  const auto& after = system.innerNeighbors(alice);
  EXPECT_EQ(std::find(after.begin(), after.end(), bob), after.end());
  // ...and a checker with the default (probeInterval-derived) horizon sees
  // a clean overlay.
  InvariantChecker checker(stack.ctx(), system, stack.transfers(), {});
  EXPECT_EQ(checker.graceHorizon(), config.probeInterval + sim::kSecond);
  EXPECT_TRUE(checker.auditNow().empty());
}

// The hardened probe also heals link-state corruption that never involved a
// departure: a one-sided link to a live peer is detected (no reciprocity in
// the probe response) and dropped by the next round.
TEST(RepairHorizon, ProbeSweepsAsymmetricLinkToLivePeer) {
  vod::VodConfig config;
  config.probeInterval = 2 * sim::kMinute;
  Stack stack(miniCatalog(12, 2, 3, 8), config);
  core::SocialTubeSystem system(stack.ctx(), stack.transfers());
  populate(stack, system);

  const UserId alice{0};
  UserId mark = UserId::invalid();
  for (std::uint32_t u = 1; u < stack.catalog().userCount(); ++u) {
    const auto& inner = system.innerNeighbors(alice);
    if (std::find(inner.begin(), inner.end(), UserId{u}) == inner.end()) {
      mark = UserId{u};
      break;
    }
  }
  ASSERT_TRUE(mark.valid());
  system.injectLinkForTest(alice, mark, /*inner=*/true);

  stack.sim().runUntil(stack.sim().now() + config.probeInterval +
                       2 * sim::kSecond);
  const auto& after = system.innerNeighbors(alice);
  EXPECT_EQ(std::find(after.begin(), after.end(), mark), after.end());
  InvariantChecker checker(stack.ctx(), system, stack.transfers(), {});
  EXPECT_TRUE(checker.auditNow().empty());
}

}  // namespace
}  // namespace st::fault

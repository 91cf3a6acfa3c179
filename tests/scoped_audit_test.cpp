// The scoped audit (VodSystem::auditUser plus TransferManager::auditUser
// into a report scoped to one user) must report exactly what the full audit
// reports about that user: the violations whose actor is the user, or whose
// subject is a user id equal to it. Part (a) seeds one corruption per rule
// that can name an online user, from the user's own state (actor side) and
// from another node's state (subject side), and asserts the named violation
// reaches the scoped report. Part (b) drives seeded random churn. After
// every step of both, each online user's scoped report must equal the
// filtered full audit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/nettube.h"
#include "baselines/pavod.h"
#include "core/socialtube.h"
#include "harness.h"
#include "util/rng.h"

namespace st::vod {
namespace {

using st::testing::Stack;
using st::testing::miniCatalog;

// Probes off (huge interval), so settles never heal a seeded corruption.
VodConfig quietConfig() {
  VodConfig config;
  config.probeInterval = 2 * sim::kHour;
  return config;
}

// Reports at the current instant with every offline neighbor already past
// the repair horizon, so the stale rules fire as soon as a link is stale.
AuditReport reportAt(Stack& stack, UserId scope = UserId::invalid()) {
  const sim::SimTime now = stack.sim().now();
  return AuditReport(now, now + 1, scope);
}

std::vector<AuditViolation> scopedAudit(Stack& stack, const VodSystem& system,
                                        UserId user) {
  AuditReport report = reportAt(stack, user);
  system.auditUser(report, user);
  stack.transfers().auditUser(report, user);
  return report.violations();
}

using Row = std::tuple<std::string, std::uint32_t, std::uint32_t, bool, bool>;

std::vector<Row> rows(const std::vector<AuditViolation>& violations) {
  std::vector<Row> out;
  for (const AuditViolation& v : violations) {
    out.emplace_back(v.rule, v.actor, v.subject, v.transient, v.userSubject);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<UserId> onlineUsers(Stack& stack) {
  std::vector<UserId> users;
  for (std::uint32_t u = 0; u < stack.catalog().userCount(); ++u) {
    if (stack.ctx().isOnline(UserId{u})) users.push_back(UserId{u});
  }
  return users;
}

// The differential check: each online user's scoped report equals the full
// audit filtered to the violations naming that user.
void expectScopedMatchesFull(Stack& stack, const VodSystem& system,
                             const std::string& step) {
  AuditReport full = reportAt(stack);
  system.auditInvariants(full);
  stack.transfers().auditInvariants(full);
  for (const UserId user : onlineUsers(stack)) {
    std::vector<AuditViolation> named;
    for (const AuditViolation& v : full.violations()) {
      if (v.actor == user.value() ||
          (v.userSubject && v.subject == user.value())) {
        named.push_back(v);
      }
    }
    EXPECT_EQ(rows(scopedAudit(stack, system, user)), rows(named))
        << step << ", user " << user.value();
  }
}

// The seeded violation reaches the scoped report of `user`, with its
// subject of the right kind.
void expectScoped(Stack& stack, const VodSystem& system, UserId user,
                  const std::string& rule, UserId actor,
                  std::uint32_t subject, bool userSubject) {
  const std::vector<AuditViolation> scoped = scopedAudit(stack, system, user);
  const bool found = std::any_of(
      scoped.begin(), scoped.end(), [&](const AuditViolation& v) {
        return v.rule == rule && v.actor == actor.value() &&
               v.subject == subject && v.userSubject == userSubject;
      });
  EXPECT_TRUE(found) << rule << " (" << actor.value() << ", " << subject
                     << ") missing from the scoped audit of user "
                     << user.value();
  expectScopedMatchesFull(stack, system, rule);
}

void login(Stack& stack, VodSystem& system, UserId user) {
  stack.ctx().setOnline(user, true);
  system.onLogin(user);
}

void logout(Stack& stack, VodSystem& system, UserId user, bool graceful) {
  stack.ctx().setOnline(user, false);
  stack.transfers().onUserOffline(user);
  system.onLogout(user, graceful);
}

// Some video of the user's home-category channels (miniCatalog: user i's
// home category is i % categories, channels laid out category-major).
VideoId homeVideo(Stack& stack, UserId user, std::size_t pick) {
  const trace::Catalog& catalog = stack.catalog();
  const std::size_t perCategory =
      catalog.channelCount() / catalog.categoryCount();
  const std::size_t category = user.index() % catalog.categoryCount();
  const ChannelId channel{static_cast<std::uint32_t>(
      category * perCategory + pick % perCategory)};
  const auto& videos = catalog.channel(channel).videos;
  return videos[pick % videos.size()];
}

// Everyone logs in, then users watch so links, caches, directories and
// watch state all get populated.
void populate(Stack& stack, VodSystem& system) {
  for (std::uint32_t u = 0; u < stack.catalog().userCount(); ++u) {
    login(stack, system, UserId{u});
  }
  stack.settle();
  for (std::uint32_t i = 0; i < 14; ++i) {
    const UserId user{i % static_cast<std::uint32_t>(
                              stack.catalog().userCount())};
    system.requestVideo(user, homeVideo(stack, user, i));
    stack.settle();
  }
}

// Online users outside `used`, in id order.
std::vector<UserId> spareUsers(Stack& stack, const std::vector<UserId>& used) {
  std::vector<UserId> spare;
  for (const UserId user : onlineUsers(stack)) {
    if (std::find(used.begin(), used.end(), user) == used.end()) {
      spare.push_back(user);
    }
  }
  return spare;
}

// The TransferManager rules, seeded on any system's stack with four online
// users the system-specific steps left alone: a watch filed under another
// user but owned by `user` (subject side), a duplicated watch and a flow
// fed by a dead peer (actor side), and an offline user's watch whose video
// id equals `user`'s id (a non-user subject that must not count as naming
// `user`).
void seedWatchRules(Stack& stack, VodSystem& system,
                    const std::vector<UserId>& spare) {
  ASSERT_GE(spare.size(), 4u);
  const UserId user = spare[0];
  const UserId other = spare[1];
  const UserId provider = spare[2];
  const UserId ghost = spare[3];
  const VideoId video = homeVideo(stack, user, 5);

  stack.transfers().injectWatchForTest(other, video, /*owner=*/user);
  expectScoped(stack, system, user, "tm.watch_owner", other, user.value(),
               true);

  stack.transfers().injectWatchForTest(user, video);
  stack.transfers().injectWatchForTest(user, video);
  expectScoped(stack, system, user, "tm.dup_watch", user, video.value(),
               false);

  logout(stack, system, ghost, /*graceful=*/true);
  stack.transfers().injectWatchForTest(ghost, VideoId{user.value()});
  expectScopedMatchesFull(stack, system, "tm.offline_watch");
  for (const AuditViolation& v : scopedAudit(stack, system, user)) {
    EXPECT_NE(v.rule, "tm.offline_watch") << "actor " << v.actor;
  }

  // A live peer download, then the provider vanishes without the transfer
  // layer hearing of it (a missed onUserOffline).
  TransferManager::WatchRequest request;
  request.user = user;
  request.video = homeVideo(stack, user, 6);
  request.provider = provider;
  request.requestTime = stack.sim().now();
  stack.transfers().startWatch(std::move(request));
  stack.ctx().setOnline(provider, false);
  expectScoped(stack, system, user, "tm.dead_provider", user,
               provider.value(), true);
}

template <typename List>
bool holds(const List& list, UserId user) {
  return std::find(list.begin(), list.end(), user) != list.end();
}

// An online user other than `user` with no link to or from it.
UserId strangerOf(Stack& stack, const core::SocialTubeSystem& system,
                  UserId user, UserId skip = UserId::invalid()) {
  for (const UserId x : onlineUsers(stack)) {
    if (x == user || x == skip) continue;
    if (!holds(system.innerNeighbors(user), x) &&
        !holds(system.interNeighbors(user), x) &&
        !holds(system.innerNeighbors(x), user) &&
        !holds(system.interNeighbors(x), user)) {
      return x;
    }
  }
  ADD_FAILURE() << "no stranger of user " << user.value();
  return UserId::invalid();
}

TEST(ScopedAuditSeeded, SocialTubeReportsEveryRuleNamingAnOnlineUser) {
  Stack stack(miniCatalog(14, 2, 3, 8), quietConfig());
  core::SocialTubeSystem system(stack.ctx(), stack.transfers());
  populate(stack, system);
  expectScopedMatchesFull(stack, system, "healthy");

  const UserId u{0};
  const UserId x = strangerOf(stack, system, u);
  ASSERT_TRUE(x.valid());
  // Subject side: another node lists u one-sidedly, then twice.
  system.injectLinkForTest(x, u, /*inner=*/true);
  expectScoped(stack, system, u, "st.inner_asym", x, u.value(), true);
  system.injectLinkForTest(x, u, /*inner=*/true);
  expectScoped(stack, system, u, "st.inner_dup", x, u.value(), true);

  // Actor side: u's own lists.
  const UserId y = strangerOf(stack, system, u, x);
  ASSERT_TRUE(y.valid());
  system.injectLinkForTest(u, y, /*inner=*/false);
  expectScoped(stack, system, u, "st.inter_asym", u, y.value(), true);
  system.injectLinkForTest(u, y, /*inner=*/false);
  expectScoped(stack, system, u, "st.inter_dup", u, y.value(), true);
  system.injectLinkForTest(u, u, /*inner=*/true);
  expectScoped(stack, system, u, "st.inner_self", u, u.value(), true);

  const UserId z = strangerOf(stack, system, u, x);
  ASSERT_TRUE(z.valid());
  system.injectLinkForTest(u, z, /*inner=*/true);
  logout(stack, system, z, /*graceful=*/false);
  expectScoped(stack, system, u, "st.inner_stale", u, z.value(), true);

  const std::size_t cap = stack.config().innerLinks * 2;
  for (std::uint32_t next = 1; system.innerNeighbors(u).size() <= cap;
       ++next) {
    system.injectLinkForTest(u, UserId{next}, /*inner=*/true);
  }
  expectScoped(stack, system, u, "st.inner_cap", u,
               static_cast<std::uint32_t>(system.innerNeighbors(u).size()),
               false);

  // A node the server forgot while it stays online: every subscription is
  // missing, and its goodbyes leave one-sided links behind it.
  const UserId w = spareUsers(stack, {u, x, y}).front();
  system.onLogout(w, /*graceful=*/true);
  const ChannelId sub = stack.catalog().user(w).subscriptions.front();
  expectScoped(stack, system, w, "st.directory_missing_sub", w, sub.value(),
               false);

  seedWatchRules(stack, system, spareUsers(stack, {u, x, y, w}));
}

TEST(ScopedAuditSeeded, NetTubeReportsEveryRuleNamingAnOnlineUser) {
  Stack stack(miniCatalog(14, 2, 3, 8), quietConfig());
  baselines::NetTubeSystem system(stack.ctx(), stack.transfers());
  populate(stack, system);
  expectScopedMatchesFull(stack, system, "healthy");

  // Injected links go into overlays of videos nobody watched, so no real
  // link (or its reciprocal) shares them.
  const UserId u{0};
  const UserId x{7};
  const VideoId quiet = stack.catalog().channel(ChannelId{5}).videos[7];
  system.injectLinkForTest(x, u, quiet);
  expectScoped(stack, system, u, "nt.asym_link", x, u.value(), true);
  system.injectLinkForTest(x, u, quiet);
  expectScoped(stack, system, u, "nt.dup_link", x, u.value(), true);

  system.injectLinkForTest(u, UserId{9}, quiet);
  expectScoped(stack, system, u, "nt.asym_link", u, 9, true);
  system.injectLinkForTest(u, UserId{9}, quiet);
  expectScoped(stack, system, u, "nt.dup_link", u, 9, true);
  system.injectLinkForTest(u, u, quiet);
  expectScoped(stack, system, u, "nt.self_link", u, quiet.value(), false);

  const UserId z{11};
  system.injectLinkForTest(u, z, quiet);
  logout(stack, system, z, /*graceful=*/false);
  expectScoped(stack, system, u, "nt.stale_link", u, z.value(), true);

  const VideoId crowded = stack.catalog().channel(ChannelId{3}).videos[7];
  for (std::uint32_t next = 1;
       next <= stack.config().linksPerVideoOverlay + 1; ++next) {
    system.injectLinkForTest(u, UserId{next}, crowded);
  }
  expectScoped(stack, system, u, "nt.overlay_cap", u, crowded.value(), false);

  const VideoId uncached = stack.catalog().channel(ChannelId{2}).videos[7];
  ASSERT_FALSE(system.cache(u).contains(uncached));
  system.injectRegistrationForTest(u, uncached);
  expectScoped(stack, system, u, "nt.directory_uncached", u,
               uncached.value(), false);

  seedWatchRules(stack, system, spareUsers(stack, {u, x, UserId{9}}));
}

TEST(ScopedAuditSeeded, PaVodReportsEveryRuleNamingAnOnlineUser) {
  Stack stack(miniCatalog(14, 2, 3, 8), quietConfig());
  baselines::PaVodSystem system(stack.ctx(), stack.transfers());
  populate(stack, system);
  expectScopedMatchesFull(stack, system, "healthy");

  // No session driver ends playback here, so every completed watcher stays
  // advertised. A second login without a logout resets the node's watch
  // state behind the server's back.
  UserId watcher = UserId::invalid();
  VideoId video = VideoId::invalid();
  system.watchers().forEach([&](UserId member, VideoId advertised) {
    if (!watcher.valid()) {
      watcher = member;
      video = advertised;
    }
  });
  ASSERT_TRUE(watcher.valid()) << "workload advertised no watcher";
  system.onLogin(watcher);
  expectScoped(stack, system, watcher, "pv.watcher_wrong_video", watcher,
               video.value(), false);

  seedWatchRules(stack, system, spareUsers(stack, {watcher}));
}

// --- (b) random churn ---------------------------------------------------------

// Seeded churn: logins, abrupt and graceful logouts, watches, settles of
// random length (so in-flight joins, goodbyes and transfers are audited),
// leaked duplicate watches, and one system-specific corruption.
void churn(Stack& stack, VodSystem& system, std::uint64_t seed,
           const std::function<void(UserId, UserId)>& corrupt) {
  Rng rng(seed);
  const auto users = static_cast<std::uint32_t>(stack.catalog().userCount());
  for (std::uint32_t u = 0; u < users; u += 2) login(stack, system, UserId{u});
  stack.settle();
  constexpr int kSteps = 240;
  for (int step = 0; step < kSteps; ++step) {
    const UserId user{static_cast<std::uint32_t>(rng.uniformInt(users))};
    const bool online = stack.ctx().isOnline(user);
    const double draw = rng.uniform();
    std::string what;
    if (!online && draw < 0.6) {
      login(stack, system, user);
      what = "login";
    } else if (online && draw < 0.15) {
      const bool graceful = rng.bernoulli(0.5);
      logout(stack, system, user, graceful);
      what = graceful ? "graceful logout" : "abrupt logout";
    } else if (online && draw < 0.55) {
      system.requestVideo(user, homeVideo(stack, user, rng.uniformInt(48)));
      what = "watch";
    } else if (online && draw < 0.6) {
      corrupt(user, UserId{static_cast<std::uint32_t>(rng.uniformInt(users))});
      what = "corruption";
    } else if (online && draw < 0.63) {
      const VideoId video = homeVideo(stack, user, rng.uniformInt(48));
      stack.transfers().injectWatchForTest(user, video);
      stack.transfers().injectWatchForTest(user, video);
      what = "duplicate watch";
    } else {
      const sim::SimTime horizon = static_cast<sim::SimTime>(
          rng.uniformInt(std::int64_t{1}, std::int64_t{120'000})) *
          sim::kMillisecond;
      stack.settle(horizon);
      what = "settle";
    }
    expectScopedMatchesFull(stack, system,
                            "step " + std::to_string(step) + " (" + what +
                                ", user " + std::to_string(user.value()) +
                                ")");
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(ScopedAuditChurn, SocialTubeMatchesFilteredFullAudit) {
  for (const std::uint64_t seed : {1u, 2u}) {
    Stack stack(miniCatalog(14, 2, 3, 8), VodConfig{}, seed);
    core::SocialTubeSystem system(stack.ctx(), stack.transfers());
    // Up to the hard cap only: the protocol never grows a list past it,
    // so the list's slice keeps room.
    const std::size_t cap = stack.config().innerLinks * 2;
    churn(stack, system, seed, [&](UserId user, UserId other) {
      if (system.innerNeighbors(user).size() < cap) {
        system.injectLinkForTest(user, other, /*inner=*/true);
      }
    });
  }
}

TEST(ScopedAuditChurn, NetTubeMatchesFilteredFullAudit) {
  for (const std::uint64_t seed : {1u, 2u}) {
    Stack stack(miniCatalog(14, 2, 3, 8), VodConfig{}, seed);
    baselines::NetTubeSystem system(stack.ctx(), stack.transfers());
    churn(stack, system, seed, [&](UserId user, UserId other) {
      system.injectLinkForTest(user, other, homeVideo(stack, user, 7));
    });
  }
}

TEST(ScopedAuditChurn, PaVodMatchesFilteredFullAudit) {
  for (const std::uint64_t seed : {1u, 2u}) {
    Stack stack(miniCatalog(14, 2, 3, 8), VodConfig{}, seed);
    baselines::PaVodSystem system(stack.ctx(), stack.transfers());
    // A login without the logout: the node forgets its watch while the
    // server still advertises it.
    churn(stack, system, seed,
          [&](UserId user, UserId) { system.onLogin(user); });
  }
}

}  // namespace
}  // namespace st::vod

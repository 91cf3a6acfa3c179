// Deterministic fault injection: spec parsing, per-kind fault mechanics at
// exact sim-times, and the reproducibility contract — a faulted run is
// bitwise-identical across thread counts, and a no-op schedule is
// bitwise-identical to a run without the injector at all.
#include "fault/injector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/socialtube.h"
#include "exp/multiseed.h"
#include "exp/runner.h"
#include "fault/schedule.h"
#include "harness.h"
#include "obs/event_trace.h"

namespace st::fault {
namespace {

using st::testing::Stack;
using st::testing::miniCatalog;

// --- Schedule parsing ---------------------------------------------------------

Schedule parseOrDie(std::string_view spec) {
  Schedule schedule;
  std::string error;
  EXPECT_TRUE(Schedule::parse(spec, &schedule, &error)) << error;
  return schedule;
}

TEST(ScheduleParse, EmptyAndNoneAreValidNoOps) {
  for (const char* spec : {"", "none", "  none  ", "   "}) {
    Schedule schedule;
    std::string error;
    EXPECT_TRUE(Schedule::parse(spec, &schedule, &error)) << spec;
    EXPECT_TRUE(schedule.empty()) << spec;
  }
}

TEST(ScheduleParse, SingleCrashEventWithDefaults) {
  const Schedule schedule = parseOrDie("crash:t=3600,frac=0.2");
  ASSERT_EQ(schedule.events().size(), 1u);
  const FaultEvent& event = schedule.events()[0];
  EXPECT_EQ(event.kind, FaultKind::kCrash);
  EXPECT_EQ(event.at, sim::fromSeconds(3600));
  EXPECT_DOUBLE_EQ(event.fraction, 0.2);
  EXPECT_FALSE(event.user.valid());
}

TEST(ScheduleParse, AllKindsParseAndSortByTime) {
  const Schedule schedule = parseOrDie(
      "crash:t=3600,frac=0.2;"
      "loss:t=4000,dur=300,rate=0.3,delay_ms=50;"
      "blackhole:t=100,dur=60,user=7;"
      "partition:t=200,dur=60,cat=1,server=1;"
      "outage:t=10,dur=5");
  ASSERT_EQ(schedule.events().size(), 5u);
  // Stably sorted by time.
  for (std::size_t i = 1; i < schedule.events().size(); ++i) {
    EXPECT_LE(schedule.events()[i - 1].at, schedule.events()[i].at);
  }
  EXPECT_EQ(schedule.events()[0].kind, FaultKind::kServerOutage);
  EXPECT_EQ(schedule.events()[1].kind, FaultKind::kBlackhole);
  EXPECT_EQ(schedule.events()[1].user, UserId{7});
  EXPECT_EQ(schedule.events()[2].kind, FaultKind::kPartition);
  EXPECT_EQ(schedule.events()[2].category, CategoryId{1});
  EXPECT_TRUE(schedule.events()[2].cutServer);
  EXPECT_EQ(schedule.events()[3].kind, FaultKind::kCrash);
  EXPECT_EQ(schedule.events()[4].kind, FaultKind::kLoss);
  EXPECT_DOUBLE_EQ(schedule.events()[4].lossRate, 0.3);
  EXPECT_EQ(schedule.events()[4].extraDelay, sim::fromMillis(50));
}

TEST(ScheduleParse, GrayDeliveryAndRejoinKindsParse) {
  const Schedule schedule = parseOrDie(
      "slow:t=100,dur=60,user=3,peer=5,factor=8;"
      "flap:t=200,dur=120,frac=0.2,factor=6,period=15;"
      "dup:t=300,rate=0.5;"
      "reorder:t=400,dur=90,rate=0.4,delay_ms=150;"
      "rejoin:t=500,frac=1");
  ASSERT_EQ(schedule.events().size(), 5u);
  const FaultEvent& slow = schedule.events()[0];
  EXPECT_EQ(slow.kind, FaultKind::kSlow);
  EXPECT_EQ(slow.user, UserId{3});
  EXPECT_EQ(slow.peer, UserId{5});
  EXPECT_DOUBLE_EQ(slow.factor, 8.0);
  const FaultEvent& flap = schedule.events()[1];
  EXPECT_EQ(flap.kind, FaultKind::kFlap);
  EXPECT_DOUBLE_EQ(flap.factor, 6.0);
  EXPECT_EQ(flap.period, sim::fromSeconds(15));
  EXPECT_DOUBLE_EQ(flap.fraction, 0.2);
  const FaultEvent& dup = schedule.events()[2];
  EXPECT_EQ(dup.kind, FaultKind::kDup);
  EXPECT_DOUBLE_EQ(dup.lossRate, 0.5);
  EXPECT_EQ(dup.duration, 600 * sim::kSecond);  // default window
  EXPECT_FALSE(dup.user.valid());               // unscoped: every edge
  const FaultEvent& reorder = schedule.events()[3];
  EXPECT_EQ(reorder.kind, FaultKind::kReorder);
  EXPECT_EQ(reorder.extraDelay, sim::fromMillis(150));
  const FaultEvent& rejoin = schedule.events()[4];
  EXPECT_EQ(rejoin.kind, FaultKind::kRejoin);
  EXPECT_DOUBLE_EQ(rejoin.fraction, 1.0);
}

TEST(ScheduleParse, ReorderCarriesItsOwnDisplacementDefault) {
  // A zero-displacement reorder would be a no-op, so the kind defaults
  // delay_ms to 200 (explicit values still win, see the test above).
  const Schedule schedule = parseOrDie("reorder:t=10,rate=0.3");
  ASSERT_EQ(schedule.events().size(), 1u);
  EXPECT_EQ(schedule.events()[0].extraDelay, sim::fromMillis(200));
}

TEST(ScheduleParse, WhitespaceAroundTokensIsIgnored) {
  const Schedule schedule = parseOrDie("  crash : t = 10 , frac = 0.5  ");
  ASSERT_EQ(schedule.events().size(), 1u);
  EXPECT_EQ(schedule.events()[0].at, sim::fromSeconds(10));
  EXPECT_DOUBLE_EQ(schedule.events()[0].fraction, 0.5);
}

TEST(ScheduleParse, MalformedSpecsErrorCleanly) {
  const char* bad[] = {
      "crash",                     // missing ':'
      "crash:",                    // empty field
      "crash:frac=0.2",            // missing required t
      "meteor:t=1",                // unknown kind
      "crash:t=1,zap=3",           // unknown key
      "crash:t=-5",                // negative time
      "crash:t=1,frac=1.5",        // fraction out of range
      "crash:t=1,frac=abc",        // non-numeric
      "loss:t=1,rate=2",           // rate out of range
      "loss:t=1,dur=0",            // zero-length window
      "partition:t=1",             // partition without cat
      "partition:t=1,cat=-2",      // signed id
      "blackhole:t=1,user=1e9x",   // trailing garbage
      "crash:t=1,server=2",        // server not 0/1
      "crash:t=1;;loss:t=2",       // empty event between semicolons
      "crash:t=1,",                // trailing comma -> empty field
      ";",                         // nothing but separators
      "slow:t=1,factor=0.5",       // stretch below 1 would speed links up
      "flap:t=1,period=0",         // zero flap period
      "flap:t=1,period=1e-9",      // period rounds to zero microseconds
      "dup:t=1,peer=3",            // peer without user: no edge to name
      "crash:t=1,user=1,peer=2",   // peer on a non-edge kind
      "slow:t=1,user=2,peer=2",    // degenerate edge (peer == user)
      "crash:t=inf",               // not a finite number
      "crash:t=nan",
      "crash:t=1e13",              // microseconds overflow SimTime
      "loss:t=5,dur=nan",
      "loss:t=5,dur=1e300",
      "crash:t=1,frac=nan",
      "loss:t=1,rate=nan",
      "slow:t=1,factor=nan",
      "flap:t=1,period=inf",
      "reorder:t=1,delay_ms=1e300",
      "loss:t=9e12,dur=9e12",       // window end overflows SimTime
      "slow:t=9.2e12,dur=5e10",     // so does a slow window's
      "flap:t=9e12,dur=1,period=9e12",  // a flip one period on overflows
  };
  for (const char* spec : bad) {
    Schedule schedule;
    std::string error;
    EXPECT_FALSE(Schedule::parse(spec, &schedule, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
    EXPECT_TRUE(schedule.empty()) << spec;
  }
}

// --- Injector mechanics (Stack-level) -----------------------------------------

// 20 users over 2 categories: user u's home category is u % 2.
class InjectorTest : public ::testing::Test {
 protected:
  InjectorTest() : stack_(miniCatalog(20, 2, 2, 4)) {}

  Injector makeInjector(std::string_view spec, std::uint64_t seed = 7) {
    return Injector(stack_.ctx(), parseOrDie(spec), seed);
  }

  void loginAll() {
    for (std::size_t u = 0; u < stack_.catalog().userCount(); ++u) {
      stack_.ctx().setOnline(UserId{static_cast<std::uint32_t>(u)}, true);
    }
  }

  void runTo(double seconds) {
    stack_.sim().runUntil(sim::fromSeconds(seconds));
  }

  Stack stack_;
};

TEST_F(InjectorTest, CrashWaveFiresAtScheduledTimeOnOnlinePopulation) {
  loginAll();
  Injector injector = makeInjector("crash:t=5,frac=0.5");
  std::vector<UserId> victims;
  std::vector<sim::SimTime> times;
  injector.setCrashHandler([&](UserId user) {
    victims.push_back(user);
    times.push_back(stack_.sim().now());
  });
  injector.arm();
  runTo(10);
  // floor(0.5 * 20 online users) victims, all at exactly t=5.
  ASSERT_EQ(victims.size(), 10u);
  EXPECT_EQ(injector.crashesInjected(), 10u);
  EXPECT_EQ(injector.activations(), 1u);
  for (const sim::SimTime t : times) EXPECT_EQ(t, sim::fromSeconds(5));
  // No duplicate victims.
  std::vector<UserId> sorted = victims;
  std::sort(sorted.begin(), sorted.end(),
            [](UserId a, UserId b) { return a.value() < b.value(); });
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST_F(InjectorTest, CrashDrawsOnlyFromOnlineUsers) {
  // Only users 0..4 online: a full-fraction wave crashes exactly those.
  for (std::uint32_t u = 0; u < 5; ++u) {
    stack_.ctx().setOnline(UserId{u}, true);
  }
  Injector injector = makeInjector("crash:t=1,frac=1");
  std::vector<UserId> victims;
  injector.setCrashHandler([&](UserId user) { victims.push_back(user); });
  injector.arm();
  runTo(2);
  ASSERT_EQ(victims.size(), 5u);
  for (const UserId v : victims) EXPECT_LT(v.value(), 5u);
}

TEST_F(InjectorTest, BlackholeWindowSilencesTheVictimBothWays) {
  Injector injector = makeInjector("blackhole:t=2,dur=3,user=4");
  injector.arm();
  const EndpointId victim{4};
  const EndpointId other{1};
  const EndpointId third{2};

  runTo(1);  // before the window
  EXPECT_FALSE(injector.onMessage(victim, other).drop);
  runTo(3);  // inside [2, 5)
  EXPECT_TRUE(injector.onMessage(victim, other).drop);
  EXPECT_TRUE(injector.onMessage(other, victim).drop);
  EXPECT_FALSE(injector.onMessage(other, third).drop);
  runTo(6);  // after the window
  EXPECT_FALSE(injector.onMessage(victim, other).drop);
  EXPECT_FALSE(injector.onMessage(other, victim).drop);
}

TEST_F(InjectorTest, LossWindowAddsDelayAndHonorsRateExtremes) {
  // rate=0 never drops but still applies the latency spike; a separate
  // rate=1 window always drops.
  Injector delayOnly = makeInjector("loss:t=1,dur=2,rate=0,delay_ms=50");
  delayOnly.arm();
  runTo(0.5);
  EXPECT_EQ(delayOnly.onMessage(EndpointId{0}, EndpointId{1}).extraDelay, 0);
  runTo(2);
  const auto decision = delayOnly.onMessage(EndpointId{0}, EndpointId{1});
  EXPECT_FALSE(decision.drop);
  EXPECT_EQ(decision.extraDelay, sim::fromMillis(50));
  runTo(4);
  EXPECT_EQ(delayOnly.onMessage(EndpointId{0}, EndpointId{1}).extraDelay, 0);
}

TEST_F(InjectorTest, FullLossWindowDropsEverything) {
  Stack other(miniCatalog(20, 2, 2, 4));
  Injector alwaysDrop(other.ctx(), parseOrDie("loss:t=1,dur=2,rate=1"), 7);
  alwaysDrop.arm();
  other.sim().runUntil(sim::fromSeconds(2));
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(alwaysDrop.onMessage(EndpointId{0}, EndpointId{1}).drop);
  }
}

TEST_F(InjectorTest, PartitionIsolatesTheInterestCluster) {
  // Home categories alternate (u % 2): isolating cat 0 cuts even users off
  // from odd users but leaves traffic within each side intact.
  Injector injector = makeInjector("partition:t=1,dur=5,cat=0");
  injector.arm();
  const EndpointId even0{0}, even2{2}, odd1{1}, odd3{3};
  const EndpointId server = stack_.ctx().serverEndpoint();

  runTo(2);
  EXPECT_TRUE(injector.onMessage(even0, odd1).drop);
  EXPECT_TRUE(injector.onMessage(odd1, even0).drop);
  EXPECT_FALSE(injector.onMessage(even0, even2).drop);
  EXPECT_FALSE(injector.onMessage(odd1, odd3).drop);
  // server=0: the island still reaches the origin server.
  EXPECT_FALSE(injector.onMessage(even0, server).drop);
  EXPECT_FALSE(injector.onMessage(server, even0).drop);
  runTo(7);
  EXPECT_FALSE(injector.onMessage(even0, odd1).drop);
}

TEST_F(InjectorTest, PartitionWithServerCutSeversOnlyTheIsland) {
  Injector injector = makeInjector("partition:t=1,dur=5,cat=0,server=1");
  injector.arm();
  const EndpointId server = stack_.ctx().serverEndpoint();
  runTo(2);
  EXPECT_TRUE(injector.onMessage(EndpointId{0}, server).drop);
  EXPECT_TRUE(injector.onMessage(server, EndpointId{0}).drop);
  EXPECT_FALSE(injector.onMessage(EndpointId{1}, server).drop);
  runTo(7);
  EXPECT_FALSE(injector.onMessage(EndpointId{0}, server).drop);
}

TEST_F(InjectorTest, OutageSilencesAllServerTraffic) {
  Injector injector = makeInjector("outage:t=1,dur=2");
  injector.arm();
  const EndpointId server = stack_.ctx().serverEndpoint();
  runTo(1.5);
  EXPECT_TRUE(injector.onMessage(EndpointId{0}, server).drop);
  EXPECT_TRUE(injector.onMessage(server, EndpointId{3}).drop);
  EXPECT_FALSE(injector.onMessage(EndpointId{0}, EndpointId{3}).drop);
  runTo(4);
  EXPECT_FALSE(injector.onMessage(EndpointId{0}, server).drop);
}

TEST_F(InjectorTest, SlowWindowStretchesLatencyOnlyWhileActive) {
  Injector injector = makeInjector("slow:t=2,dur=3,user=4,factor=8");
  injector.arm();
  const EndpointId victim{4};
  const EndpointId other{1};
  runTo(1);  // before the window
  EXPECT_DOUBLE_EQ(injector.onMessage(victim, other).delayFactor, 1.0);
  runTo(3);  // inside [2, 5)
  const auto decision = injector.onMessage(victim, other);
  EXPECT_FALSE(decision.drop);            // gray, not dead: nothing dropped
  EXPECT_EQ(decision.extraDelay, 0);      // stretch only, no additive spike
  EXPECT_DOUBLE_EQ(decision.delayFactor, 8.0);
  EXPECT_DOUBLE_EQ(injector.onMessage(other, victim).delayFactor, 8.0);
  EXPECT_DOUBLE_EQ(injector.onMessage(other, EndpointId{2}).delayFactor, 1.0);
  runTo(6);  // after the window
  EXPECT_DOUBLE_EQ(injector.onMessage(victim, other).delayFactor, 1.0);
}

TEST_F(InjectorTest, OverlappingSlowWindowsCompoundMultiplicatively) {
  Injector injector = makeInjector(
      "slow:t=1,dur=10,user=4,factor=4;slow:t=3,dur=10,user=4,factor=2");
  injector.arm();
  const EndpointId victim{4};
  const EndpointId other{1};
  runTo(2);  // only the first window is open
  EXPECT_DOUBLE_EQ(injector.onMessage(victim, other).delayFactor, 4.0);
  runTo(4);  // both open: factors multiply
  EXPECT_DOUBLE_EQ(injector.onMessage(victim, other).delayFactor, 8.0);
}

TEST_F(InjectorTest, EdgeScopedSlowHitsOnlyTheNamedPair) {
  Injector injector = makeInjector("slow:t=1,dur=5,user=3,peer=7,factor=8");
  injector.arm();
  runTo(2);
  EXPECT_DOUBLE_EQ(
      injector.onMessage(EndpointId{3}, EndpointId{7}).delayFactor, 8.0);
  EXPECT_DOUBLE_EQ(
      injector.onMessage(EndpointId{7}, EndpointId{3}).delayFactor, 8.0);
  // Either victim toward anyone else stays at full speed: the scope is the
  // edge, not the nodes.
  EXPECT_DOUBLE_EQ(
      injector.onMessage(EndpointId{3}, EndpointId{1}).delayFactor, 1.0);
  EXPECT_DOUBLE_EQ(
      injector.onMessage(EndpointId{1}, EndpointId{7}).delayFactor, 1.0);
}

TEST_F(InjectorTest, FlapOscillatesTheStretchAtPeriodBoundaries) {
  // Window [1, 7), period 2: the stretch applies on [1,3), lifts on [3,5),
  // re-applies on [5,7). The would-be toggle at t=7 lands on the window end
  // and is never scheduled.
  Injector injector = makeInjector("flap:t=1,dur=6,user=4,factor=6,period=2");
  injector.arm();
  const EndpointId victim{4};
  const EndpointId other{1};
  runTo(2);
  EXPECT_DOUBLE_EQ(injector.onMessage(victim, other).delayFactor, 6.0);
  runTo(4);
  EXPECT_DOUBLE_EQ(injector.onMessage(victim, other).delayFactor, 1.0);
  runTo(6);
  EXPECT_DOUBLE_EQ(injector.onMessage(victim, other).delayFactor, 6.0);
  runTo(8);  // window closed
  EXPECT_DOUBLE_EQ(injector.onMessage(victim, other).delayFactor, 1.0);
  EXPECT_EQ(injector.flapTogglesInjected(), 2u);
}

TEST_F(InjectorTest, DupWindowFlagsDuplicatesInsideTheWindowOnly) {
  Injector injector = makeInjector("dup:t=1,dur=4,rate=1");
  injector.arm();
  runTo(0.5);
  EXPECT_FALSE(injector.onMessage(EndpointId{0}, EndpointId{1}).duplicate);
  runTo(2);  // inside [1, 5)
  for (int i = 0; i < 10; ++i) {
    const auto decision = injector.onMessage(EndpointId{0}, EndpointId{9});
    EXPECT_TRUE(decision.duplicate);
    EXPECT_FALSE(decision.drop);        // a dup never loses the original
    EXPECT_EQ(decision.extraDelay, 0);  // the copy rides the same latency
  }
  EXPECT_EQ(injector.duplicatesInjected(), 10u);
  runTo(6);
  EXPECT_FALSE(injector.onMessage(EndpointId{0}, EndpointId{1}).duplicate);
}

TEST_F(InjectorTest, ReorderWindowDisplacesForwardWithinTheBound) {
  Injector injector = makeInjector("reorder:t=1,dur=4,rate=1,delay_ms=150");
  injector.arm();
  runTo(2);
  for (int i = 0; i < 20; ++i) {
    const auto decision = injector.onMessage(EndpointId{0}, EndpointId{1});
    EXPECT_FALSE(decision.drop);
    // Strictly forward displacement in (0, 150 ms]: never early, never
    // beyond the configured bound, so the latency model's minimum (and the
    // sharded engine's lookahead floor) still holds.
    EXPECT_GE(decision.extraDelay, 1);
    EXPECT_LE(decision.extraDelay, sim::fromMillis(150));
  }
  EXPECT_EQ(injector.reordersInjected(), 20u);
  runTo(6);
  EXPECT_EQ(injector.onMessage(EndpointId{0}, EndpointId{1}).extraDelay, 0);
}

TEST_F(InjectorTest, RejoinFiresOnlyForUsersWithOfflineHistory) {
  loginAll();
  runTo(1);
  // Users 2 and 5 drop offline mid-run; everyone else stays online and has
  // no offline history, so a full-fraction rejoin wave targets exactly the
  // two departed users.
  stack_.ctx().setOnline(UserId{2}, false);
  stack_.ctx().setOnline(UserId{5}, false);
  Injector injector = makeInjector("rejoin:t=5,frac=1");
  std::vector<UserId> rejoined;
  injector.setRejoinHandler([&](UserId user) { rejoined.push_back(user); });
  injector.arm();
  runTo(10);
  ASSERT_EQ(rejoined.size(), 2u);
  std::sort(rejoined.begin(), rejoined.end(),
            [](UserId a, UserId b) { return a.value() < b.value(); });
  EXPECT_EQ(rejoined[0], UserId{2});
  EXPECT_EQ(rejoined[1], UserId{5});
  EXPECT_EQ(injector.rejoinsInjected(), 2u);
  EXPECT_EQ(injector.activations(), 1u);
}

// --- No-op schedule == no injector (Stack-level bitwise identity) -------------

// Identical workloads, one stack with a "none" injector armed: every
// protocol counter and the simulator event count must match the
// injector-free stack exactly. Guards arm() against ever installing the
// hook or scheduling bookkeeping events for an empty schedule.
TEST(InjectorNoOp, NoneScheduleIsBitwiseInvisible) {
  const auto drive = [](Stack& stack) {
    core::SocialTubeSystem system(stack.ctx(), stack.transfers());
    for (std::uint32_t u = 0; u < 6; ++u) {
      stack.ctx().setOnline(UserId{u}, true);
      system.onLogin(UserId{u});
    }
    for (std::uint32_t u = 0; u < 6; ++u) {
      const auto& channel = stack.catalog().channel(ChannelId{u % 4});
      system.requestVideo(UserId{u}, channel.videos[u % channel.videos.size()]);
      stack.settle();
    }
    stack.settle(10 * sim::kMinute);
  };

  Stack plain(miniCatalog(12, 2, 2, 6));
  drive(plain);

  Stack faulted(miniCatalog(12, 2, 2, 6));
  Injector injector(faulted.ctx(), parseOrDie("none"), 42);
  injector.setCrashHandler([](UserId) { FAIL() << "no-op injector crashed"; });
  injector.arm();
  drive(faulted);

  EXPECT_EQ(injector.activations(), 0u);
  EXPECT_EQ(injector.crashesInjected(), 0u);
  EXPECT_EQ(plain.sim().eventsFired(), faulted.sim().eventsFired());
  // Full counter-set equality, minus the fault.* counters that exist only
  // because the injector object was constructed.
  const auto strip = [](const obs::Snapshot& snapshot) {
    std::vector<obs::Snapshot::Entry> kept;
    for (const auto& entry : snapshot.entries()) {
      if (entry.name.rfind("fault.", 0) != 0) kept.push_back(entry);
    }
    return kept;
  };
  const auto a = strip(plain.metrics().registry().snapshot());
  const auto b = strip(faulted.metrics().registry().snapshot());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].value, b[i].value) << a[i].name;
  }
}

// --- End-to-end via runExperiment ---------------------------------------------

exp::ExperimentConfig faultedTinyConfig() {
  exp::ExperimentConfig config = exp::ExperimentConfig::simulationDefaults(5);
  config = config.scaledTo(120, 2);
  config.duration = 2 * sim::kHour;
  config.faults.spec =
      "crash:t=600,frac=0.2;"
      "blackhole:t=1200,dur=300,frac=0.1;"
      "loss:t=1800,dur=300,rate=0.2,delay_ms=20;"
      "partition:t=2400,dur=300,cat=1;"
      "outage:t=3000,dur=120";
  return config;
}

TEST(FaultInjectionRun, EveryKindActivatesAtItsScheduledSimTime) {
  const exp::ExperimentConfig config = faultedTinyConfig();
  obs::EventTrace trace;
  const exp::ExperimentResult result =
      exp::runExperiment(config, exp::SystemKind::kSocialTube, nullptr, &trace);

  // One kFault activation per scheduled event; actor carries the kind.
  std::vector<std::pair<std::uint32_t, sim::SimTime>> fired;
  for (const obs::TraceEvent& event : trace.events()) {
    if (event.kind == obs::EventKind::kFault) {
      fired.emplace_back(event.actor, event.time);
    }
  }
#if ST_TRACE_ENABLED
  ASSERT_EQ(fired.size(), 5u);
  const std::pair<FaultKind, sim::SimTime> expected[] = {
      {FaultKind::kCrash, sim::fromSeconds(600)},
      {FaultKind::kBlackhole, sim::fromSeconds(1200)},
      {FaultKind::kLoss, sim::fromSeconds(1800)},
      {FaultKind::kPartition, sim::fromSeconds(2400)},
      {FaultKind::kServerOutage, sim::fromSeconds(3000)},
  };
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(fired[i].first, static_cast<std::uint32_t>(expected[i].first));
    EXPECT_EQ(fired[i].second, expected[i].second);
  }
#else
  // ST_TRACE=OFF compiles the trace call sites away; the counter is the
  // build-mode-independent record of the five activations.
  EXPECT_EQ(fired.size(), 0u);
  EXPECT_EQ(result.counter("fault.events"), 5u);
#endif
}

TEST(FaultInjectionRun, FaultedCountersRegisterAndCount) {
  const exp::ExperimentConfig config = faultedTinyConfig();
  const exp::ExperimentResult result =
      exp::runExperiment(config, exp::SystemKind::kSocialTube);
  EXPECT_TRUE(result.counters.has("fault.crashes"));
  EXPECT_TRUE(result.counters.has("fault.events"));
  EXPECT_EQ(result.counter("fault.events"), 5u);
  EXPECT_GT(result.counter("fault.crashes"), 0u);
  // Blackhole/partition/outage windows actually dropped traffic.
  EXPECT_GT(result.counter("messages_faulted"), 0u);
  // The run survived: watches kept completing after the fault windows.
  EXPECT_GT(result.watches(), 0u);
}

TEST(FaultInjectionRun, NoOpSpecMatchesInjectorFreeRunBitwise) {
  exp::ExperimentConfig plain = exp::ExperimentConfig::simulationDefaults(5);
  plain = plain.scaledTo(120, 2);
  plain.duration = 2 * sim::kHour;
  exp::ExperimentConfig noop = plain;
  noop.faults.spec = "none";
  const exp::ExperimentResult a =
      exp::runExperiment(plain, exp::SystemKind::kSocialTube);
  const exp::ExperimentResult b =
      exp::runExperiment(noop, exp::SystemKind::kSocialTube);
  EXPECT_TRUE(a.counters == b.counters);
  EXPECT_EQ(a.startupDelayMs.mean(), b.startupDelayMs.mean());
  EXPECT_EQ(a.uploadGini, b.uploadGini);
}

TEST(FaultInjectionRun, FaultedAggregatesBitwiseIdenticalAcrossThreads) {
  const exp::ExperimentConfig config = faultedTinyConfig();
  constexpr std::size_t kSeeds = 3;
  const auto sequential =
      exp::runSeeds(config, exp::SystemKind::kSocialTube, kSeeds, 1);
  const auto parallel =
      exp::runSeeds(config, exp::SystemKind::kSocialTube, kSeeds, 8);
  ASSERT_EQ(sequential.runs.size(), kSeeds);
  ASSERT_EQ(parallel.runs.size(), kSeeds);
  for (std::size_t i = 0; i < kSeeds; ++i) {
    const exp::ExperimentResult& a = sequential.runs[i];
    const exp::ExperimentResult& b = parallel.runs[i];
    EXPECT_EQ(a.seed, b.seed) << "run " << i;
    // Exact equality on purpose: the guarantee is bitwise, faults included.
    EXPECT_TRUE(a.counters == b.counters) << "run " << i;
    EXPECT_EQ(a.startupDelayMs.mean(), b.startupDelayMs.mean()) << "run " << i;
    EXPECT_EQ(a.aggregatePeerFraction(), b.aggregatePeerFraction())
        << "run " << i;
    EXPECT_GT(a.counter("fault.crashes"), 0u) << "run " << i;
  }
}

// --- Gray failures, delivery faults, and crash-rejoin end-to-end --------------

// A second messy config for the new fault families (faultedTinyConfig keeps
// its exact five-event shape: tests above pin fault.events == 5). Crash a
// third of the population, then rejoin every departed user while slow, flap,
// dup, and reorder windows are still churning the overlay.
exp::ExperimentConfig grayFaultedConfig() {
  exp::ExperimentConfig config = exp::ExperimentConfig::simulationDefaults(9);
  config = config.scaledTo(120, 2);
  config.duration = 2 * sim::kHour;
  config.faults.spec =
      "slow:t=600,dur=1200,frac=0.2,factor=8;"
      "flap:t=900,dur=900,frac=0.1,factor=6,period=60;"
      "dup:t=1200,dur=1800,rate=0.4;"
      "reorder:t=1200,dur=1800,rate=0.4,delay_ms=120;"
      "crash:t=2400,frac=0.3;"
      "rejoin:t=3600,frac=1";
  return config;
}

TEST(FaultInjectionRun, GrayDeliveryAndRejoinCountersRegisterAndCount) {
  const exp::ExperimentResult result =
      exp::runExperiment(grayFaultedConfig(), exp::SystemKind::kSocialTube);
  EXPECT_EQ(result.counter("fault.events"), 6u);
  // Every new family actually fired: messages were duplicated and displaced,
  // the flap victims oscillated, and departed users came back.
  EXPECT_GT(result.counter("fault.dup_messages"), 0u);
  EXPECT_GT(result.counter("fault.reordered"), 0u);
  EXPECT_GT(result.counter("fault.flap_toggles"), 0u);
  EXPECT_GT(result.counter("fault.rejoins"), 0u);
  // Rejoins started anti-entropy rounds and the horizon came clean for at
  // least some of them before the run ended.
  EXPECT_GT(result.counter("recovery.rounds"), 0u);
  EXPECT_GT(result.counter("recovery.recovered"), 0u);
  // The run survived the storm.
  EXPECT_GT(result.watches(), 0u);
  EXPECT_GT(result.sessionsCompleted(), 0u);
}

TEST(FaultInjectionRun, GrayFaultedAggregatesBitwiseIdenticalAcrossThreads) {
  const exp::ExperimentConfig config = grayFaultedConfig();
  constexpr std::size_t kSeeds = 3;
  const auto sequential =
      exp::runSeeds(config, exp::SystemKind::kSocialTube, kSeeds, 1);
  const auto parallel =
      exp::runSeeds(config, exp::SystemKind::kSocialTube, kSeeds, 8);
  ASSERT_EQ(sequential.runs.size(), kSeeds);
  ASSERT_EQ(parallel.runs.size(), kSeeds);
  for (std::size_t i = 0; i < kSeeds; ++i) {
    const exp::ExperimentResult& a = sequential.runs[i];
    const exp::ExperimentResult& b = parallel.runs[i];
    EXPECT_EQ(a.seed, b.seed) << "run " << i;
    // The gray windows and the recovery rounds both draw from per-run RNG
    // state, so the bitwise guarantee extends to the new families too.
    EXPECT_TRUE(a.counters == b.counters) << "run " << i;
    EXPECT_EQ(a.startupDelayMs.mean(), b.startupDelayMs.mean()) << "run " << i;
    EXPECT_EQ(a.aggregatePeerFraction(), b.aggregatePeerFraction())
        << "run " << i;
    EXPECT_GT(a.counter("fault.rejoins"), 0u) << "run " << i;
  }
}

// An empty fault schedule must be bitwise-inert not just on an unsharded
// run (NoOpSpecMatchesInjectorFreeRunBitwise above) but at every shard
// count and multi-seed worker count: the injector may not perturb the RNG,
// the registry, or the event order anywhere in the matrix.
TEST(FaultInjectionRun, NoOpSpecStaysInertAtEveryShardAndThreadCount) {
  exp::ExperimentConfig plain = exp::ExperimentConfig::simulationDefaults(5);
  // 240 users over 8 categories so every community is populated and
  // --shards 8 is accepted (an empty community would cap the shard count).
  plain = plain.scaledTo(240, 2);
  plain.trace.numCategories = 8;
  plain.duration = 2 * sim::kHour;
  constexpr std::size_t kSeeds = 2;
  for (const std::uint32_t shards : {0u, 1u, 8u}) {  // 0 = unsharded
    plain.shards.count = shards;
    exp::ExperimentConfig noop = plain;
    noop.faults.spec = "none";
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      const auto a =
          exp::runSeeds(plain, exp::SystemKind::kSocialTube, kSeeds, threads);
      const auto b =
          exp::runSeeds(noop, exp::SystemKind::kSocialTube, kSeeds, threads);
      ASSERT_EQ(a.runs.size(), kSeeds);
      ASSERT_EQ(b.runs.size(), kSeeds);
      for (std::size_t i = 0; i < kSeeds; ++i) {
        EXPECT_TRUE(a.runs[i].counters == b.runs[i].counters)
            << "shards " << shards << ", threads " << threads << ", run " << i;
        EXPECT_EQ(a.runs[i].startupDelayMs.mean(),
                  b.runs[i].startupDelayMs.mean())
            << "shards " << shards << ", threads " << threads << ", run " << i;
        EXPECT_EQ(a.runs[i].uploadGini, b.runs[i].uploadGini)
            << "shards " << shards << ", threads " << threads << ", run " << i;
        EXPECT_EQ(a.runs[i].overlayFingerprint, b.runs[i].overlayFingerprint)
            << "shards " << shards << ", threads " << threads << ", run " << i;
      }
    }
  }
}

}  // namespace
}  // namespace st::fault

#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/event_tag.h"
#include "sim/time.h"

namespace st::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, SameTimeEventsFireFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, NowAdvancesToEventTime) {
  Simulator sim;
  SimTime seen = -1;
  sim.schedule(42, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 42);
}

TEST(Simulator, NestedSchedulingFromCallback) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.schedule(10, [&] {
    times.push_back(sim.now());
    sim.schedule(5, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventHandle handle = sim.schedule(10, [&] { ran = true; });
  sim.cancel(handle);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelAfterFiringIsHarmless) {
  Simulator sim;
  int count = 0;
  const EventHandle handle = sim.schedule(10, [&] { ++count; });
  sim.run();
  sim.cancel(handle);  // already fired; must not affect anything
  sim.schedule(5, [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Simulator, CancelInvalidHandleIsNoop) {
  Simulator sim;
  sim.cancel(EventHandle{});
  EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulator, DoubleCancelIsHarmless) {
  Simulator sim;
  bool first = false;
  bool second = false;
  const EventHandle handle = sim.schedule(10, [&] { first = true; });
  sim.cancel(handle);
  // The slot is free; the next schedule may reuse it. A second cancel of the
  // stale handle must not touch the new occupant.
  const EventHandle other = sim.schedule(20, [&] { second = true; });
  sim.cancel(handle);
  sim.run();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
  (void)other;
}

TEST(Simulator, StaleHandleCannotCancelRecycledSlot) {
  Simulator sim;
  int lateFired = 0;
  const EventHandle early = sim.schedule(10, [] {});
  sim.run();  // `early` fired; its slot is released for reuse
  // This schedule recycles the freed slot; the generation stamp differs.
  const EventHandle late = sim.schedule(10, [&] { ++lateFired; });
  EXPECT_EQ(sim.pendingEvents(), 1u);
  sim.cancel(early);  // stale: must NOT cancel the recycled slot's event
  EXPECT_EQ(sim.pendingEvents(), 1u);
  sim.run();
  EXPECT_EQ(lateFired, 1);
  (void)late;
}

TEST(Simulator, CancelReflectsInPendingEventsImmediately) {
  Simulator sim;
  const EventHandle a = sim.schedule(10, [] {});
  sim.schedule(20, [] {});
  EXPECT_EQ(sim.pendingEvents(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pendingEvents(), 1u);  // exact count, not lazy
  sim.run();
  EXPECT_EQ(sim.pendingEvents(), 0u);
  EXPECT_EQ(sim.eventsFired(), 1u);
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  std::vector<SimTime> fired;
  sim.schedule(10, [&] { fired.push_back(10); });
  sim.schedule(20, [&] { fired.push_back(20); });
  sim.schedule(30, [&] { fired.push_back(30); });
  sim.runUntil(20);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(sim.now(), 20);
  sim.run();
  EXPECT_EQ(fired.back(), 30);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.runUntil(100);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.schedule(1, [&] { ++count; });
  sim.schedule(2, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, PeriodicFiresRepeatedly) {
  Simulator sim;
  int ticks = 0;
  sim.schedulePeriodic(10, [&] { ++ticks; });
  sim.runUntil(55);
  EXPECT_EQ(ticks, 5);  // at 10, 20, 30, 40, 50
}

TEST(Simulator, PeriodicCancelStopsSeries) {
  Simulator sim;
  int ticks = 0;
  const EventHandle handle = sim.schedulePeriodic(10, [&] { ++ticks; });
  sim.schedule(35, [&] { sim.cancel(handle); });
  sim.runUntil(200);
  EXPECT_EQ(ticks, 3);
}

TEST(Simulator, PeriodicCancelReleasesStateImmediately) {
  Simulator sim;
  int ticks = 0;
  const EventHandle handle = sim.schedulePeriodic(10, [&] { ++ticks; });
  EXPECT_EQ(sim.pendingEvents(), 1u);
  EXPECT_EQ(sim.periodicSeries(), 1u);
  sim.cancel(handle);
  // The series state is gone NOW — not lazily on the next would-be fire.
  EXPECT_EQ(sim.pendingEvents(), 0u);
  EXPECT_EQ(sim.periodicSeries(), 0u);
  sim.runUntil(100);
  EXPECT_EQ(ticks, 0);
  sim.cancel(handle);  // double-cancel of a periodic series is harmless
  EXPECT_EQ(sim.periodicSeries(), 0u);
}

TEST(Simulator, PeriodicSelfCancelReleasesStateImmediately) {
  Simulator sim;
  EventHandle handle;
  std::size_t seriesDuringLastTick = 99;
  handle = sim.schedulePeriodic(10, [&] {
    sim.cancel(handle);
    seriesDuringLastTick = sim.periodicSeries();
  });
  sim.runUntil(100);
  EXPECT_EQ(seriesDuringLastTick, 0u);
  EXPECT_EQ(sim.pendingEvents(), 0u);
  EXPECT_EQ(sim.periodicSeries(), 0u);
}

TEST(Simulator, PeriodicHandleGoesStaleAfterCancel) {
  Simulator sim;
  int ticksA = 0;
  int ticksB = 0;
  const EventHandle a = sim.schedulePeriodic(10, [&] { ++ticksA; });
  sim.cancel(a);
  // Reuses the freed slot with a new generation.
  const EventHandle b = sim.schedulePeriodic(10, [&] { ++ticksB; });
  sim.cancel(a);  // stale: must not kill series B
  sim.runUntil(35);
  EXPECT_EQ(ticksA, 0);
  EXPECT_EQ(ticksB, 3);
  sim.cancel(b);
  EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulator, PeriodicCanCancelItself) {
  Simulator sim;
  int ticks = 0;
  EventHandle handle;
  handle = sim.schedulePeriodic(10, [&] {
    if (++ticks == 2) sim.cancel(handle);
  });
  sim.runUntil(500);
  EXPECT_EQ(ticks, 2);
}

TEST(Simulator, ScheduleAtAbsoluteTime) {
  Simulator sim;
  SimTime seen = 0;
  sim.scheduleAt(77, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 77);
}

TEST(Simulator, EventsFiredCounter) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule(i, [] {});
  sim.run();
  EXPECT_EQ(sim.eventsFired(), 5u);
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator sim;
  SimTime last = -1;
  bool monotone = true;
  for (int i = 0; i < 10000; ++i) {
    sim.schedule((i * 7919) % 1000, [&, i] {
      if (sim.now() < last) monotone = false;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.eventsFired(), 10000u);
}

// --- retimeTagged: exactly cancel + scheduleForKeyTagged --------------------

// Tagged events append tag.a to `log`; counts the closures it builds.
class LogFactory : public EventFactory {
 public:
  explicit LogFactory(std::vector<std::uint64_t>* log) : log_(log) {}
  [[nodiscard]] Callback rebuild(const EventTag& tag) override {
    ++rebuilds;
    std::vector<std::uint64_t>* log = log_;
    const std::uint64_t value = tag.a;
    return [log, value] { log->push_back(value); };
  }
  int rebuilds = 0;

 private:
  std::vector<std::uint64_t>* log_;
};

class RetimeTest : public ::testing::Test {
 protected:
  RetimeTest() { sim_.registerFactory(Component::kSession, &factory_); }

  static EventTag tag(std::uint64_t value) {
    return makeTag(Component::kSession, /*kind=*/0, value);
  }
  EventHandle at(SimTime delay, std::uint64_t value) {
    return sim_.scheduleTagged(delay, tag(value));
  }

  Simulator sim_;
  std::vector<std::uint64_t> log_;
  LogFactory factory_{&log_};
};

TEST_F(RetimeTest, InPlaceKeepsTheHandleAndTheClosure) {
  const EventHandle handle = at(10, 1);
  EXPECT_EQ(factory_.rebuilds, 1);
  const EventHandle moved = sim_.retimeTagged(handle, 30, tag(1), 0);
  EXPECT_EQ(moved, handle);
  EXPECT_EQ(factory_.rebuilds, 1);  // unchanged tag: no rebuild
  EXPECT_EQ(sim_.pendingEvents(), 1u);
  sim_.runUntil(29);
  EXPECT_TRUE(log_.empty());
  sim_.run();
  EXPECT_EQ(log_, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(sim_.now(), 30);
}

TEST_F(RetimeTest, ANewTagSchedulesAfresh) {
  const EventHandle handle = at(10, 1);
  const EventHandle retagged = sim_.retimeTagged(handle, 5, tag(2), 0);
  EXPECT_NE(retagged, handle);
  EXPECT_EQ(factory_.rebuilds, 2);
  EXPECT_EQ(sim_.pendingEvents(), 1u);
  sim_.cancel(handle);  // stale now
  EXPECT_EQ(sim_.pendingEvents(), 1u);
  sim_.run();
  EXPECT_EQ(log_, (std::vector<std::uint64_t>{2}));
}

TEST_F(RetimeTest, MovesEarlierAndLaterFireInOrder) {
  const EventHandle a = at(10, 1);
  at(20, 2);
  const EventHandle c = at(30, 3);
  at(40, 4);
  sim_.retimeTagged(c, 5, tag(3), 0);   // earlier than everything
  sim_.retimeTagged(a, 25, tag(1), 0);  // past event 2
  EXPECT_EQ(sim_.pendingEvents(), 4u);
  sim_.run();
  EXPECT_EQ(log_, (std::vector<std::uint64_t>{3, 2, 1, 4}));
}

TEST_F(RetimeTest, SameInstantOrderFollowsTheFreshStamp) {
  // A re-time takes a new stamp, like cancel + schedule: moved onto an
  // instant that is already taken, it fires after the event already there.
  const EventHandle a = at(10, 1);
  at(10, 2);
  sim_.retimeTagged(a, 10, tag(1), 0);
  sim_.run();
  EXPECT_EQ(log_, (std::vector<std::uint64_t>{2, 1}));
}

TEST_F(RetimeTest, StaleHandleSchedulesAfresh) {
  const EventHandle fired = at(1, 1);
  sim_.run();
  const EventHandle fresh = sim_.retimeTagged(fired, 5, tag(2), 0);
  EXPECT_TRUE(fresh.valid());
  EXPECT_NE(fresh, fired);
  EXPECT_EQ(sim_.pendingEvents(), 1u);
  sim_.run();
  EXPECT_EQ(log_, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(sim_.pendingEvents(), 0u);
}

TEST_F(RetimeTest, InvalidHandleSchedulesAfresh) {
  const EventHandle fresh = sim_.retimeTagged(EventHandle{}, 5, tag(7), 0);
  EXPECT_TRUE(fresh.valid());
  EXPECT_EQ(sim_.pendingEvents(), 1u);
  sim_.run();
  EXPECT_EQ(log_, (std::vector<std::uint64_t>{7}));
}

TEST_F(RetimeTest, PeriodicHandleEndsTheSeriesAndSchedulesAOneShot) {
  int ticks = 0;
  const EventHandle series = sim_.schedulePeriodic(10, [&] { ++ticks; });
  sim_.runUntil(15);
  const EventHandle oneShot = sim_.retimeTagged(series, 100, tag(3), 0);
  EXPECT_NE(oneShot, series);
  EXPECT_EQ(sim_.periodicSeries(), 0u);
  EXPECT_EQ(sim_.pendingEvents(), 1u);
  sim_.run();
  EXPECT_EQ(ticks, 1);
  EXPECT_EQ(log_, (std::vector<std::uint64_t>{3}));
}

TEST_F(RetimeTest, TaggedPeriodicWithItsOwnTagStillEndsTheSeries) {
  const EventHandle series = sim_.schedulePeriodicTagged(10, tag(5));
  sim_.runUntil(15);
  const EventHandle oneShot = sim_.retimeTagged(series, 100, tag(5), 0);
  EXPECT_NE(oneShot, series);
  EXPECT_EQ(sim_.periodicSeries(), 0u);
  EXPECT_EQ(sim_.pendingEvents(), 1u);
  sim_.runUntil(1000);
  EXPECT_EQ(log_, (std::vector<std::uint64_t>{5, 5}));  // t=10, then t=115
  EXPECT_EQ(sim_.pendingEvents(), 0u);
}

TEST_F(RetimeTest, PeriodicRetimingItselfFromItsCallback) {
  // The running series has no heap entry; retiming it from inside must end
  // the series without touching the heap.
  EventHandle series;
  EventHandle oneShot;
  int ticks = 0;
  series = sim_.schedulePeriodic(10, [&] {
    if (++ticks == 2) oneShot = sim_.retimeTagged(series, 5, tag(9), 0);
  });
  at(100, 1);
  sim_.run();
  EXPECT_EQ(ticks, 2);
  EXPECT_TRUE(oneShot.valid());
  EXPECT_EQ(log_, (std::vector<std::uint64_t>{9, 1}));
  EXPECT_EQ(sim_.pendingEvents(), 0u);
  EXPECT_EQ(sim_.periodicSeries(), 0u);
}

TEST_F(RetimeTest, OneShotRetimingItsOwnHandleSchedulesAfresh) {
  // A firing one-shot's handle is already stale.
  EventHandle self;
  EventHandle again;
  self = sim_.schedule(10,
                       [&] { again = sim_.retimeTagged(self, 5, tag(4), 0); });
  sim_.run();
  EXPECT_TRUE(again.valid());
  EXPECT_EQ(log_, (std::vector<std::uint64_t>{4}));
  EXPECT_EQ(sim_.now(), 15);
}

TEST_F(RetimeTest, PendingEventsStayExactAcrossMixedOperations) {
  std::vector<EventHandle> handles;
  for (std::uint64_t i = 0; i < 64; ++i) {
    handles.push_back(at(static_cast<SimTime>(i * 7 % 50), i));
  }
  for (std::size_t i = 0; i < handles.size(); i += 3) {
    handles[i] = sim_.retimeTagged(handles[i], 60, tag(i), 0);
  }
  for (std::size_t i = 1; i < handles.size(); i += 4) sim_.cancel(handles[i]);
  EXPECT_EQ(sim_.pendingEvents(), 64u - 16u);
  sim_.runUntil(30);
  const std::size_t firedSoFar = log_.size();
  EXPECT_EQ(sim_.pendingEvents(), 48u - firedSoFar);
  sim_.run();
  EXPECT_EQ(log_.size(), 48u);
  EXPECT_EQ(sim_.pendingEvents(), 0u);
}

// Logs the owner key each tagged event fires under.
class KeyLogFactory : public EventFactory {
 public:
  explicit KeyLogFactory(Simulator& sim) : sim_(sim) {}
  [[nodiscard]] Callback rebuild(const EventTag&) override {
    ++rebuilds;
    return [this] { keys.push_back(sim_.currentKey()); };
  }
  std::vector<std::uint32_t> keys;
  int rebuilds = 0;

 private:
  Simulator& sim_;
};

// An event owned by a fixed key, as a flow group's completion is owned by
// its endpoint's community, moves in place whichever community re-times
// it, keeps firing under its owner, and is not a cross-shard post even
// below the lookahead floor.
TEST(RetimeOwner, ReTimeFromAnotherCommunityMovesInPlace) {
  Simulator sim;
  ASSERT_TRUE(sim.configureShards(
      ShardPlan{.keyCount = 5, .shardCount = 4, .lookahead = 10}));
  KeyLogFactory factory(sim);
  sim.registerFactory(Component::kSession, &factory);
  const EventTag owned = makeTag(Component::kSession, /*kind=*/0, 1);
  const EventHandle handle = sim.scheduleForKeyTagged(2, 100, owned);
  EventHandle moved;
  sim.scheduleForKey(1, 20,
                     [&] { moved = sim.retimeTagged(handle, 0, owned, 2); });
  const std::uint64_t setupPosts = sim.crossShardPosts();
  sim.run();
  EXPECT_EQ(moved, handle);
  EXPECT_EQ(factory.rebuilds, 1);
  EXPECT_EQ(factory.keys, (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.crossShardPosts(), setupPosts);
  EXPECT_EQ(sim.crossBelowFloor(), 0u);
}

TEST(SimTimeConversions, RoundTrip) {
  EXPECT_EQ(fromSeconds(1.5), 1'500'000);
  EXPECT_EQ(fromMillis(2.5), 2'500);
  EXPECT_DOUBLE_EQ(toSeconds(3 * kSecond), 3.0);
  EXPECT_DOUBLE_EQ(toMillis(kSecond), 1000.0);
  EXPECT_EQ(kDay, 24 * kHour);
  EXPECT_EQ(kHour, 3600 * kSecond);
}

}  // namespace
}  // namespace st::sim

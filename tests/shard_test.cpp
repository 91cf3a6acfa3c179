// Community-sharded engine tests (DESIGN.md §13).
//
// The contract under test: the canonical event order — (time, owner key,
// per-key sequence) — is a function of the workload alone, so a sharded run
// fires the same events in the same order at every shard count, the
// parallel lookahead windows match the serial merge on shard-safe
// workloads, and the SSIM snapshot section round-trips across shard counts
// byte-for-byte.
#include "sim/shard.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "snapshot/codec.h"
#include "util/rng.h"

namespace st::sim {
namespace {

// 8 communities + the root key.
ShardPlan plan(std::uint32_t shardCount, SimTime lookahead = kMillisecond,
               std::uint32_t keyCount = 9) {
  ShardPlan p;
  p.keyCount = keyCount;
  p.shardCount = shardCount;
  p.lookahead = lookahead;
  return p;
}

// --- ShardPlan validation -----------------------------------------------------

TEST(ShardPlan, AcceptsPowerOfTwoCounts) {
  std::string error;
  for (const std::uint32_t n : {1u, 2u, 4u, 8u}) {
    EXPECT_TRUE(plan(n).validate(&error)) << n << ": " << error;
  }
}

TEST(ShardPlan, RejectsNonPowerOfTwo) {
  std::string error;
  EXPECT_FALSE(plan(3).validate(&error));
  EXPECT_NE(error.find("power of two"), std::string::npos) << error;
  EXPECT_FALSE(plan(0).validate(&error));
}

TEST(ShardPlan, RejectsMoreShardsThanCommunities) {
  std::string error;
  // 9 keys = 8 communities; 16 shards would leave at least 8 empty.
  EXPECT_FALSE(plan(16).validate(&error));
  EXPECT_NE(error.find("communities"), std::string::npos) << error;
}

TEST(ShardPlan, RejectsNonPositiveLookahead) {
  std::string error;
  EXPECT_FALSE(plan(2, /*lookahead=*/0).validate(&error));
  EXPECT_NE(error.find("lookahead"), std::string::npos) << error;
  EXPECT_FALSE(plan(2, /*lookahead=*/-5).validate(&error));
}

TEST(ShardPlan, ShardOfMasksKey) {
  const ShardPlan p = plan(4);
  EXPECT_EQ(p.shardOf(0), 0u);
  EXPECT_EQ(p.shardOf(5), 1u);
  EXPECT_EQ(p.shardOf(8), 0u);
}

// --- configureShards preconditions --------------------------------------------

TEST(ConfigureShards, RejectsInvalidPlanWithMessage) {
  Simulator sim;
  std::string error;
  EXPECT_FALSE(sim.configureShards(plan(3), &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(sim.shardPlan().keyCount, 1u);  // still the one-key plan
  EXPECT_EQ(sim.shardCount(), 1u);
}

TEST(ConfigureShards, RejectsNonPristineSimulator) {
  Simulator sim;
  sim.schedule(10, [] {});
  std::string error;
  EXPECT_FALSE(sim.configureShards(plan(2), &error));
  EXPECT_NE(error.find("pristine"), std::string::npos) << error;
}

TEST(ConfigureShards, AcceptsFreshSimulator) {
  Simulator sim;
  ASSERT_TRUE(sim.configureShards(plan(4)));
  EXPECT_EQ(sim.shardPlan().keyCount, 9u);
  EXPECT_EQ(sim.shardCount(), 4u);
}

// --- canonical order across shard counts --------------------------------------

// A deterministic multi-community workload: every community key runs a
// self-rescheduling chain that records (key, time) and occasionally posts
// to a neighboring community with a delay >= the lookahead floor. The
// firing sequence must be identical at every shard count.
std::vector<std::uint64_t> runWorkload(std::uint32_t shardCount,
                                       std::size_t workers = 1) {
  Simulator sim;
  if (!sim.configureShards(plan(shardCount))) ADD_FAILURE();
  sim.setWorkers(workers);
  std::vector<std::uint64_t> log;
  constexpr std::uint32_t kCommunities = 8;

  // Seeded from the root key (key 0) before the run, as setup code does.
  std::function<void(std::uint32_t, int)> chain = [&](std::uint32_t key,
                                                      int remaining) {
    log.push_back((static_cast<std::uint64_t>(key) << 48) |
                  static_cast<std::uint64_t>(sim.now()));
    if (remaining <= 0) return;
    // Deterministic per-(key, step) delays; all >= the 1 ms floor.
    const SimTime delay = kMillisecond + (key * 37 + remaining * 13) % 900;
    sim.schedule(delay, [&chain, key, remaining] { chain(key, remaining - 1); });
    if (remaining % 3 == 0) {
      const std::uint32_t dest = 1 + (key + remaining) % kCommunities;
      sim.scheduleForKey(dest, kMillisecond + (remaining % 5) * 100,
                         [&chain, dest] { chain(dest, 0); });
    }
  };
  for (std::uint32_t c = 1; c <= kCommunities; ++c) {
    sim.scheduleForKey(c, kMillisecond + c * 11,
                       [&chain, c] { chain(c, 12); });
  }
  sim.runUntil(kMinute);
  EXPECT_EQ(sim.crossBelowFloor(), 0u);
  return log;
}

TEST(ShardedOrder, IdenticalAcrossShardCounts) {
  const std::vector<std::uint64_t> one = runWorkload(1);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(runWorkload(2), one);
  EXPECT_EQ(runWorkload(4), one);
  EXPECT_EQ(runWorkload(8), one);
}

TEST(ShardedOrder, SameInstantFiresInSourceKeyOrder) {
  Simulator sim;
  ASSERT_TRUE(sim.configureShards(plan(4)));
  std::vector<std::uint32_t> order;
  // Communities 5 and 2 each schedule a local event landing at the same
  // absolute instant (10 ms). Community 5's is *inserted* first (its outer
  // event runs at 1 ms), but the canonical stamp packs the source key, so
  // community 2's event fires first — insertion order cannot leak into the
  // result, which is what makes the order shard-count-invariant.
  sim.scheduleForKey(5, kMillisecond,
                     [&] { sim.schedule(9 * kMillisecond,
                                        [&] { order.push_back(5); }); });
  sim.scheduleForKey(2, 2 * kMillisecond,
                     [&] { sim.schedule(8 * kMillisecond,
                                        [&] { order.push_back(2); }); });
  sim.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2u);
  EXPECT_EQ(order[1], 5u);
}

TEST(ShardedOrder, MatchesUnshardedEventCount) {
  // Ordering may legally differ from the one-key plan (different stamp
  // space); the set of fired events may not.
  Simulator mono;
  std::uint64_t monoFired = 0;
  for (int i = 0; i < 50; ++i) {
    mono.schedule(i * 100, [&] { ++monoFired; });
  }
  mono.run();

  Simulator sharded;
  ASSERT_TRUE(sharded.configureShards(plan(4)));
  std::uint64_t shardedFired = 0;
  for (int i = 0; i < 50; ++i) {
    sharded.scheduleForKey(1 + i % 8, i * 100, [&] { ++shardedFired; });
  }
  sharded.run();
  EXPECT_EQ(shardedFired, monoFired);
  EXPECT_EQ(sharded.eventsFired(), mono.eventsFired());
}

// --- parallel lookahead windows -----------------------------------------------

// Shard-safe workload: each community key touches only its own counter
// cell. Parallel windows must produce the same per-key tallies and total
// event count as the serial merge.
struct ParallelResult {
  std::vector<std::uint64_t> perKey;
  std::uint64_t fired = 0;
  std::uint64_t windows = 0;
  std::uint64_t belowFloor = 0;
};

ParallelResult runParallelWorkload(std::size_t workers,
                                   std::uint32_t shardCount = 8) {
  Simulator sim;
  if (!sim.configureShards(plan(shardCount))) ADD_FAILURE();
  sim.setWorkers(workers);
  constexpr std::uint32_t kCommunities = 8;
  ParallelResult out;
  out.perKey.assign(kCommunities + 1, 0);

  std::function<void(std::uint32_t, int)> chain = [&](std::uint32_t key,
                                                      int remaining) {
    // Workers may run distinct keys concurrently but one key's events are
    // always sequential, so per-key cells never race.
    out.perKey[key] += static_cast<std::uint64_t>(sim.now() % 997) + 1;
    if (remaining <= 0) return;
    const SimTime delay = kMillisecond + (key * 53 + remaining * 29) % 700;
    sim.schedule(delay, [&chain, key, remaining] { chain(key, remaining - 1); });
    if (remaining % 4 == 0) {
      const std::uint32_t dest = 1 + (key + 3) % kCommunities;
      sim.scheduleForKey(dest, 2 * kMillisecond,
                         [&chain, dest] { chain(dest, 0); });
    }
  };
  for (std::uint32_t c = 1; c <= kCommunities; ++c) {
    sim.scheduleForKey(c, kMillisecond, [&chain, c] { chain(c, 20); });
  }
  out.fired = sim.runUntil(kMinute);
  out.windows = sim.windowsRun();
  out.belowFloor = sim.crossBelowFloor();
  return out;
}

TEST(ParallelWindows, MatchSerialMerge) {
  const ParallelResult serial = runParallelWorkload(/*workers=*/1);
  ASSERT_GT(serial.fired, 0u);
  EXPECT_EQ(serial.windows, 0u);  // serial merge runs no windows
  for (const std::size_t workers : {2, 4}) {
    const ParallelResult parallel = runParallelWorkload(workers);
    EXPECT_EQ(parallel.perKey, serial.perKey) << workers << " workers";
    EXPECT_EQ(parallel.fired, serial.fired) << workers << " workers";
    EXPECT_EQ(parallel.belowFloor, 0u);
    EXPECT_GT(parallel.windows, 0u);
  }
}

TEST(ParallelWindows, DegradeToSerialOnSubFloorCrossPost) {
  Simulator sim;
  ASSERT_TRUE(sim.configureShards(plan(8, /*lookahead=*/10 * kMillisecond)));
  sim.setWorkers(2);
  std::uint64_t fired = 0;
  // One event per community; community 1 posts to community 2 with a delay
  // below the declared floor — a broken conservative contract.
  sim.scheduleForKey(1, kMillisecond, [&] {
    ++fired;
    sim.scheduleForKey(2, kMillisecond, [&] { ++fired; });
  });
  for (std::uint32_t c = 3; c <= 8; ++c) {
    sim.scheduleForKey(c, 30 * kMillisecond, [&] { ++fired; });
  }
  std::fprintf(stderr, "(expected sub-floor degrade notice follows)\n");
  sim.runUntil(kSecond);
  // The violation is counted and every event still runs (serial finish).
  EXPECT_GE(sim.crossBelowFloor(), 1u);
  EXPECT_EQ(fired, 8u);
  EXPECT_EQ(sim.pendingEvents(), 0u);
}

// The degrade path under load (the PR-8 regression): a realistic multi-
// community workload — think of the sub-floor post as a fault schedule
// firing a cross-shard repair early — whose parallel windows are forced to
// the serial merge mid-run. The degraded run must end with the exact
// per-key tallies and event count of the all-serial run, and both engines
// must surface the violation through crossBelowFloor().
TEST(ParallelWindows, DegradedRunStaysBitwiseEqualToSerialMerge) {
  constexpr std::uint32_t kCommunities = 8;
  struct Result {
    std::vector<std::uint64_t> perKey;
    std::uint64_t fired = 0;
    std::uint64_t belowFloor = 0;
  };
  const auto run = [&](std::size_t workers) {
    Simulator sim;
    if (!sim.configureShards(plan(8, /*lookahead=*/5 * kMillisecond))) {
      ADD_FAILURE();
    }
    sim.setWorkers(workers);
    Result out;
    out.perKey.assign(kCommunities + 1, 0);
    std::function<void(std::uint32_t, int)> chain = [&](std::uint32_t key,
                                                        int remaining) {
      out.perKey[key] += static_cast<std::uint64_t>(sim.now() % 997) + 1;
      if (remaining <= 0) return;
      const SimTime delay =
          5 * kMillisecond + (key * 53 + remaining * 29) % 700;
      sim.schedule(delay,
                   [&chain, key, remaining] { chain(key, remaining - 1); });
      // The injected violation: halfway down community 1's chain, post to
      // community 2 with a delay below the declared 5 ms floor.
      if (key == 1 && remaining == 10) {
        sim.scheduleForKey(2, kMillisecond,
                           [&chain] { chain(2, 0); });  // sub-floor
      }
    };
    for (std::uint32_t c = 1; c <= kCommunities; ++c) {
      sim.scheduleForKey(c, 5 * kMillisecond, [&chain, c] { chain(c, 20); });
    }
    if (workers > 1) {
      std::fprintf(stderr, "(expected sub-floor degrade notice follows)\n");
    }
    out.fired = sim.runUntil(kSecond);
    out.belowFloor = sim.crossBelowFloor();
    EXPECT_EQ(sim.pendingEvents(), 0u);
    return out;
  };
  const Result serial = run(/*workers=*/1);
  ASSERT_GT(serial.fired, 0u);
  EXPECT_EQ(serial.belowFloor, 1u);  // counted, run completes regardless
  for (const std::size_t workers : {2, 4}) {
    const Result degraded = run(workers);
    EXPECT_EQ(degraded.perKey, serial.perKey) << workers << " workers";
    EXPECT_EQ(degraded.fired, serial.fired) << workers << " workers";
    EXPECT_EQ(degraded.belowFloor, 1u) << workers << " workers";
  }
}

TEST(SerialMerge, CountsSubFloorPostsWithoutFailing) {
  Simulator sim;
  ASSERT_TRUE(sim.configureShards(plan(8, /*lookahead=*/10 * kMillisecond)));
  std::uint64_t fired = 0;
  // The setup post honors the floor; the in-run post undercuts it.
  sim.scheduleForKey(1, 30 * kMillisecond, [&] {
    ++fired;
    sim.scheduleForKey(2, kMillisecond, [&] { ++fired; });  // below floor
  });
  sim.runUntil(kSecond);
  EXPECT_EQ(fired, 2u);
  EXPECT_EQ(sim.crossBelowFloor(), 1u);
  EXPECT_EQ(sim.crossShardPosts(), 2u);  // setup post + the sub-floor one
}

// --- cross-shard semantics ----------------------------------------------------

TEST(CrossShard, EventExecutesUnderDestinationKey) {
  Simulator sim;
  ASSERT_TRUE(sim.configureShards(plan(4)));
  std::uint32_t observedKey = ~0u;
  std::uint32_t rootKey = ~0u;
  sim.scheduleForKey(6, kMillisecond, [&] { observedKey = sim.currentKey(); });
  sim.schedule(kMillisecond, [&] { rootKey = sim.currentKey(); });
  sim.run();
  EXPECT_EQ(observedKey, 6u);
  EXPECT_EQ(rootKey, 0u);  // setup-scheduled events stay on the root key
  EXPECT_EQ(sim.currentKey(), 0u);
}

TEST(CrossShard, SameShardKeysDoNotCountAsCrossPosts) {
  Simulator sim;
  ASSERT_TRUE(sim.configureShards(plan(4)));
  // Keys 1 and 5 both map to shard 1 of 4.
  sim.scheduleForKey(1, kMillisecond, [&] {
    sim.scheduleForKey(5, kMillisecond, [] {});
  });
  sim.run();
  EXPECT_EQ(sim.crossShardPosts(), 1u);  // only the setup post (key 0 -> 1)
}

// --- periodics and cancellation in sharded mode -------------------------------

TEST(ShardedPeriodic, FiresAndCancelsOnCommunityKey) {
  Simulator sim;
  ASSERT_TRUE(sim.configureShards(plan(4)));
  int fired = 0;
  EventHandle handle;
  sim.scheduleForKey(3, 0, [&] {
    handle = sim.schedulePeriodic(kSecond, [&] { ++fired; });
  });
  sim.runUntil(3 * kSecond + kMillisecond);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.periodicSeries(), 1u);
  sim.cancel(handle);
  EXPECT_EQ(sim.periodicSeries(), 0u);
  EXPECT_EQ(sim.pendingEvents(), 0u);
  sim.runUntil(10 * kSecond);
  EXPECT_EQ(fired, 3);
}

TEST(ShardedCancel, HandleTargetsTheOwningShard) {
  Simulator sim;
  ASSERT_TRUE(sim.configureShards(plan(8)));
  bool fired = false;
  const EventHandle doomed =
      sim.scheduleForKey(7, kSecond, [&] { fired = true; });
  sim.scheduleForKey(2, kSecond, [] {});
  EXPECT_EQ(sim.pendingEvents(), 2u);
  sim.cancel(doomed);
  EXPECT_EQ(sim.pendingEvents(), 1u);
  sim.run();
  EXPECT_FALSE(fired);
}

// --- SSIM snapshot section: shard-count independence --------------------------

// Minimal factory: the callback appends tag.a to a log; onRestored records
// that the handle came back valid.
class LogFactory : public EventFactory {
 public:
  explicit LogFactory(std::vector<std::uint64_t>* log) : log_(log) {}
  [[nodiscard]] Callback rebuild(const EventTag& tag) override {
    const std::uint64_t value = tag.a;
    std::vector<std::uint64_t>* log = log_;
    return [log, value] { log->push_back(value); };
  }
  bool onRestored(const EventTag&, EventHandle handle) override {
    restoredValid += handle.valid() ? 1 : 0;
    return true;
  }
  int restoredValid = 0;

 private:
  std::vector<std::uint64_t>* log_;
};

// Schedules one tagged event per community (some at equal times) plus a
// root event, from the ambient root key.
void scheduleTaggedWorkload(Simulator& sim) {
  for (std::uint32_t c = 1; c <= 8; ++c) {
    sim.scheduleForKeyTagged(
        c, kMillisecond * (1 + c % 3),
        makeTag(Component::kSession, /*kind=*/1, /*a=*/100 + c));
  }
  sim.scheduleTagged(5 * kMillisecond,
                     makeTag(Component::kSession, /*kind=*/1, /*a=*/7));
}

std::vector<std::uint8_t> saveBody(const Simulator& sim) {
  snapshot::Writer w;
  std::string error;
  if (!sim.saveState(w, &error)) ADD_FAILURE() << error;
  return w.body();
}

TEST(ShardedSnapshot, BytesIdenticalAcrossShardCounts) {
  std::vector<std::uint8_t> bodies[3];
  const std::uint32_t counts[3] = {1, 4, 8};
  for (int i = 0; i < 3; ++i) {
    Simulator sim;
    std::vector<std::uint64_t> log;
    LogFactory factory(&log);
    sim.registerFactory(Component::kSession, &factory);
    ASSERT_TRUE(sim.configureShards(plan(counts[i])));
    scheduleTaggedWorkload(sim);
    bodies[i] = saveBody(sim);
  }
  EXPECT_EQ(bodies[0], bodies[1]);
  EXPECT_EQ(bodies[0], bodies[2]);
}

TEST(ShardedSnapshot, SavedAtEightRestoresAtOneBitForBit) {
  // Save at --shards 8.
  snapshot::Writer saved;
  {
    Simulator sim;
    std::vector<std::uint64_t> log;
    LogFactory factory(&log);
    sim.registerFactory(Component::kSession, &factory);
    ASSERT_TRUE(sim.configureShards(plan(8)));
    scheduleTaggedWorkload(sim);
    std::string error;
    ASSERT_TRUE(sim.saveState(saved, &error)) << error;
  }
  const std::string path = ::testing::TempDir() + "st_shard_snapshot.bin";
  std::string error;
  ASSERT_TRUE(saved.writeFile(path, &error)) << error;

  // Restore at --shards 1, re-save, and replay.
  std::vector<std::uint8_t> file;
  ASSERT_TRUE(snapshot::Reader::readFile(path, &file, &error)) << error;
  std::remove(path.c_str());
  snapshot::Reader r(std::move(file));
  ASSERT_TRUE(r.ok()) << r.error();

  Simulator sim;
  std::vector<std::uint64_t> log;
  LogFactory factory(&log);
  sim.registerFactory(Component::kSession, &factory);
  ASSERT_TRUE(sim.configureShards(plan(1)));
  ASSERT_TRUE(sim.loadState(r)) << r.error();
  EXPECT_EQ(factory.restoredValid, 9);

  EXPECT_EQ(saveBody(sim), saved.body());

  // The restored queue replays in canonical order: time first, then the
  // stamp (communities 3, 6 at 1 ms; 1, 4, 7 at 2 ms; 2, 5, 8 at 3 ms).
  sim.run();
  const std::vector<std::uint64_t> expected = {103, 106, 101, 104, 107,
                                               102, 105, 108, 7};
  EXPECT_EQ(log, expected);
}

// Saves one pending root-key event on `from` shards (0: the one-key plan)
// and loads the file on `to` shards; returns the loader's error.
std::string crossPlanLoadError(std::uint32_t from, std::uint32_t to) {
  std::vector<std::uint64_t> log;
  LogFactory factory(&log);
  snapshot::Writer saved;
  {
    Simulator sim;
    sim.registerFactory(Component::kSession, &factory);
    if (from > 0 && !sim.configureShards(plan(from))) ADD_FAILURE();
    sim.scheduleTagged(kMillisecond,
                       makeTag(Component::kSession, /*kind=*/1, /*a=*/1));
    std::string error;
    if (!sim.saveState(saved, &error)) ADD_FAILURE() << error;
  }
  const std::string path = ::testing::TempDir() + "st_shard_mismatch.bin";
  std::string error;
  if (!saved.writeFile(path, &error)) ADD_FAILURE() << error;
  std::vector<std::uint8_t> file;
  if (!snapshot::Reader::readFile(path, &file, &error)) ADD_FAILURE() << error;
  std::remove(path.c_str());
  snapshot::Reader r(std::move(file));

  Simulator sim;
  sim.registerFactory(Component::kSession, &factory);
  if (to > 0 && !sim.configureShards(plan(to))) ADD_FAILURE();
  EXPECT_FALSE(sim.loadState(r));
  return r.error();
}

TEST(ShardedSnapshot, MonolithicFileRefusedBySharededRun) {
  const std::string error = crossPlanLoadError(/*from=*/0, /*to=*/2);
  EXPECT_NE(error.find("--shards"), std::string::npos) << error;
}

TEST(ShardedSnapshot, ShardedFileRefusedByUnshardedRun) {
  const std::string error = crossPlanLoadError(/*from=*/2, /*to=*/0);
  EXPECT_NE(error.find("--shards"), std::string::npos) << error;
}

TEST(ShardedSnapshot, UntaggedPendingEventRefusedWithMessage) {
  Simulator sim;
  ASSERT_TRUE(sim.configureShards(plan(2)));
  sim.scheduleForKey(1, kMillisecond, [] {});
  snapshot::Writer w;
  std::string error;
  EXPECT_FALSE(sim.saveState(w, &error));
  EXPECT_NE(error.find("untagged"), std::string::npos) << error;
}

}  // namespace
}  // namespace st::sim

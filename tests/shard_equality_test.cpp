// Sharded-vs-sequential equality over the full experiment stack.
//
// The headline acceptance criterion of the community-sharded engine
// (DESIGN.md §13): a run at --shards N is bitwise-identical to the same
// run at --shards 1 — every counter, every metric sample, and the final
// overlay fingerprint — for all three systems, calm or under scripted
// faults and overload control. Also: a snapshot taken at --shards 8
// restores at --shards 1 (and vice versa) byte-for-byte.
//
// An unsharded run is NOT bitwise-identical to --shards 1 in general: it
// schedules every event from one root key, so same-instant events keep
// their scheduling order instead of source-key order. At 2000 users and
// seed 2, Fig. 16's SocialTube run ends with fingerprint ff3d4c94
// unsharded and 42c834d2 at --shards 1 and 8. The unsharded comparisons
// below hold only at this test's small scale; they guard the stack's
// wiring, not a general equivalence.
//
// Carries the `shard` ctest label; scripts/check.sh runs the label under
// TSan as the sharded-engine gate.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "exp/config.h"
#include "exp/runner.h"
#include "snapshot_harness.h"
#include "vod/overload.h"
#include "trace/generator.h"

namespace st {
namespace {

// Small but structurally rich workload: >= 8 interest categories so an
// 8-shard run has no empty shards, enough users per community for real
// overlay traffic.
exp::ExperimentConfig shardConfig(std::uint64_t seed = 11) {
  exp::ExperimentConfig config = exp::ExperimentConfig::simulationDefaults(seed);
  config = config.scaledTo(240, 2);
  config.trace.numCategories = 8;
  config.duration = 2 * sim::kHour;
  return config;
}

exp::ExperimentResult runAtShards(exp::ExperimentConfig config,
                                  exp::SystemKind system,
                                  std::uint32_t shards) {
  config.shards.count = shards;
  return exp::runExperiment(config, system);
}

class ShardEquality : public ::testing::TestWithParam<exp::SystemKind> {};

TEST_P(ShardEquality, CalmRunMatchesSequential) {
  const exp::ExperimentConfig config = shardConfig();
  const exp::ExperimentResult sequential =
      exp::runExperiment(config, GetParam());  // unsharded
  const exp::ExperimentResult one = runAtShards(config, GetParam(), 1);
  const exp::ExperimentResult eight = runAtShards(config, GetParam(), 8);
  // Sharded runs must agree with each other at every count...
  st::testing::expectSameOutcome(one, eight);
  // ...and, at this small scale, with the unsharded run (see the header:
  // not a general property).
  st::testing::expectSameOutcome(sequential, one);
  EXPECT_GT(eight.watches(), 0u);
}

TEST_P(ShardEquality, FaultyRunMatchesSequential) {
  exp::ExperimentConfig config = shardConfig(13);
  config.faults.spec = "crash:t=1800,frac=0.15;loss:t=2400,dur=600,rate=0.25";
  config.faults.auditInterval = 15 * sim::kMinute;
  const exp::ExperimentResult one = runAtShards(config, GetParam(), 1);
  const exp::ExperimentResult eight = runAtShards(config, GetParam(), 8);
  st::testing::expectSameOutcome(one, eight);
  EXPECT_GT(one.counter("fault.events"), 0u);
}

// The new fault families cross community boundaries (gray windows stretch
// inter-community edges, rejoin kicks off anti-entropy reads of remote
// shards' state), so they are the sharpest probe of shard safety: a run
// under slow + flap + dup + reorder + crash + rejoin must stay bitwise-
// identical at every --shards count.
TEST_P(ShardEquality, GrayDeliveryRejoinRunMatchesSequential) {
  exp::ExperimentConfig config = shardConfig(37);
  config.faults.spec =
      "slow:t=900,dur=1800,frac=0.2,factor=8;"
      "flap:t=1200,dur=1200,frac=0.1,period=60;"
      "dup:t=1800,dur=1800,rate=0.3;"
      "reorder:t=1800,dur=1800,rate=0.3,delay_ms=120;"
      "crash:t=2700,frac=0.2;"
      "rejoin:t=4500,frac=1";
  config.faults.auditInterval = 15 * sim::kMinute;
  const exp::ExperimentResult sequential =
      exp::runExperiment(config, GetParam());  // unsharded
  const exp::ExperimentResult one = runAtShards(config, GetParam(), 1);
  const exp::ExperimentResult eight = runAtShards(config, GetParam(), 8);
  st::testing::expectSameOutcome(one, eight);
  st::testing::expectSameOutcome(sequential, one);
  EXPECT_EQ(one.counter("fault.events"), 6u);
  EXPECT_GT(one.counter("fault.dup_messages"), 0u);
  EXPECT_GT(one.counter("fault.rejoins"), 0u);
  EXPECT_EQ(one.counter("invariant.violations"), 0u);
  // Gray stretches and reorder displacements never deliver below the
  // latency model's minimum, so the serial merge never undercuts the
  // lookahead floor (shard.cross_below_floor stays 0).
  EXPECT_EQ(eight.crossBelowFloor, 0u);
  EXPECT_EQ(sequential.crossBelowFloor, 0u);
}

TEST_P(ShardEquality, OverloadedRunMatchesSequential) {
  exp::ExperimentConfig config = shardConfig(17);
  std::string error;
  ASSERT_TRUE(vod::OverloadConfig::parse("on", &config.vod.overload, &error))
      << error;
  // Starve the server so the overload machinery actually engages.
  config.vod.serverUploadBps = 600'000.0;
  const exp::ExperimentResult one = runAtShards(config, GetParam(), 1);
  const exp::ExperimentResult eight = runAtShards(config, GetParam(), 8);
  st::testing::expectSameOutcome(one, eight);
}

TEST_P(ShardEquality, FourShardsAgreeToo) {
  const exp::ExperimentConfig config = shardConfig(19);
  st::testing::expectSameOutcome(runAtShards(config, GetParam(), 2),
                         runAtShards(config, GetParam(), 4));
}

INSTANTIATE_TEST_SUITE_P(AllSystems, ShardEquality,
                         ::testing::Values(exp::SystemKind::kSocialTube,
                                           exp::SystemKind::kNetTube,
                                           exp::SystemKind::kPaVod),
                         st::testing::systemParamName);

// --- snapshot portability across shard counts ---------------------------------

TEST(ShardSnapshotPortability, SavedAtEightRestoresAtOneBitwise) {
  exp::ExperimentConfig config = shardConfig(23);
  const std::string path = st::testing::snapshotPath("shards8");

  // Arm 1: --shards 8, snapshot mid-run, keep going (the baseline).
  config.shards.count = 8;
  const exp::ExperimentResult baseline = st::testing::runSaving(
      config, exp::SystemKind::kSocialTube, path, sim::kHour);

  // Arm 2: restore that file at --shards 1 and run to the horizon. The
  // SSIM queue section is shard-count-independent, so the restored run
  // must finish bitwise-identical to the 8-shard baseline.
  config.shards.count = 1;
  const exp::ExperimentResult restored = st::testing::runRestoring(
      config, exp::SystemKind::kSocialTube, path);
  std::remove(path.c_str());

  st::testing::expectSameOutcome(baseline, restored);
}

TEST(ShardSnapshotPortability, SavedAtOneRestoresAtEightBitwise) {
  exp::ExperimentConfig config = shardConfig(29);
  const std::string path = st::testing::snapshotPath("shards1");

  config.shards.count = 1;
  const exp::ExperimentResult baseline = st::testing::runSaving(
      config, exp::SystemKind::kNetTube, path, sim::kHour);
  config.shards.count = 8;
  const exp::ExperimentResult restored = st::testing::runRestoring(
      config, exp::SystemKind::kNetTube, path);
  std::remove(path.c_str());

  st::testing::expectSameOutcome(baseline, restored);
}

// The sharded differential harness: snapshot/restore at the same shard
// count must of course also be bitwise (the standard differential run,
// with sharding on).
TEST(ShardSnapshotPortability, ShardedDifferentialIsBitwise) {
  exp::ExperimentConfig config = shardConfig(31);
  config.shards.count = 4;
  const st::testing::DifferentialRun run = st::testing::runDifferential(
      config, exp::SystemKind::kSocialTube, sim::kHour);
  st::testing::expectBitwiseEqual(run);
}

}  // namespace
}  // namespace st

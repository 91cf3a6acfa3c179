// Checkpoint/restore fidelity (ctest label: snapshot).
//
// The headline differential claim: for every system, under calm, faulted,
// and overloaded configurations, a run restored from a mid-run snapshot
// finishes bitwise-identical to the run that never stopped — counters,
// metric sample buffers, event-trace streams, and the final overlay state
// all compare to the bit (see tests/snapshot_harness.h for why the
// "uninterrupted" arm also arms the save event).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exp/config.h"
#include "exp/runner.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "snapshot_harness.h"
#include "trace/generator.h"
#include "util/thread_pool.h"

#ifndef ST_TEST_DATA_DIR
#define ST_TEST_DATA_DIR "tests/data"
#endif

namespace st::exp {
namespace {

using st::testing::DifferentialRun;
using st::testing::expectBitwiseEqual;
using st::testing::expectResaveIdentical;
using st::testing::expectSameOutcome;
using st::testing::fileBytes;
using st::testing::makeRun;
using st::testing::runDifferential;
using st::testing::runRestoring;
using st::testing::runSaving;
using st::testing::snapshotPath;
using st::testing::systemParamName;

ExperimentConfig smallConfig(std::uint64_t seed) {
  ExperimentConfig config = ExperimentConfig::simulationDefaults(seed);
  config = config.scaledTo(120, 3);
  config.duration = sim::kDay / 4;
  return config;
}

// --- Differential fidelity: calm, all three systems ---------------------------

class SnapshotDifferential : public ::testing::TestWithParam<SystemKind> {};

TEST_P(SnapshotDifferential, CalmRestoreMatchesUninterrupted) {
  const ExperimentConfig config = smallConfig(17);
  const DifferentialRun run =
      runDifferential(config, GetParam(), config.duration / 2);
  EXPECT_GT(run.baseline.watches(), 0u);
  expectBitwiseEqual(run);
}

INSTANTIATE_TEST_SUITE_P(AllSystems, SnapshotDifferential,
                         ::testing::Values(SystemKind::kSocialTube,
                                           SystemKind::kNetTube,
                                           SystemKind::kPaVod),
                         systemParamName);

// --- Differential fidelity: snapshot taken mid-fault-schedule -----------------

TEST(SnapshotFaulted, RestoreMidScheduleMatchesUninterrupted) {
  ExperimentConfig config = smallConfig(19);
  // Snapshot lands at t=9000: after the crash wave and inside the healing,
  // with the outage still pending in the injector's schedule.
  config.faults.spec =
      "crash:t=3000,frac=0.15;"
      "loss:t=6000,dur=600,rate=0.25,delay_ms=40;"
      "outage:t=12000,dur=300";
  config.faults.auditInterval = 10 * sim::kMinute;
  const DifferentialRun run = runDifferential(
      config, SystemKind::kSocialTube, sim::fromSeconds(9000.0));
  EXPECT_EQ(run.baseline.counter("fault.events"), 3u);
  EXPECT_EQ(run.baseline.counter("invariant.violations"), 0u);
  EXPECT_EQ(run.restored.counter("invariant.violations"), 0u);
  expectBitwiseEqual(run);
}

// --- Differential fidelity: overload machinery mid-flight ---------------------

TEST(SnapshotOverload, RestoreUnderOverloadMatchesUninterrupted) {
  ExperimentConfig config = smallConfig(23);
  std::string error;
  ASSERT_TRUE(vod::OverloadConfig::parse("on", &config.vod.overload, &error))
      << error;
  // Starve the server and release a demand spike so breakers, admission
  // control, and the release plan all have live state at the snapshot.
  config.vod.serverUploadBps = 10'000.0 * 120;
  config.releases.perChannel = 1;
  config.releases.windowStartFraction = 0.3;
  config.releases.windowEndFraction = 0.7;
  config.releases.feedWatchProbability = 0.9;
  const DifferentialRun run =
      runDifferential(config, SystemKind::kSocialTube, config.duration / 2);
  EXPECT_GT(run.baseline.counter("server.shed"), 0u);
  EXPECT_GT(run.baseline.releasesFired(), 0u);
  expectBitwiseEqual(run);
}

// --- Multi-seed batch: parallel restores must equal sequential ones -----------

TEST(SnapshotMultiSeed, ParallelRestoresAreBitwiseEqual) {
  constexpr std::uint64_t kSeeds[] = {21, 22, 23};
  constexpr std::size_t kCount = std::size(kSeeds);

  std::vector<std::string> paths(kCount);
  std::vector<ExperimentResult> baseline(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    const ExperimentConfig config = smallConfig(kSeeds[i]);
    paths[i] = snapshotPath("seed" + std::to_string(kSeeds[i]));
    baseline[i] = runSaving(config, SystemKind::kSocialTube, paths[i],
                            config.duration / 2);
  }

  const auto restored = [&](std::size_t i) {
    return runRestoring(smallConfig(kSeeds[i]), SystemKind::kSocialTube,
                        paths[i]);
  };
  std::vector<ExperimentResult> sequential(kCount);
  for (std::size_t i = 0; i < kCount; ++i) sequential[i] = restored(i);
  std::vector<ExperimentResult> parallel(kCount);
  {
    ThreadPool pool(8);
    parallelFor(&pool, kCount, [&](std::size_t i) { parallel[i] = restored(i); });
  }

  for (std::size_t i = 0; i < kCount; ++i) {
    SCOPED_TRACE("seed " + std::to_string(kSeeds[i]));
    // Restored twins agree with each other across thread counts, and with
    // the run that never stopped.
    expectSameOutcome(sequential[i], parallel[i]);
    expectSameOutcome(sequential[i], baseline[i]);
    std::remove(paths[i].c_str());
  }
}

// --- Warm-start forking -------------------------------------------------------

// A calm snapshot forks into a faulted what-if: the injector is configured
// only on the restoring run (absent from the file), so the runner arms it
// on top of the warmed state.
TEST(SnapshotFork, CalmSnapshotForksIntoFaultedScenario) {
  ExperimentConfig config = smallConfig(29);
  const std::string path = snapshotPath("warm");
  EXPECT_GT(runSaving(config, SystemKind::kSocialTube, path,
                      config.duration / 2)
                .watches(),
            0u);
  ExperimentConfig forked = config;
  // All fault times lie after the snapshot point (duration/2 = 10800 s).
  forked.faults.spec = "crash:t=12000,frac=0.2;outage:t=15000,dur=300";
  forked.faults.auditInterval = 10 * sim::kMinute;
  const ExperimentResult result =
      runRestoring(forked, SystemKind::kSocialTube, path);
  EXPECT_EQ(result.counter("fault.events"), 2u);
  EXPECT_GT(result.counter("fault.crashes"), 0u);
  EXPECT_EQ(result.counter("invariant.violations"), 0u);
  EXPECT_GT(result.watches(), 0u);
  std::remove(path.c_str());
}

// --- save -> load -> save byte identity ---------------------------------------

TEST(SnapshotRoundTrip, ResaveIsByteIdentical) {
  const ExperimentConfig config = smallConfig(31);
  const std::string first = snapshotPath("first");
  runSaving(config, SystemKind::kSocialTube, first, config.duration / 2);

  const auto run = makeRun(config, SystemKind::kSocialTube);
  ASSERT_TRUE(run);
  expectResaveIdentical(*run, first);
  std::remove(first.c_str());
}

// --- Every machinery pending at once -----------------------------------------

// Crash/rejoin recovery, slow and flap windows, invariant audits, a release
// plan, the overload ladder and an armed --snapshot-out save, all live in
// one run. The save is a tagged event, so a direct save at any event
// boundary before the save time succeeds (it carries the pending save),
// and each file restores into a fresh Run and resaves to the same bytes.
// The last restored run then finishes exactly like the one that never
// stopped.
class SnapshotFullMachinery : public ::testing::TestWithParam<SystemKind> {};

TEST_P(SnapshotFullMachinery, SaveAtAnyEventBoundaryRoundTrips) {
  ExperimentConfig config = smallConfig(43);
  config.faults.spec =
      "crash:t=1800,frac=0.2;rejoin:t=1805,frac=1;"
      "slow:t=2400,dur=3600,frac=0.3,factor=4;"
      "flap:t=3000,dur=3600,frac=0.2,factor=3,period=120";
  config.faults.auditInterval = 10 * sim::kMinute;
  std::string error;
  ASSERT_TRUE(vod::OverloadConfig::parse("on", &config.vod.overload, &error))
      << error;
  config.releases.perChannel = 1;
  config.snapshot.out = snapshotPath("armed");
  config.snapshot.at = 5 * sim::kHour;
  const trace::Catalog catalog = trace::generateTrace(config.trace);
  const auto run = makeRun(config, GetParam(), &catalog);
  ASSERT_TRUE(run);
  run->start();
  sim::Simulator& simulator = run->simulator();
  const std::string path = snapshotPath("boundary");
  std::unique_ptr<exp::Run> restored;
  // Releases pending; crash victims offline; recovery rounds pending; slow
  // and flap windows active; both windows closed.
  for (const double seconds : {900.0, 1803.0, 1900.0, 3200.0, 6500.0}) {
    simulator.runUntil(sim::fromSeconds(seconds));
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(simulator.step());
    SCOPED_TRACE("save at t=" + std::to_string(simulator.now()));
    ASSERT_TRUE(
        snapshot::save(path, run->participants(), run->compat(), &error))
        << error;
    restored = makeRun(config, GetParam(), &catalog);
    ASSERT_TRUE(restored);
    expectResaveIdentical(*restored, path);
    ASSERT_FALSE(HasFatalFailure());
  }

  ASSERT_TRUE(run->runToHorizon(&error)) << error;
  ASSERT_TRUE(restored->runToHorizon(&error)) << error;
  const ExperimentResult original = run->extract();
  EXPECT_GT(original.counter("fault.crashes"), 0u);
  EXPECT_GT(original.releasesFired(), 0u);
  EXPECT_EQ(original.counter("invariant.violations"), 0u);
  expectSameOutcome(original, restored->extract());
  std::remove(path.c_str());
  std::remove(config.snapshot.out.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllSystems, SnapshotFullMachinery,
                         ::testing::Values(SystemKind::kSocialTube,
                                           SystemKind::kNetTube,
                                           SystemKind::kPaVod),
                         systemParamName);

// --- Restore refuses mismatched environments ----------------------------------

class SnapshotMismatch : public ::testing::Test {
 protected:
  // One calm SocialTube snapshot shared by the refusal cases.
  static std::string makeSnapshot(const ExperimentConfig& config) {
    const std::string path = snapshotPath("donor");
    runSaving(config, SystemKind::kSocialTube, path, config.duration / 2);
    return path;
  }
  // Restores `path` into a fresh run of `config`, which must refuse it, and
  // returns the message; the file is removed.
  static std::string refusal(const std::string& path,
                             const ExperimentConfig& config,
                             SystemKind system) {
    const auto run = makeRun(config, system);
    std::string error = "no run";
    if (run != nullptr) {
      EXPECT_FALSE(run->restore(path, &error));
    }
    std::remove(path.c_str());
    return error;
  }
};

TEST_F(SnapshotMismatch, RefusesDifferentSeed) {
  const ExperimentConfig config = smallConfig(37);
  ExperimentConfig other = smallConfig(38);
  other.trace.seed = config.trace.seed;  // same workload shape, wrong seed
  const std::string error =
      refusal(makeSnapshot(config), other, SystemKind::kSocialTube);
  EXPECT_NE(error.find("seed"), std::string::npos) << error;
}

TEST_F(SnapshotMismatch, RefusesDifferentSystem) {
  const ExperimentConfig config = smallConfig(37);
  const std::string error =
      refusal(makeSnapshot(config), config, SystemKind::kNetTube);
  EXPECT_NE(error.find("SocialTube"), std::string::npos) << error;
}

TEST_F(SnapshotMismatch, RefusesDroppingTheFaultSchedule) {
  ExperimentConfig config = smallConfig(37);
  config.faults.spec = "crash:t=3000,frac=0.1";
  // Restoring calm: the snapshot carries injector state and pending fault
  // events whose factory would be missing.
  const std::string error = refusal(makeSnapshot(config), smallConfig(37),
                                    SystemKind::kSocialTube);
  EXPECT_NE(error.find("--faults"), std::string::npos) << error;
}

TEST_F(SnapshotMismatch, RefusesDroppingTheTraceSink) {
  const ExperimentConfig config = smallConfig(37);
  const std::string path = snapshotPath("traced");
  obs::EventTrace trace;
  runSaving(config, SystemKind::kSocialTube, path, config.duration / 2,
            &trace);
  // A fresh run has no trace sink.
  const std::string error = refusal(path, config, SystemKind::kSocialTube);
  EXPECT_NE(error.find("trace"), std::string::npos) << error;
}

// A save time before the file's clock would fire in the past and pull the
// restored clock back, so the restore is refused, naming the flag and both
// times.
TEST_F(SnapshotMismatch, RefusesASaveTimeBeforeTheFilesClock) {
  ExperimentConfig config = smallConfig(37);
  const std::string path = makeSnapshot(config);  // saved at duration / 2
  config.snapshot.out = snapshotPath("resave");
  config.snapshot.at = config.duration / 4;
  const std::string error = refusal(path, config, SystemKind::kSocialTube);
  EXPECT_NE(error.find("--snapshot-at " +
                       std::to_string(config.snapshot.at / sim::kSecond) +
                       " s precedes the file's clock, " +
                       std::to_string(config.duration / 2 / sim::kSecond) +
                       " s"),
            std::string::npos)
      << error;
  std::remove(config.snapshot.out.c_str());
}

// --- File errors end the run, not the process ---------------------------------

// A snapshot file that cannot be read or written comes back as the run's
// error, naming the flag and the path; the process goes on.

TEST(SnapshotFileError, MissingInputIsTheRunError) {
  ExperimentConfig config = smallConfig(41);
  config.snapshot.in = snapshotPath("missing");
  std::remove(config.snapshot.in.c_str());
  const ExperimentResult result =
      runExperiment(config, SystemKind::kSocialTube);
  EXPECT_NE(result.error.find("--snapshot-in " + config.snapshot.in),
            std::string::npos)
      << result.error;
  EXPECT_EQ(result.system, "SocialTube");
  EXPECT_TRUE(result.counters.empty());
}

TEST(SnapshotFileError, UnwritableOutputIsTheRunError) {
  ExperimentConfig config = smallConfig(41);
  // A file inside a directory that does not exist.
  config.snapshot.out = snapshotPath("no_such_dir") + "/out.snap";
  config.snapshot.at = config.duration / 2;
  const ExperimentResult result = runExperiment(config, SystemKind::kNetTube);
  EXPECT_NE(result.error.find("--snapshot-out " + config.snapshot.out),
            std::string::npos)
      << result.error;
  EXPECT_TRUE(result.counters.empty());
}

// --- Golden file / format-version regression ----------------------------------

ExperimentConfig goldenConfig() {
  ExperimentConfig config = ExperimentConfig::simulationDefaults(5);
  config = config.scaledTo(60, 2);
  config.duration = 3 * sim::kHour;
  return config;
}

// The committed golden snapshot (tests/data/golden_v<kFormatVersion>.snap)
// was written by this very config with the save point at t=1h. Two
// regressions are caught here: a codec/layout change that forgets to bump
// kFormatVersion (the CRC or section parse breaks), and a version bump that
// forgets to commit a golden for the new version (the file is missing).
// Generate it with:
//   ST_REGEN_GOLDEN=1 ./tests/snapshot_test
//       --gtest_filter=GoldenSnapshot.CurrentVersionFileStillRestores
// Older goldens stay committed as refusal fixtures (see below).
std::string goldenPath(std::uint32_t version) {
  return std::string(ST_TEST_DATA_DIR) + "/golden_v" +
         std::to_string(version) + ".snap";
}

TEST(GoldenSnapshot, CurrentVersionFileStillRestores) {
  const ExperimentConfig config = goldenConfig();
  const std::string path = goldenPath(snapshot::kFormatVersion);
  const sim::SimTime saveAt = sim::kHour;

  if (std::getenv("ST_REGEN_GOLDEN") != nullptr) {
    runSaving(config, SystemKind::kSocialTube, path, saveAt);
    GTEST_SKIP() << "regenerated " << path;
  }

  // Header sanity: the file on disk is the version this build reads.
  {
    snapshot::Reader reader(fileBytes(path));
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(reader.version(), snapshot::kFormatVersion);
  }

  // The committed file still restores and finishes identical to today's
  // uninterrupted run (same save event armed; see snapshot_harness.h).
  const std::string rewrite = snapshotPath("golden_rewrite");
  const ExperimentResult baseline =
      runSaving(config, SystemKind::kSocialTube, rewrite, saveAt);
  // Today's save at the same point writes the committed bytes exactly: a
  // refactor that reorders any section's byte stream fails here.
  {
    const std::vector<std::uint8_t> golden = fileBytes(path);
    const std::vector<std::uint8_t> rewritten = fileBytes(rewrite);
    ASSERT_FALSE(golden.empty());
    EXPECT_TRUE(rewritten == golden)
        << "the 1-h save differs from " << path << " (" << rewritten.size()
        << " vs " << golden.size() << " bytes)";
  }
  std::remove(rewrite.c_str());

  const ExperimentResult restored =
      runRestoring(config, SystemKind::kSocialTube, path);
  expectSameOutcome(baseline, restored);
}

// Version 1 kept the unsharded queue in its own section; a version-1 file
// is refused by its header, before any section is parsed.
TEST(GoldenSnapshot, V1FileIsRefusedByVersion) {
  const auto run = makeRun(goldenConfig(), SystemKind::kSocialTube);
  ASSERT_TRUE(run);
  std::string error;
  EXPECT_FALSE(run->restore(goldenPath(1), &error));
  EXPECT_NE(error.find("version 1"), std::string::npos) << error;
}

// Version 2 kept a byte ledger and a pending finish event per flow; a
// version-2 file is refused by its header too.
TEST(GoldenSnapshot, V2FileIsRefusedByVersion) {
  const auto run = makeRun(goldenConfig(), SystemKind::kSocialTube);
  ASSERT_TRUE(run);
  std::string error;
  EXPECT_FALSE(run->restore(goldenPath(2), &error));
  EXPECT_NE(error.find("version 2"), std::string::npos) << error;
}

// Version 3 saved each endpoint's membership lists, the transfer
// manager's flow-to-watch map and prefetch tallies, and each user's online
// flag beside the records they derive from; a version-3 file is refused by
// its header too.
TEST(GoldenSnapshot, V3FileIsRefusedByVersion) {
  const auto run = makeRun(goldenConfig(), SystemKind::kSocialTube);
  ASSERT_TRUE(run);
  std::string error;
  EXPECT_FALSE(run->restore(goldenPath(3), &error));
  EXPECT_NE(error.find("version 3"), std::string::npos) << error;
}

}  // namespace
}  // namespace st::exp

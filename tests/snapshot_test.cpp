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
#include <optional>
#include <string>
#include <vector>

#include "exp/config.h"
#include "exp/runner.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "snapshot_harness.h"
#include "util/thread_pool.h"

#ifndef ST_TEST_DATA_DIR
#define ST_TEST_DATA_DIR "tests/data"
#endif

namespace st::exp {
namespace {

using st::testing::DifferentialRun;
using st::testing::RestoreStack;
using st::testing::expectBitwiseEqual;
using st::testing::runDifferential;
using st::testing::snapshotPath;

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
                         [](const auto& info) {
                           switch (info.param) {
                             case SystemKind::kSocialTube: return "SocialTube";
                             case SystemKind::kNetTube: return "NetTube";
                             case SystemKind::kPaVod: return "PaVod";
                           }
                           return "unknown";
                         });

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
    ExperimentConfig warm = smallConfig(kSeeds[i]);
    paths[i] = snapshotPath("seed" + std::to_string(kSeeds[i]));
    warm.snapshot.out = paths[i];
    warm.snapshot.at = warm.duration / 2;
    baseline[i] = runExperiment(warm, SystemKind::kSocialTube);
  }

  const auto restored = [&](std::size_t i) {
    ExperimentConfig resumed = smallConfig(kSeeds[i]);
    resumed.snapshot.in = paths[i];
    return runExperiment(resumed, SystemKind::kSocialTube);
  };
  std::vector<ExperimentResult> sequential(kCount);
  for (std::size_t i = 0; i < kCount; ++i) sequential[i] = restored(i);
  std::vector<ExperimentResult> parallel(kCount);
  {
    ThreadPool pool(8);
    parallelFor(&pool, kCount, [&](std::size_t i) { parallel[i] = restored(i); });
  }

  for (std::size_t i = 0; i < kCount; ++i) {
    // Restored twins agree with each other across thread counts...
    EXPECT_TRUE(sequential[i].counters == parallel[i].counters)
        << "seed " << kSeeds[i];
    EXPECT_EQ(sequential[i].overlayFingerprint, parallel[i].overlayFingerprint)
        << "seed " << kSeeds[i];
    EXPECT_EQ(sequential[i].startupDelayMs.mean(),
              parallel[i].startupDelayMs.mean())
        << "seed " << kSeeds[i];
    // ...and with the run that never stopped.
    EXPECT_TRUE(sequential[i].counters == baseline[i].counters)
        << "seed " << kSeeds[i];
    EXPECT_EQ(sequential[i].overlayFingerprint, baseline[i].overlayFingerprint)
        << "seed " << kSeeds[i];
    EXPECT_EQ(sequential[i].uploadGini, baseline[i].uploadGini)
        << "seed " << kSeeds[i];
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
  {
    ExperimentConfig warm = config;
    warm.snapshot.out = path;
    warm.snapshot.at = config.duration / 2;
    const ExperimentResult result =
        runExperiment(warm, SystemKind::kSocialTube);
    EXPECT_GT(result.watches(), 0u);
  }
  ExperimentConfig forked = config;
  forked.snapshot.in = path;
  // All fault times lie after the snapshot point (duration/2 = 10800 s).
  forked.faults.spec = "crash:t=12000,frac=0.2;outage:t=15000,dur=300";
  forked.faults.auditInterval = 10 * sim::kMinute;
  const ExperimentResult result = runExperiment(forked, SystemKind::kSocialTube);
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
  const std::string second = snapshotPath("second");
  {
    ExperimentConfig warm = config;
    warm.snapshot.out = first;
    warm.snapshot.at = config.duration / 2;
    runExperiment(warm, SystemKind::kSocialTube);
  }

  RestoreStack stack(config, SystemKind::kSocialTube);
  const snapshot::Participants participants = stack.participants();
  std::string error;
  ASSERT_TRUE(
      snapshot::restore(first, participants, stack.compat(), &error))
      << error;
  ASSERT_TRUE(snapshot::save(second, participants, stack.compat(), &error))
      << error;

  std::vector<std::uint8_t> a;
  std::vector<std::uint8_t> b;
  ASSERT_TRUE(snapshot::Reader::readFile(first, &a, &error)) << error;
  ASSERT_TRUE(snapshot::Reader::readFile(second, &b, &error)) << error;
  EXPECT_EQ(a.size(), b.size());
  EXPECT_TRUE(a == b) << "resaved snapshot differs from the original";
  std::remove(first.c_str());
  std::remove(second.c_str());
}

// --- Restore refuses mismatched environments ----------------------------------

class SnapshotMismatch : public ::testing::Test {
 protected:
  // One calm SocialTube snapshot shared by the refusal cases.
  static std::string makeSnapshot(const ExperimentConfig& config) {
    const std::string path = snapshotPath("donor");
    ExperimentConfig warm = config;
    warm.snapshot.out = path;
    warm.snapshot.at = config.duration / 2;
    runExperiment(warm, SystemKind::kSocialTube);
    return path;
  }
};

TEST_F(SnapshotMismatch, RefusesDifferentSeed) {
  const ExperimentConfig config = smallConfig(37);
  const std::string path = makeSnapshot(config);
  ExperimentConfig other = smallConfig(38);
  other.trace.seed = config.trace.seed;  // same workload shape, wrong seed
  RestoreStack stack(other, SystemKind::kSocialTube);
  std::string error;
  EXPECT_FALSE(
      snapshot::restore(path, stack.participants(), stack.compat(), &error));
  EXPECT_NE(error.find("seed"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST_F(SnapshotMismatch, RefusesDifferentSystem) {
  const ExperimentConfig config = smallConfig(37);
  const std::string path = makeSnapshot(config);
  RestoreStack stack(config, SystemKind::kNetTube);
  std::string error;
  EXPECT_FALSE(
      snapshot::restore(path, stack.participants(), stack.compat(), &error));
  EXPECT_NE(error.find("SocialTube"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST_F(SnapshotMismatch, RefusesDroppingTheFaultSchedule) {
  ExperimentConfig config = smallConfig(37);
  config.faults.spec = "crash:t=3000,frac=0.1";
  const std::string path = makeSnapshot(config);
  // Restoring calm: the snapshot carries injector state and pending fault
  // events whose factory would be missing.
  ExperimentConfig calm = smallConfig(37);
  RestoreStack stack(calm, SystemKind::kSocialTube);
  std::string error;
  EXPECT_FALSE(
      snapshot::restore(path, stack.participants(), stack.compat(), &error));
  EXPECT_NE(error.find("--faults"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST_F(SnapshotMismatch, RefusesDroppingTheTraceSink) {
  const ExperimentConfig config = smallConfig(37);
  const std::string path = snapshotPath("traced");
  {
    ExperimentConfig warm = config;
    warm.snapshot.out = path;
    warm.snapshot.at = config.duration / 2;
    obs::EventTrace trace;
    runExperiment(warm, SystemKind::kSocialTube, nullptr, &trace);
  }
  RestoreStack stack(config, SystemKind::kSocialTube);  // no trace sink
  std::string error;
  EXPECT_FALSE(
      snapshot::restore(path, stack.participants(), stack.compat(), &error));
  EXPECT_NE(error.find("trace"), std::string::npos) << error;
  std::remove(path.c_str());
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
    ExperimentConfig warm = config;
    warm.snapshot.out = path;
    warm.snapshot.at = saveAt;
    runExperiment(warm, SystemKind::kSocialTube);
    GTEST_SKIP() << "regenerated " << path;
  }

  // Header sanity: the file on disk is the version this build reads.
  {
    std::vector<std::uint8_t> bytes;
    std::string error;
    ASSERT_TRUE(snapshot::Reader::readFile(path, &bytes, &error)) << error;
    snapshot::Reader reader(std::move(bytes));
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(reader.version(), snapshot::kFormatVersion);
  }

  // The committed file still restores and finishes identical to today's
  // uninterrupted run (same save event armed; see snapshot_harness.h).
  ExperimentConfig warm = config;
  warm.snapshot.out = snapshotPath("golden_rewrite");
  warm.snapshot.at = saveAt;
  const ExperimentResult baseline =
      runExperiment(warm, SystemKind::kSocialTube);
  // Today's save at the same point writes the committed bytes exactly: a
  // refactor that reorders any section's byte stream fails here.
  {
    std::vector<std::uint8_t> golden;
    std::vector<std::uint8_t> rewritten;
    std::string error;
    ASSERT_TRUE(snapshot::Reader::readFile(path, &golden, &error)) << error;
    ASSERT_TRUE(snapshot::Reader::readFile(warm.snapshot.out, &rewritten,
                                           &error))
        << error;
    EXPECT_TRUE(rewritten == golden)
        << "the 1-h save differs from " << path << " (" << rewritten.size()
        << " vs " << golden.size() << " bytes)";
  }
  std::remove(warm.snapshot.out.c_str());

  ExperimentConfig resumed = config;
  resumed.snapshot.in = path;
  const ExperimentResult restored =
      runExperiment(resumed, SystemKind::kSocialTube);
  EXPECT_TRUE(restored.counters == baseline.counters);
  if (!(restored.counters == baseline.counters)) {
    for (const auto& entry : baseline.counters.entries()) {
      if (restored.counters.at(entry.name) != entry.value) {
        ADD_FAILURE() << "counter " << entry.name << ": baseline "
                      << entry.value << " vs restored "
                      << restored.counters.at(entry.name);
      }
    }
  }
  EXPECT_EQ(restored.overlayFingerprint, baseline.overlayFingerprint);
  EXPECT_EQ(restored.startupDelayMs.mean(), baseline.startupDelayMs.mean());
  EXPECT_EQ(restored.uploadGini, baseline.uploadGini);
}

// Version 1 kept the unsharded queue in its own section; a version-1 file
// is refused by its header, before any section is parsed.
TEST(GoldenSnapshot, V1FileIsRefusedByVersion) {
  RestoreStack stack(goldenConfig(), SystemKind::kSocialTube);
  std::string error;
  EXPECT_FALSE(snapshot::restore(goldenPath(1), stack.participants(),
                                 stack.compat(), &error));
  EXPECT_NE(error.find("version 1"), std::string::npos) << error;
}

}  // namespace
}  // namespace st::exp

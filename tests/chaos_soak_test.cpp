// Chaos soak (ctest label: soak): a multi-seed SocialTube day under a
// composed crash + loss + partition + blackhole + outage schedule, with the
// invariant checker auditing throughout. The structural contract must hold
// (zero confirmed violations), the server fallback must stay functional,
// and the whole faulted batch must stay bitwise-reproducible across thread
// counts.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "exp/multiseed.h"
#include "exp/runner.h"
#include "snapshot_harness.h"
#include "util/thread_pool.h"
#include "vod/overload.h"

namespace st::exp {
namespace {

constexpr std::size_t kSeeds = 5;

ExperimentConfig chaosConfig() {
  ExperimentConfig config = ExperimentConfig::simulationDefaults(11);
  config = config.scaledTo(300, 4);
  config.duration = sim::kDay;
  // Exercise the hardened search path under faults, not just the fallback.
  config.vod.searchRetries = 2;
  // A day of layered misbehavior: an early crash wave, a lossy window, a
  // server-severed interest partition, a blackhole cohort, a full server
  // outage, and a second crash wave while the overlay is still healing.
  config.faults.spec =
      "crash:t=7200,frac=0.15;"
      "loss:t=10800,dur=900,rate=0.25,delay_ms=40;"
      "partition:t=21600,dur=1200,cat=1,server=1;"
      "blackhole:t=32400,dur=600,frac=0.05;"
      "outage:t=43200,dur=300;"
      "crash:t=54000,frac=0.1";
  config.faults.auditInterval = 10 * sim::kMinute;
  return config;
}

TEST(ChaosSoak, InvariantsHoldAndFallbackSurvivesAcrossSeeds) {
  const ExperimentConfig config = chaosConfig();
  const MultiSeedSummary sequential =
      runSeeds(config, SystemKind::kSocialTube, kSeeds, /*threads=*/1);
  const MultiSeedSummary parallel =
      runSeeds(config, SystemKind::kSocialTube, kSeeds, /*threads=*/8);

  ASSERT_EQ(sequential.runs.size(), kSeeds);
  ASSERT_EQ(parallel.runs.size(), kSeeds);
  for (std::size_t i = 0; i < kSeeds; ++i) {
    const ExperimentResult& run = sequential.runs[i];
    // The overlay's structural contract held on every audit of the day.
    EXPECT_EQ(run.counter("invariant.violations"), 0u) << "seed " << run.seed;
    EXPECT_GT(run.counter("invariant.audits"), 100u) << "seed " << run.seed;
    // Faults actually happened...
    EXPECT_GT(run.counter("fault.crashes"), 0u) << "seed " << run.seed;
    EXPECT_EQ(run.counter("fault.events"), 6u) << "seed " << run.seed;
    EXPECT_GT(run.counter("messages_faulted"), 0u) << "seed " << run.seed;
    // ...and the system degraded gracefully instead of wedging: watches
    // kept completing and the server fallback stayed reachable.
    EXPECT_GT(run.watches(), 0u) << "seed " << run.seed;
    EXPECT_GT(run.serverChunks(), 0u) << "seed " << run.seed;
    EXPECT_GT(run.sessionsCompleted(), 0u) << "seed " << run.seed;

    // Bitwise reproducibility of the faulted runs, 1 vs 8 threads.
    const ExperimentResult& other = parallel.runs[i];
    EXPECT_EQ(run.seed, other.seed) << "run " << i;
    EXPECT_TRUE(run.counters == other.counters) << "seed " << run.seed;
    EXPECT_EQ(run.startupDelayMs.mean(), other.startupDelayMs.mean())
        << "seed " << run.seed;
    EXPECT_EQ(run.aggregatePeerFraction(), other.aggregatePeerFraction())
        << "seed " << run.seed;
    EXPECT_EQ(run.uploadGini, other.uploadGini) << "seed " << run.seed;
  }
}

// Overload soak: the same faulted day with the full degradation ladder on
// and a demand spike released into the partition window. The structural
// contract must still hold, breakers must open on faulted neighbors and
// re-close once the overlay heals, and the batch must stay bitwise-
// reproducible across thread counts with every overload knob active.
TEST(ChaosSoak, OverloadLadderUnderFaultsStaysInvariantCleanAndDeterministic) {
  constexpr std::size_t kOverloadSeeds = 3;
  ExperimentConfig config = chaosConfig();
  std::string error;
  ASSERT_TRUE(
      vod::OverloadConfig::parse("on", &config.vod.overload, &error)) << error;
  // Starve the server and land a release wave inside the partition window
  // (t=21600..32400 of the day) so admission control has real work.
  config.vod.serverUploadBps = 10'000.0 * 300;
  config.releases.perChannel = 2;
  config.releases.windowStartFraction = 0.25;
  config.releases.windowEndFraction = 0.375;
  config.releases.feedWatchProbability = 0.9;

  const MultiSeedSummary sequential =
      runSeeds(config, SystemKind::kSocialTube, kOverloadSeeds, /*threads=*/1);
  const MultiSeedSummary parallel =
      runSeeds(config, SystemKind::kSocialTube, kOverloadSeeds, /*threads=*/8);

  ASSERT_EQ(sequential.runs.size(), kOverloadSeeds);
  ASSERT_EQ(parallel.runs.size(), kOverloadSeeds);
  for (std::size_t i = 0; i < kOverloadSeeds; ++i) {
    const ExperimentResult& run = sequential.runs[i];
    // Shedding and preemption must not corrupt the overlay's structure.
    EXPECT_EQ(run.counter("invariant.violations"), 0u) << "seed " << run.seed;
    EXPECT_GT(run.counter("invariant.audits"), 100u) << "seed " << run.seed;
    EXPECT_EQ(run.counter("fault.events"), 6u) << "seed " << run.seed;
    // The spike hit a starved server: admission control actually shed work.
    EXPECT_GT(run.counter("server.shed"), 0u) << "seed " << run.seed;
    // Breakers opened on faulted neighbors and re-closed after repair.
    EXPECT_GT(run.counter("breaker.opened"), 0u) << "seed " << run.seed;
    EXPECT_GT(run.counter("breaker.closed"), 0u) << "seed " << run.seed;
    EXPECT_LT(run.counter("breaker.open"), run.counter("breaker.opened"))
        << "seed " << run.seed;
    // Degraded, not wedged.
    EXPECT_GT(run.watches(), 0u) << "seed " << run.seed;
    EXPECT_GT(run.sessionsCompleted(), 0u) << "seed " << run.seed;

    // Bitwise reproducibility with every overload knob active, 1 vs 8
    // threads — the breaker boards, pause lists, and SLO ledgers are all
    // per-run state and must not leak across the pool.
    const ExperimentResult& other = parallel.runs[i];
    EXPECT_EQ(run.seed, other.seed) << "run " << i;
    EXPECT_TRUE(run.counters == other.counters) << "seed " << run.seed;
    EXPECT_EQ(run.startupDelayMs.mean(), other.startupDelayMs.mean())
        << "seed " << run.seed;
    EXPECT_EQ(run.startupDelayMs.percentile(99),
              other.startupDelayMs.percentile(99))
        << "seed " << run.seed;
    EXPECT_EQ(run.aggregatePeerFraction(), other.aggregatePeerFraction())
        << "seed " << run.seed;
    EXPECT_EQ(run.uploadGini, other.uploadGini) << "seed " << run.seed;
  }
}

// Restore-resumes-chaos: snapshot each seed's faulted day at t=10h — after
// the crash wave, lossy window, partition, and blackhole, with the second
// half (outage + second crash wave) still pending in the injector — then
// restore and run the remaining half. The resumed runs must finish bitwise-
// identical to their uninterrupted twins, keep the structural contract
// clean, and stay bitwise-equal whether the restores execute sequentially
// or on an 8-thread pool.
TEST(ChaosSoak, RestoreMidSoakResumesCleanAndDeterministic) {
  constexpr std::uint64_t kRestoreSeeds[] = {11, 12, 13};
  constexpr std::size_t kCount = std::size(kRestoreSeeds);
  const sim::SimTime saveAt = 10 * sim::kHour;

  std::vector<std::string> paths(kCount);
  std::vector<ExperimentResult> baseline(kCount);
  const auto seeded = [&](std::size_t i) {
    ExperimentConfig config = chaosConfig();
    config.seed = kRestoreSeeds[i];
    config.trace.seed = kRestoreSeeds[i];
    return config;
  };
  for (std::size_t i = 0; i < kCount; ++i) {
    paths[i] = st::testing::snapshotPath("seed" +
                                         std::to_string(kRestoreSeeds[i]));
    baseline[i] = st::testing::runSaving(seeded(i), SystemKind::kSocialTube,
                                         paths[i], saveAt);
  }

  const auto restored = [&](std::size_t i) {
    return st::testing::runRestoring(seeded(i), SystemKind::kSocialTube,
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
    const std::uint64_t seed = kRestoreSeeds[i];
    // The whole schedule executed across the seam: four events before the
    // snapshot, outage and second crash wave after the restore.
    EXPECT_EQ(sequential[i].counter("fault.events"), 6u) << "seed " << seed;
    // Audits kept running on the resumed half and stayed clean.
    EXPECT_EQ(sequential[i].counter("invariant.violations"), 0u)
        << "seed " << seed;
    EXPECT_GT(sequential[i].counter("invariant.audits"), 100u)
        << "seed " << seed;
    // Bitwise equality with the run that never stopped, and across restore
    // thread counts.
    SCOPED_TRACE("seed " + std::to_string(seed));
    st::testing::expectSameOutcome(sequential[i], baseline[i]);
    st::testing::expectSameOutcome(sequential[i], parallel[i]);
    std::remove(paths[i].c_str());
  }
}

// --- Gray-failure / delivery-fault / rejoin chaos matrix -----------------------

// The full storm the robustness acceptance criteria name: gray slowdowns and
// link flapping, duplicated and reordered delivery, a crash wave, a server-
// severed partition, and a full-population rejoin — on the sharded engine at
// --shards 8, with the overload ladder and hedged first chunks active and a
// starved server so the breakers have real work.
ExperimentConfig grayChaosConfig() {
  ExperimentConfig config = ExperimentConfig::simulationDefaults(43);
  config = config.scaledTo(300, 4);
  config.trace.numCategories = 8;  // no empty shards at --shards 8
  config.duration = sim::kDay;
  config.vod.searchRetries = 2;
  config.shards.count = 8;
  config.faults.spec =
      "slow:t=7200,dur=7200,frac=0.2,factor=8;"
      "flap:t=10800,dur=3600,frac=0.1,factor=6,period=120;"
      "dup:t=18000,dur=7200,rate=0.25;"
      "reorder:t=18000,dur=7200,rate=0.25,delay_ms=150;"
      "crash:t=28800,frac=0.25;"
      "partition:t=36000,dur=1200,cat=1,server=1;"
      "rejoin:t=43200,frac=1";
  config.faults.auditInterval = 10 * sim::kMinute;
  std::string error;
  if (!vod::OverloadConfig::parse("on,hedge=2", &config.vod.overload, &error)) {
    ADD_FAILURE() << error;
  }
  config.vod.serverUploadBps = 10'000.0 * 300;
  config.releases.perChannel = 2;
  config.releases.windowStartFraction = 0.25;
  config.releases.windowEndFraction = 0.375;
  config.releases.feedWatchProbability = 0.9;
  return config;
}

TEST(ChaosSoak, GrayDeliveryRejoinStormOnShardedEngineStaysCleanAndBitwise) {
  constexpr std::size_t kStormSeeds = 3;
  const ExperimentConfig config = grayChaosConfig();
  const MultiSeedSummary sequential =
      runSeeds(config, SystemKind::kSocialTube, kStormSeeds, /*threads=*/1);
  const MultiSeedSummary parallel =
      runSeeds(config, SystemKind::kSocialTube, kStormSeeds, /*threads=*/8);

  ASSERT_EQ(sequential.runs.size(), kStormSeeds);
  ASSERT_EQ(parallel.runs.size(), kStormSeeds);
  for (std::size_t i = 0; i < kStormSeeds; ++i) {
    const ExperimentResult& run = sequential.runs[i];
    // Zero confirmed invariant violations across the whole storm — the
    // duplicate-delivery and recovery rules audited all day.
    EXPECT_EQ(run.counter("invariant.violations"), 0u) << "seed " << run.seed;
    EXPECT_GT(run.counter("invariant.audits"), 100u) << "seed " << run.seed;
    // Every family fired.
    EXPECT_EQ(run.counter("fault.events"), 7u) << "seed " << run.seed;
    EXPECT_GT(run.counter("fault.crashes"), 0u) << "seed " << run.seed;
    EXPECT_GT(run.counter("fault.flap_toggles"), 0u) << "seed " << run.seed;
    EXPECT_GT(run.counter("fault.dup_messages"), 0u) << "seed " << run.seed;
    EXPECT_GT(run.counter("fault.reordered"), 0u) << "seed " << run.seed;
    EXPECT_GT(run.counter("fault.rejoins"), 0u) << "seed " << run.seed;
    // Rejoined nodes ran anti-entropy and reconverged: rounds happened,
    // users came clean, and nobody exhausted the round budget.
    EXPECT_GT(run.counter("recovery.rounds"), 0u) << "seed " << run.seed;
    EXPECT_GT(run.counter("recovery.recovered"), 0u) << "seed " << run.seed;
    EXPECT_EQ(run.counter("recovery.abandoned"), 0u) << "seed " << run.seed;
    // Gray-slowed first chunks tripped the hedge deadline: laggards were
    // cancelled and refetched instead of stalling the player.
    EXPECT_GT(run.counter("tm.hedged"), 0u) << "seed " << run.seed;
    // Breakers opened on gray neighbors and re-closed once the windows
    // passed; the board never wedged open.
    EXPECT_GT(run.counter("breaker.opened"), 0u) << "seed " << run.seed;
    EXPECT_GT(run.counter("breaker.closed"), 0u) << "seed " << run.seed;
    EXPECT_LT(run.counter("breaker.open"), run.counter("breaker.opened"))
        << "seed " << run.seed;
    // Degraded, not wedged.
    EXPECT_GT(run.watches(), 0u) << "seed " << run.seed;
    EXPECT_GT(run.serverChunks(), 0u) << "seed " << run.seed;
    EXPECT_GT(run.sessionsCompleted(), 0u) << "seed " << run.seed;
    // The serial merge never undercut the lookahead floor at --shards 8.
    EXPECT_EQ(run.crossBelowFloor, 0u) << "seed " << run.seed;

    // Bitwise reproducibility at --shards 8, 1 vs 8 workers.
    const ExperimentResult& other = parallel.runs[i];
    EXPECT_EQ(run.seed, other.seed) << "run " << i;
    EXPECT_TRUE(run.counters == other.counters) << "seed " << run.seed;
    EXPECT_EQ(run.startupDelayMs.mean(), other.startupDelayMs.mean())
        << "seed " << run.seed;
    EXPECT_EQ(run.startupDelayMs.percentile(99),
              other.startupDelayMs.percentile(99))
        << "seed " << run.seed;
    EXPECT_EQ(run.aggregatePeerFraction(), other.aggregatePeerFraction())
        << "seed " << run.seed;
    EXPECT_EQ(run.uploadGini, other.uploadGini) << "seed " << run.seed;
    EXPECT_EQ(run.crossBelowFloor, other.crossBelowFloor)
        << "seed " << run.seed;
  }
}

// Snapshot the gray storm mid-schedule — inside the slow and dup/reorder
// windows, sixty seconds after the rejoin wave with anti-entropy rounds
// still in flight — and resume. The FALT section carries the gray windows
// and the recovery ledger across the seam, so the resumed run must finish
// bitwise-identical to its uninterrupted twin.
TEST(ChaosSoak, RestoreMidGrayStormResumesBitwise) {
  ExperimentConfig config = ExperimentConfig::simulationDefaults(47);
  config = config.scaledTo(300, 4);
  config.trace.numCategories = 8;
  config.duration = sim::kDay;
  config.shards.count = 8;
  config.faults.spec =
      "crash:t=7200,frac=0.3;"
      "slow:t=32400,dur=7200,frac=0.2,factor=8;"
      "dup:t=32400,dur=7200,rate=0.3;"
      "reorder:t=32400,dur=7200,rate=0.3,delay_ms=150;"
      "rejoin:t=35940,frac=1";
  config.faults.auditInterval = 10 * sim::kMinute;

  const std::string path = st::testing::snapshotPath("gray_storm");
  // t=36000: all windows open.
  const ExperimentResult baseline = st::testing::runSaving(
      config, SystemKind::kSocialTube, path, 10 * sim::kHour);
  const ExperimentResult restored =
      st::testing::runRestoring(config, SystemKind::kSocialTube, path);
  std::remove(path.c_str());

  EXPECT_EQ(restored.counter("fault.events"), 5u);
  EXPECT_GT(restored.counter("fault.dup_messages"), 0u);
  EXPECT_GT(restored.counter("recovery.recovered"), 0u);
  EXPECT_EQ(restored.counter("invariant.violations"), 0u);
  st::testing::expectSameOutcome(baseline, restored);
}

}  // namespace
}  // namespace st::exp

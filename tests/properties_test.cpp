// Cross-system property sweeps: invariants that must hold for every system
// and seed, at small scale with churn and abrupt departures.
#include <gtest/gtest.h>

#include <tuple>

#include "exp/config.h"
#include "exp/runner.h"

namespace st::exp {
namespace {

using Param = std::tuple<SystemKind, std::uint64_t>;

class SystemSeedSweep : public ::testing::TestWithParam<Param> {
 protected:
  static ExperimentConfig config(std::uint64_t seed) {
    ExperimentConfig c = ExperimentConfig::simulationDefaults(seed);
    c = c.scaledTo(300, 4);
    c.duration = 2 * sim::kDay;
    // Heavy abrupt churn to stress the repair paths.
    c.vod.abruptDepartureFraction = 0.4;
    return c;
  }
};

TEST_P(SystemSeedSweep, InvariantsHoldUnderChurn) {
  const auto [kind, seed] = GetParam();
  const ExperimentResult result = runExperiment(config(seed), kind);

  // Every session ran; every watch resolved one way or the other.
  EXPECT_EQ(result.sessionsCompleted(), 300u * 4u);
  EXPECT_EQ(result.watches(), 300u * 4u * 10u);
  EXPECT_EQ(result.startupDelayMs.count() + result.startupTimeouts(),
            result.watches());

  // Normalized peer bandwidth is a fraction per node.
  for (const double x : result.normalizedPeerBandwidth.samples()) {
    ASSERT_GE(x, 0.0);
    ASSERT_LE(x, 1.0);
  }

  // Startup delays are non-negative and bounded by the first-chunk timeout
  // plus the pre-transfer control time (two search phases + server RPCs).
  const double controlSlackMs =
      2.0 * sim::toMillis(config(seed).vod.searchPhaseTimeout) + 2'000.0;
  for (const double ms : result.startupDelayMs.samples()) {
    ASSERT_GE(ms, 0.0);
    ASSERT_LE(ms, sim::toMillis(config(seed).vod.firstChunkTimeout) +
                      controlSlackMs);
  }

  // Link metric bounded by the hard caps.
  const std::size_t hardCap =
      kind == SystemKind::kSocialTube
          ? 2 * (config(seed).vod.innerLinks + config(seed).vod.interLinks)
          : 10'000;  // NetTube grows by design; PA-VoD <= 1
  for (const auto& stats : result.linksByVideosWatched) {
    if (stats.count() == 0) continue;
    EXPECT_LE(stats.max(), static_cast<double>(hardCap));
    EXPECT_GE(stats.min(), 0.0);
  }
  if (kind == SystemKind::kPaVod) {
    EXPECT_EQ(result.prefetchIssued(), 0u);
    for (const auto& stats : result.linksByVideosWatched) {
      if (stats.count() > 0) {
        EXPECT_LE(stats.max(), 1.0);
      }
    }
  }

  // Chunks were actually moved, and some by peers.
  EXPECT_GT(result.peerChunks() + result.serverChunks(), 0u);
  EXPECT_GT(result.peerChunks(), 0u);
}

TEST_P(SystemSeedSweep, DeterministicAcrossRuns) {
  const auto [kind, seed] = GetParam();
  const ExperimentResult a = runExperiment(config(seed), kind);
  const ExperimentResult b = runExperiment(config(seed), kind);
  EXPECT_EQ(a.eventsFired(), b.eventsFired());
  EXPECT_EQ(a.peerChunks(), b.peerChunks());
  EXPECT_EQ(a.serverChunks(), b.serverChunks());
  EXPECT_EQ(a.messagesSent(), b.messagesSent());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SystemSeedSweep,
    ::testing::Combine(::testing::Values(SystemKind::kSocialTube,
                                         SystemKind::kNetTube,
                                         SystemKind::kPaVod),
                       ::testing::Values(1u, 2u, 3u)),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string name = systemName(std::get<0>(info.param));
      std::erase(name, '-');  // gtest names must be alphanumeric
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace st::exp

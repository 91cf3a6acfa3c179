// Claims gate: the paper's Fig. 16-18 orderings, asserted over eight seeds
// instead of one, plus committed bands for each system's 8-seed means.
//
// A change that legitimately moves trajectories (a new flow-solver rounding,
// a new event order) cannot keep bitwise pins, but it must keep what the
// paper claims. Every run here is RunnerIntegration's scale: 500 users x 5
// sessions over 2 simulated days, seeds 1..8, one fresh catalog per seed.
//
// The bands below are mean +/- 3 standard errors of the 8-seed means,
// measured on the solver that re-rated every flow per membership change
// (before the processor-sharing groups, DESIGN.md §12). A mean outside its
// band means the model moved, not just its rounding.
#include <gtest/gtest.h>

#include <cstdio>

#include "exp/multiseed.h"

namespace st::exp {
namespace {

constexpr std::size_t kSeeds = 8;
constexpr std::size_t kThreads = 4;

ExperimentConfig claimsConfig() {
  ExperimentConfig config = ExperimentConfig::simulationDefaults(1);
  config = config.scaledTo(500, 5);
  config.duration = 2 * sim::kDay;
  return config;
}

// [low, high] for one 8-seed mean.
struct Band {
  double low;
  double high;
};

struct Bands {
  Band peerFraction;
  Band delayMeanMs;
  Band rebufferRate;
};

// The three batches, computed once for the whole suite.
class Claims : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const ExperimentConfig config = claimsConfig();
    social_ = new MultiSeedSummary(
        runSeeds(config, SystemKind::kSocialTube, kSeeds, kThreads));
    nettube_ = new MultiSeedSummary(
        runSeeds(config, SystemKind::kNetTube, kSeeds, kThreads));
    pavod_ = new MultiSeedSummary(
        runSeeds(config, SystemKind::kPaVod, kSeeds, kThreads));
    for (const MultiSeedSummary* s : {social_, nettube_, pavod_}) {
      std::printf("%-10s peer fraction %s, mean delay %s ms, rebuffer %s\n",
                  s->system.c_str(), formatStat(s->peerFraction).c_str(),
                  formatStat(s->delayMeanMs).c_str(),
                  formatStat(s->rebufferRate).c_str());
    }
  }
  static void TearDownTestSuite() {
    delete social_;
    delete nettube_;
    delete pavod_;
    social_ = nettube_ = pavod_ = nullptr;
  }

  static void expectInBand(const char* what, const AggregateStat& stat,
                           const Band& band) {
    EXPECT_GE(stat.mean, band.low) << what;
    EXPECT_LE(stat.mean, band.high) << what;
  }
  static void expectInBands(const MultiSeedSummary& summary,
                            const Bands& bands) {
    for (const ExperimentResult& run : summary.runs) {
      ASSERT_TRUE(run.error.empty()) << run.error;
    }
    ASSERT_EQ(summary.runs.size(), kSeeds);
    expectInBand("peer fraction", summary.peerFraction, bands.peerFraction);
    expectInBand("mean startup delay", summary.delayMeanMs, bands.delayMeanMs);
    expectInBand("rebuffer rate", summary.rebufferRate, bands.rebufferRate);
  }

  static MultiSeedSummary* social_;
  static MultiSeedSummary* nettube_;
  static MultiSeedSummary* pavod_;
};

MultiSeedSummary* Claims::social_ = nullptr;
MultiSeedSummary* Claims::nettube_ = nullptr;
MultiSeedSummary* Claims::pavod_ = nullptr;

TEST_F(Claims, Fig16BothOverlaysFarAbovePaVod) {
  EXPECT_GT(social_->peerFraction.mean, pavod_->peerFraction.mean + 0.2);
  EXPECT_GT(nettube_->peerFraction.mean, pavod_->peerFraction.mean + 0.2);
}

// Known deviation 4 (EXPERIMENTS.md): the paper has SocialTube well above
// NetTube; at this scale NetTube is a little ahead (-0.026, seeds paired by
// catalog). The band is that gap +/- 3 standard errors of the per-seed
// differences; it records the deviation and does not assert the paper's gap.
TEST_F(Claims, Fig16SocialTubeMinusNetTubeStaysInTheDeviationBand) {
  const double gap = social_->peerFraction.mean - nettube_->peerFraction.mean;
  EXPECT_GE(gap, -0.049);
  EXPECT_LE(gap, -0.004);
}

TEST_F(Claims, Fig17PaVodWorstAndSocialTubeBelowNetTube) {
  EXPECT_GT(pavod_->delayMeanMs.mean, social_->delayMeanMs.mean);
  EXPECT_GT(pavod_->delayMeanMs.mean, nettube_->delayMeanMs.mean);
  EXPECT_LT(social_->delayMeanMs.mean, nettube_->delayMeanMs.mean);
}

// Mean links after the 2nd and the 10th video of a session, per seed:
// SocialTube stays flat under N_l + N_h, NetTube keeps adding links.
TEST_F(Claims, Fig18SocialTubeFlatUnderCeilingNetTubeGrows) {
  const ExperimentConfig config = claimsConfig();
  const auto socialCeiling =
      static_cast<double>(config.vod.innerLinks + config.vod.interLinks);
  for (std::size_t i = 0; i < kSeeds; ++i) {
    const ExperimentResult& social = social_->runs[i];
    const ExperimentResult& net = nettube_->runs[i];
    EXPECT_LT(social.linksByVideosWatched[10].mean(), socialCeiling)
        << "seed " << social.seed;
    EXPECT_GT(net.linksByVideosWatched[10].mean(),
              net.linksByVideosWatched[2].mean() * 1.5)
        << "seed " << net.seed;
  }
  EXPECT_LT(social_->linksFinal.mean, socialCeiling);
  EXPECT_GT(nettube_->linksFinal.mean, social_->linksFinal.mean);
}

TEST_F(Claims, SocialTubeMeansStayInTheirBands) {
  // 0.7916 +/- 0.0203, 1,527 +/- 191 ms, 0.0675 +/- 0.0063.
  expectInBands(*social_, {.peerFraction = {0.7305, 0.8527},
                           .delayMeanMs = {952, 2102},
                           .rebufferRate = {0.0485, 0.0865}});
}

TEST_F(Claims, NetTubeMeansStayInTheirBands) {
  // 0.8180 +/- 0.0157, 2,778 +/- 360 ms, 0.0983 +/- 0.0062.
  expectInBands(*nettube_, {.peerFraction = {0.7709, 0.8651},
                            .delayMeanMs = {1699, 3858},
                            .rebufferRate = {0.0798, 0.1168}});
}

TEST_F(Claims, PaVodMeansStayInTheirBands) {
  // 0.4817 +/- 0.0533, 18,997 +/- 2,349 ms, 0.3972 +/- 0.0542.
  expectInBands(*pavod_, {.peerFraction = {0.3218, 0.6417},
                          .delayMeanMs = {11950, 26044},
                          .rebufferRate = {0.2344, 0.5599}});
}

}  // namespace
}  // namespace st::exp

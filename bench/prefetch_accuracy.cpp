// §IV-B — channel-facilitated prefetching accuracy.
// Analytical: with Zipf(s=1) over N=25 videos, prefetching the top video
// captures 26.2% of the next-view probability; the top 4 capture 54.6%.
// We print the closed form next to a Monte-Carlo check of the same model
// and the measured hit rate of a full simulation.
#include "bench_common.h"

#include "exp/analytical.h"
#include "exp/runner.h"
#include "util/distributions.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  const st::Flags flags(argc, argv);
  const auto channelVideos =
      static_cast<std::size_t>(flags.getInt("channel-videos", 25));
  const bool runSim = flags.getBool("sim", true);
  st::exp::ExperimentConfig config = st::bench::experimentConfig(flags);
  if (const int rc = st::bench::rejectUnknownFlags(flags)) return rc;

  std::printf("Prefetch accuracy (channel of %zu videos, Zipf s = 1)\n\n",
              channelVideos);
  std::printf("%-14s %-12s %-14s %-14s\n", "prefetched M", "analytic",
              "monte-carlo", "paper");
  st::Rng rng(7);
  const st::ZipfDistribution zipf(channelVideos, 1.0);
  for (const std::size_t m : {1ul, 2ul, 3ul, 4ul, 5ul, 8ul}) {
    const double analytic =
        st::exp::analytical::prefetchAccuracy(channelVideos, m);
    std::size_t hits = 0;
    constexpr int kTrials = 200'000;
    for (int i = 0; i < kTrials; ++i) {
      if (zipf.sample(rng) < m) ++hits;
    }
    const char* paper = m == 1 ? "26.2%" : (m == 4 ? "54.6%" : "-");
    std::printf("%-14zu %-12.3f %-14.3f %-14s\n", m, analytic,
                hits / static_cast<double>(kTrials), paper);
  }

  if (runSim) {
    std::printf("\nMeasured in a full SocialTube run (M = %zu, with rewatch "
                "avoidance):\n", config.vod.prefetchCount);
    const auto result =
        st::exp::runExperiment(config, st::exp::SystemKind::kSocialTube);
    if (st::exp::reportRunErrors({&result, 1})) return 1;
    std::printf("  prefetch hits / watches = %llu / %llu = %.3f\n",
                static_cast<unsigned long long>(result.prefetchHits()),
                static_cast<unsigned long long>(result.watches()),
                result.prefetchHitRate());
  }
  return 0;
}

// Ablation — impact of the per-node link budget (N_l inner, N_h inter) on
// peer bandwidth, startup delay, and maintained links.
// This is the study the paper defers to future work (§VI): "the impact of
// the different number of links per node on the video sharing performance
// ... an optimal tradeoff between the system maintenance overhead and
// availability of peer video providers".
#include "bench_common.h"

#include "exp/runner.h"
#include "trace/generator.h"

int main(int argc, char** argv) {
  const st::Flags flags(argc, argv);
  st::exp::ExperimentConfig config = st::bench::experimentConfig(flags);
  if (const int rc = st::bench::rejectUnknownFlags(flags)) return rc;

  const st::trace::Catalog catalog = st::trace::generateTrace(config.trace);

  std::printf("Link-budget ablation — SocialTube, %zu users\n\n",
              config.trace.numUsers);
  std::printf("%-6s %-6s %-12s %-14s %-14s %-10s\n", "N_l", "N_h",
              "peerBW(p50)", "delay mean ms", "links@end", "probes");
  const struct { std::size_t inner; std::size_t inter; } sweeps[] = {
      {1, 2}, {2, 4}, {3, 6}, {5, 10}, {8, 16}, {12, 24},
  };
  for (const auto& sweep : sweeps) {
    config.vod.innerLinks = sweep.inner;
    config.vod.interLinks = sweep.inter;
    const auto result = st::exp::runExperiment(
        config, st::exp::SystemKind::kSocialTube, &catalog);
    if (st::exp::reportRunErrors({&result, 1})) return 1;
    std::printf("%-6zu %-6zu %-12.3f %-14.1f %-14.2f %-10llu\n", sweep.inner,
                sweep.inter,
                result.normalizedPeerBandwidth.percentile(50),
                result.startupDelayMs.mean(),
                result.linksByVideosWatched.back().mean(),
                static_cast<unsigned long long>(result.probes()));
  }
  std::printf("\nreading: availability (peer bandwidth) saturates while the "
              "probe cost keeps\ngrowing with the link budget — the tradeoff "
              "the paper's future work targets.\n");
  return 0;
}

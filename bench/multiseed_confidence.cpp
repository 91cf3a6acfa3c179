// Replication study: the Fig. 16/17/18 headline metrics across several
// independent seeds, as mean +/- standard error. Confirms the single-seed
// figures are not flukes.
//
// Replications dispatch onto a worker pool (--threads N or ST_THREADS);
// aggregates are bitwise-identical to the sequential run, only wall-clock
// changes. Per-system wall/utilization rows make the speedup observable.
#include "bench_common.h"

#include "exp/multiseed.h"

int main(int argc, char** argv) {
  const st::Flags flags(argc, argv);
  st::exp::ExperimentConfig config = st::bench::experimentConfig(flags);
  const auto seeds = static_cast<std::size_t>(flags.getInt("seeds", 5));
  const std::size_t threads = st::bench::threadCount(flags);
  if (const int rc = st::bench::rejectUnknownFlags(flags)) return rc;
  // Keep replications affordable by default.
  if (!flags.getBool("full", false) && config.trace.numUsers > 800) {
    config = config.scaledTo(800, 6);
  }

  std::printf("Multi-seed replication — %zu seeds, %zu users each, "
              "%zu thread%s (%zu hardware)\n\n",
              seeds, config.trace.numUsers, threads, threads == 1 ? "" : "s",
              st::hardwareThreads());
  double totalWallMs = 0.0;
  double totalBusyMs = 0.0;
  for (const auto kind :
       {st::exp::SystemKind::kPaVod, st::exp::SystemKind::kSocialTube,
        st::exp::SystemKind::kNetTube}) {
    const auto summary = st::exp::runSeeds(config, kind, seeds, threads);
    if (st::exp::reportRunErrors(summary.runs)) return 1;
    std::printf("%s\n", summary.system.c_str());
    std::printf("  peer bandwidth : %s\n",
                st::exp::formatStat(summary.peerFraction).c_str());
    std::printf("  delay mean ms  : %s\n",
                st::exp::formatStat(summary.delayMeanMs).c_str());
    std::printf("  delay p99 ms   : %s\n",
                st::exp::formatStat(summary.delayP99Ms).c_str());
    std::printf("  links at end   : %s\n",
                st::exp::formatStat(summary.linksFinal).c_str());
    std::printf("  rebuffer rate  : %s\n",
                st::exp::formatStat(summary.rebufferRate).c_str());
    std::printf("  wall clock     : %.0f ms total, %.0f ms/run mean, "
                "pool utilization %.0f%%\n",
                summary.wallMs, summary.runWallMs.mean,
                summary.poolUtilization * 100.0);
    std::printf("  phases ms/run  :");
    for (const auto& [name, stat] : summary.phaseWallMs) {
      std::printf(" %s=%.0f", name.c_str(), stat.mean);
    }
    std::printf("\n\n");
    totalWallMs += summary.wallMs;
    totalBusyMs += summary.runWallMs.mean *
                   static_cast<double>(summary.runWallMs.runs);
  }
  if (totalWallMs > 0.0) {
    std::printf("replication compute: %.1f s of runs in %.1f s wall "
                "(%.2fx speedup on %zu thread%s)\n\n",
                totalBusyMs / 1000.0, totalWallMs / 1000.0,
                totalBusyMs / totalWallMs, threads,
                threads == 1 ? "" : "s");
  }
  std::printf("reading: orderings that hold across every seed band are the "
              "reproduced claims;\noverlapping bands mean the paper's gap "
              "is within our noise at this scale.\n");
  return 0;
}

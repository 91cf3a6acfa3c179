// Ablation — multi-source (striped) body downloads.
// The paper's transfers are single-provider; related work (Zhou et al.,
// cited in §II) serves one request from several peers. This sweep measures
// what striping buys: faster bodies (fewer rebuffers, quicker cache fill)
// at the cost of more concurrent connections.
#include "bench_common.h"

#include "exp/csv.h"
#include "exp/runner.h"
#include "trace/generator.h"

int main(int argc, char** argv) {
  const st::Flags flags(argc, argv);
  st::exp::ExperimentConfig config = st::bench::experimentConfig(flags);
  const std::string csvPath = flags.getString("csv", "");
  if (const int rc = st::bench::rejectUnknownFlags(flags)) return rc;

  const st::trace::Catalog catalog = st::trace::generateTrace(config.trace);

  std::printf("Swarming ablation — SocialTube, %zu users\n\n",
              config.trace.numUsers);
  std::printf("%-9s %-12s %-14s %-14s %-14s\n", "sources", "peerBW",
              "delay mean ms", "delay p99 ms", "rebuffer rate");
  std::vector<std::pair<std::string, st::exp::ExperimentResult>> rows;
  for (const std::size_t sources : {1ul, 2ul, 3ul, 4ul}) {
    config.vod.bodySources = sources;
    const auto result = st::exp::runExperiment(
        config, st::exp::SystemKind::kSocialTube, &catalog);
    if (st::exp::reportRunErrors({&result, 1})) return 1;
    std::printf("%-9zu %-12.3f %-14.1f %-14.1f %-14.3f\n", sources,
                result.aggregatePeerFraction(), result.startupDelayMs.mean(),
                result.startupDelayMs.percentile(99), result.rebufferRate());
    rows.emplace_back("sources_" + std::to_string(sources), result);
  }
  if (!csvPath.empty()) {
    st::exp::writeResultsCsv(csvPath, rows);
    std::printf("\nwrote %s\n", csvPath.c_str());
  }
  std::printf("\nreading: striping mostly helps the tail — bodies finish "
              "inside the playback window\nmore often, so fewer stalls and "
              "fresher caches under churn.\n");
  return 0;
}

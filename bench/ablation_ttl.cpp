// Ablation — search TTL: flooding depth vs hit rate vs message cost.
// The paper fixes TTL = 2; this sweep quantifies the tradeoff behind that
// choice (part of the future-work tuning the conclusion mentions).
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

  std::printf("Search-TTL ablation — SocialTube, %zu users\n\n",
              config.trace.numUsers);
  std::printf("%-5s %-12s %-14s %-14s %-14s %-12s\n", "TTL", "peerBW",
              "channel hits", "category hits", "server", "messages");
  std::vector<std::pair<std::string, st::exp::ExperimentResult>> rows;
  for (const int ttl : {1, 2, 3, 4}) {
    config.vod.ttl = ttl;
    const auto result = st::exp::runExperiment(
        config, st::exp::SystemKind::kSocialTube, &catalog);
    if (st::exp::reportRunErrors({&result, 1})) return 1;
    std::printf("%-5d %-12.3f %-14llu %-14llu %-14llu %-12llu\n", ttl,
                result.aggregatePeerFraction(),
                static_cast<unsigned long long>(result.channelHits()),
                static_cast<unsigned long long>(result.categoryHits()),
                static_cast<unsigned long long>(result.serverFallbacks()),
                static_cast<unsigned long long>(result.messagesSent()));
    rows.emplace_back("ttl_" + std::to_string(ttl), result);
  }
  if (!csvPath.empty()) {
    st::exp::writeResultsCsv(csvPath, rows);
    std::printf("\nwrote %s\n", csvPath.c_str());
  }
  std::printf("\nreading: TTL=2 captures most of the hit rate; deeper floods "
              "mostly add messages\n(diminishing coverage per hop in a "
              "community-scoped overlay).\n");
  return 0;
}

// Ablation — overlay repair strategy under abrupt churn:
// server-assisted repair (the paper's design) vs gossip (neighbor-of-
// neighbor) repair, an extension that removes the server from the
// maintenance path entirely.
#include "bench_common.h"

#include "exp/csv.h"
#include "exp/runner.h"
#include "trace/generator.h"

int main(int argc, char** argv) {
  const st::Flags flags(argc, argv);
  st::exp::ExperimentConfig config = st::bench::experimentConfig(flags);
  const std::string csvPath = flags.getString("csv", "");
  if (const int rc = st::bench::rejectUnknownFlags(flags)) return rc;

  config.vod.abruptDepartureFraction = 0.5;  // heavy silent churn
  const st::trace::Catalog catalog = st::trace::generateTrace(config.trace);

  std::printf("Repair-strategy ablation — SocialTube, 50%% abrupt "
              "departures, %zu users\n\n", config.trace.numUsers);
  std::printf("%-10s %-12s %-14s %-10s %-12s %-14s\n", "mode",
              "peerBW(p50)", "delay mean ms", "repairs", "messages",
              "links@end");
  std::vector<std::pair<std::string, st::exp::ExperimentResult>> rows;
  for (const bool gossip : {false, true}) {
    config.vod.gossipRepair = gossip;
    const auto result = st::exp::runExperiment(
        config, st::exp::SystemKind::kSocialTube, &catalog);
    if (st::exp::reportRunErrors({&result, 1})) return 1;
    std::printf("%-10s %-12.3f %-14.1f %-10llu %-12llu %-14.2f\n",
                gossip ? "gossip" : "server",
                result.normalizedPeerBandwidth.percentile(50),
                result.startupDelayMs.mean(),
                static_cast<unsigned long long>(result.repairs()),
                static_cast<unsigned long long>(result.messagesSent()),
                result.linksByVideosWatched.back().mean());
    rows.emplace_back(gossip ? "gossip" : "server", result);
  }
  if (!csvPath.empty()) {
    st::exp::writeResultsCsv(csvPath, rows);
    std::printf("\nwrote %s\n", csvPath.c_str());
  }
  std::printf("\nreading: gossip repair keeps availability close to the "
              "server-assisted baseline\nwhile moving the repair load off "
              "the directory server.\n");
  return 0;
}

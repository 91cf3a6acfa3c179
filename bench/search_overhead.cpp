// Control-plane cost comparison: messages per watch and search outcome
// breakdown per system (complements Fig. 18's link-count comparison with
// the traffic view).
#include "bench_common.h"

#include "exp/csv.h"
#include "exp/runner.h"

int main(int argc, char** argv) {
  const st::Flags flags(argc, argv);
  const st::exp::ExperimentConfig config = st::bench::experimentConfig(flags);
  const std::string csvPath = flags.getString("csv", "");
  if (const int rc = st::bench::rejectUnknownFlags(flags)) return rc;

  std::printf("Control-plane overhead — %zu users, %zu sessions/user\n\n",
              config.trace.numUsers, config.vod.sessionsPerUser);
  const auto results = st::exp::runAllSystems(config);
  if (st::exp::reportRunErrors(results)) return 1;

  std::printf("%-12s %-14s %-12s %-10s %-12s %-12s %-12s\n", "system",
              "msgs/watch", "probes", "repairs", "cache%", "peerHit%",
              "server%");
  std::vector<std::pair<std::string, st::exp::ExperimentResult>> rows;
  for (const auto& result : results) {
    const double watches = static_cast<double>(result.watches());
    std::printf("%-12s %-14.1f %-12llu %-10llu %-12.1f %-12.1f %-12.1f\n",
                result.system.c_str(),
                static_cast<double>(result.messagesSent()) / watches,
                static_cast<unsigned long long>(result.probes()),
                static_cast<unsigned long long>(result.repairs()),
                100.0 * static_cast<double>(result.cacheHits()) / watches,
                100.0 *
                    static_cast<double>(result.channelHits() +
                                        result.categoryHits()) /
                    watches,
                100.0 * static_cast<double>(result.serverFallbacks()) /
                    watches);
    rows.emplace_back(result.system, result);
  }
  if (!csvPath.empty()) {
    st::exp::writeResultsCsv(csvPath, rows);
    std::printf("\nwrote %s\n", csvPath.c_str());
  }
  std::printf("\nreading: PA-VoD is message-light but server-heavy; the two "
              "overlay systems trade\nprobe traffic for peer hits, with "
              "SocialTube resolving more searches per message.\n");
  return 0;
}

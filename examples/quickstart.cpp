// Quickstart: generate a small synthetic YouTube trace, run SocialTube and
// both baselines against it, and print the paper's three headline metrics.
//
//   ./examples/quickstart [--users 1500] [--sessions 8] [--seed 1]
//                         [--planetlab]
#include <cstdio>

#include "exp/config.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  const st::Flags flags(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return 1;
  }

  const bool planetlab = flags.getBool("planetlab", false);
  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed", 1));
  st::exp::ExperimentConfig config =
      planetlab ? st::exp::ExperimentConfig::planetLabDefaults(seed)
                : st::exp::ExperimentConfig::simulationDefaults(seed);
  const auto users = static_cast<std::size_t>(
      flags.getInt("users", planetlab ? 250 : 1500, 1));
  const auto sessions =
      static_cast<std::size_t>(flags.getInt("sessions", 8, 0));
  config = config.scaledTo(users, sessions);

  std::printf("SocialTube quickstart — %zu users, %zu channels, %zu videos, "
              "%zu sessions/user (%s mode)\n\n",
              config.trace.numUsers, config.trace.numChannels,
              config.trace.numVideos, config.vod.sessionsPerUser,
              planetlab ? "PlanetLab" : "simulation");

  const auto results = st::exp::runAllSystems(config);
  if (st::exp::reportRunErrors(results)) return 1;

  std::printf("== Normalized peer bandwidth (share of remote chunks served "
              "by peers) ==\n");
  st::exp::printPeerBandwidth(results);

  std::printf("\n== Startup delay (ms) ==\n");
  for (const auto& result : results) {
    st::exp::printStartupDelay(result.system, result);
  }

  std::printf("\n== Maintenance overhead (mean links after n-th video) ==\n");
  st::exp::printMaintenance(results);

  std::printf("\n== Protocol counters ==\n");
  for (const auto& result : results) {
    st::exp::printCounters(result);
  }
  return 0;
}

// Fig. 16 — normalized peer bandwidth (1st / 50th / 99th percentiles) for
// PA-VoD, SocialTube, and NetTube.
// Paper (PeerSim): p50 = 0.31 / ~0.9 / 0.53; p99-style band per system —
// the ordering SocialTube >= NetTube >> PA-VoD is the claim to reproduce.
//
// Default is a reduced-scale run; --full reproduces Table I scale and
// --planetlab switches to the wide-area deployment (Fig. 16(b)).
#include "bench_common.h"

#include "exp/csv.h"
#include "exp/report.h"
#include "exp/runner.h"

int main(int argc, char** argv) {
  const st::Flags flags(argc, argv);
  const st::exp::ExperimentConfig config = st::bench::experimentConfig(flags);
  const std::string csvPath = flags.getString("csv", "");
  const std::size_t threads = st::bench::threadCount(flags);
  if (const int rc = st::bench::rejectUnknownFlags(flags)) return rc;

  std::printf("Fig. 16%s — normalized peer bandwidth "
              "(%zu users, %zu sessions/user)\n\n",
              config.mode == st::exp::Mode::kPlanetLab ? "(b) PlanetLab"
                                                       : "(a) PeerSim",
              config.trace.numUsers, config.vod.sessionsPerUser);
  const auto results = st::exp::runAllSystems(config, threads);
  if (st::exp::reportRunErrors(results)) return 1;
  st::exp::printPeerBandwidth(results);
  if (!csvPath.empty()) {
    std::vector<std::pair<std::string, st::exp::ExperimentResult>> rows;
    for (const auto& result : results) rows.emplace_back(result.system, result);
    st::exp::writeResultsCsv(csvPath, rows);
    std::printf("wrote %s\n", csvPath.c_str());
  }

  std::printf("\npaper shape: SocialTube >= NetTube >> PA-VoD at the median "
              "and the 1st percentile\n");
  const auto& pavod = results[0];
  const auto& social = results[1];
  const auto& nettube = results[2];
  const bool ok =
      social.normalizedPeerBandwidth.percentile(50) >
          pavod.normalizedPeerBandwidth.percentile(50) &&
      nettube.normalizedPeerBandwidth.percentile(50) >
          pavod.normalizedPeerBandwidth.percentile(50) &&
      social.aggregatePeerFraction() >=
          nettube.aggregatePeerFraction() - 0.05;
  std::printf("shape check: %s\n", ok ? "OK" : "MISMATCH");
  return 0;
}

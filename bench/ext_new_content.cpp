// Extension — dynamic uploads and feed-driven flash crowds.
// New videos are published mid-run; every channel's subscribers are fed the
// upload and a large fraction watch it promptly (the YouTube behaviour the
// paper's introduction builds on). Measures how each system absorbs the
// resulting synchronized demand for brand-new content, which no cache has
// seen before.
#include "bench_common.h"

#include "exp/csv.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "trace/generator.h"

int main(int argc, char** argv) {
  const st::Flags flags(argc, argv);
  st::exp::ExperimentConfig config = st::bench::experimentConfig(flags);
  const std::string csvPath = flags.getString("csv", "");
  if (const int rc = st::bench::rejectUnknownFlags(flags)) return rc;

  config.releases.perChannel = 1;
  config.releases.feedWatchProbability = 0.8;

  std::printf("New-content flash crowds — 1 release per channel, 80%% of "
              "subscribers watch (%zu users)\n\n", config.trace.numUsers);
  const st::trace::Catalog catalog = st::trace::generateTrace(config.trace);
  std::vector<std::pair<std::string, st::exp::ExperimentResult>> rows;
  for (const auto kind :
       {st::exp::SystemKind::kPaVod, st::exp::SystemKind::kSocialTube,
        st::exp::SystemKind::kNetTube}) {
    const auto result = st::exp::runExperiment(config, kind, &catalog);
    if (st::exp::reportRunErrors({&result, 1})) return 1;
    std::printf("%-12s releases=%llu feeds=%llu feedWatches=%llu "
                "peerBW=%.3f delay=%.0fms rebuffer=%.3f\n",
                result.system.c_str(),
                static_cast<unsigned long long>(result.releasesFired()),
                static_cast<unsigned long long>(result.feedNotifications()),
                static_cast<unsigned long long>(result.feedWatches()),
                result.aggregatePeerFraction(),
                result.startupDelayMs.mean(), result.rebufferRate());
    rows.emplace_back(result.system, result);
  }
  if (!csvPath.empty()) {
    st::exp::writeResultsCsv(csvPath, rows);
    std::printf("\nwrote %s\n", csvPath.c_str());
  }

  const auto& pavod = rows[0].second;
  const auto& social = rows[1].second;
  std::printf("\nreading: a fresh upload has no cached copies, so the first "
              "viewers hit the server;\nSocialTube's channel prefetching "
              "then seeds the community and later viewers go P2P.\n");
  std::printf("shape check: %s\n",
              social.aggregatePeerFraction() >
                      pavod.aggregatePeerFraction() + 0.1
                  ? "OK (SocialTube absorbs new-content crowds via peers)"
                  : "MISMATCH");
  return 0;
}

// Ablation — per-node cache capacity.
// The paper assumes nodes cache every watched video ("since videos are
// generally small, this does not unduly burden users"). Real deployments
// cap disk use; this sweep shows how availability degrades as the cache
// shrinks, for both cache-based systems.
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

  std::printf("Cache-capacity ablation — %zu users, %zu videos watched per "
              "user over the run\n\n", config.trace.numUsers,
              config.vod.sessionsPerUser * config.vod.videosPerSession);
  std::printf("%-10s %-14s %-14s %-16s %-16s\n", "capacity",
              "ST peerBW", "NT peerBW", "ST delay ms", "NT delay ms");
  std::vector<std::pair<std::string, st::exp::ExperimentResult>> rows;
  for (const std::size_t capacity : {0ul, 80ul, 40ul, 20ul, 10ul, 5ul}) {
    config.vod.cacheCapacityVideos = capacity;
    const auto social = st::exp::runExperiment(
        config, st::exp::SystemKind::kSocialTube, &catalog);
    const auto nettube = st::exp::runExperiment(
        config, st::exp::SystemKind::kNetTube, &catalog);
    for (const auto* run : {&social, &nettube}) {
      if (st::exp::reportRunErrors({run, 1})) return 1;
    }
    char label[32];
    std::snprintf(label, sizeof label, "%zu", capacity);
    std::printf("%-10s %-14.3f %-14.3f %-16.1f %-16.1f\n",
                capacity == 0 ? "unbounded" : label,
                social.aggregatePeerFraction(),
                nettube.aggregatePeerFraction(),
                social.startupDelayMs.mean(), nettube.startupDelayMs.mean());
    rows.emplace_back(std::string("st_cap_") + label, social);
    rows.emplace_back(std::string("nt_cap_") + label, nettube);
  }
  if (!csvPath.empty()) {
    st::exp::writeResultsCsv(csvPath, rows);
    std::printf("\nwrote %s\n", csvPath.c_str());
  }
  std::printf("\nreading: tiny caches gut peer availability — the paper's "
              "keep-everything policy\nis what makes per-community sharing "
              "work for short videos.\n");
  return 0;
}

// Fig. 17 — startup delay with and without prefetching.
// Paper: PA-VoD worst by far; SocialTube < NetTube both with and without
// their prefetching strategies; each system's own prefetching helps, and
// SocialTube's popularity-ranked prefetching helps more than NetTube's
// random-neighbor strategy.
#include "bench_common.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <vector>

#include "exp/report.h"
#include "exp/runner.h"
#include "trace/generator.h"

int main(int argc, char** argv) {
  const st::Flags flags(argc, argv);
  st::exp::ExperimentConfig config = st::bench::experimentConfig(flags);
  const std::size_t threads = st::bench::threadCount(flags);
  if (const int rc = st::bench::rejectUnknownFlags(flags)) return rc;

  std::printf("Fig. 17%s — startup delay (ms), %zu users\n\n",
              config.mode == st::exp::Mode::kPlanetLab ? "(b) PlanetLab"
                                                       : "(a) PeerSim",
              config.trace.numUsers);
  const st::trace::Catalog catalog = st::trace::generateTrace(config.trace);

  // The five variants share the catalog but are otherwise independent, so
  // they fan out across the pool; fixed slots keep the output order stable.
  struct Variant {
    st::exp::SystemKind kind;
    bool prefetch;
  };
  const Variant variants[] = {
      {st::exp::SystemKind::kSocialTube, true},
      {st::exp::SystemKind::kNetTube, true},
      {st::exp::SystemKind::kSocialTube, false},
      {st::exp::SystemKind::kNetTube, false},
      {st::exp::SystemKind::kPaVod, false},
  };
  constexpr std::size_t kCount = std::size(variants);
  std::vector<st::exp::ExperimentResult> results(kCount);
  {
    std::optional<st::ThreadPool> pool;
    if (threads > 1) pool.emplace(std::min(threads, kCount));
    st::parallelFor(pool ? &*pool : nullptr, kCount, [&](std::size_t i) {
      st::exp::ExperimentConfig variantConfig = config;
      variantConfig.vod.prefetchEnabled = variants[i].prefetch;
      results[i] =
          st::exp::runExperiment(variantConfig, variants[i].kind, &catalog);
    });
  }
  if (st::exp::reportRunErrors(results)) return 1;
  const auto& socialPf = results[0];
  const auto& nettubePf = results[1];
  const auto& social = results[2];
  const auto& nettube = results[3];
  const auto& pavod = results[4];

  st::exp::printStartupDelay("PA-VoD", pavod);
  st::exp::printStartupDelay("SocialTube w/ PF", socialPf);
  st::exp::printStartupDelay("SocialTube w/o PF", social);
  st::exp::printStartupDelay("NetTube w/ PF", nettubePf);
  st::exp::printStartupDelay("NetTube w/o PF", nettube);

  // Under a fault schedule the interesting deltas are not just startup
  // delay: gray windows and delivery faults push chunks back to the origin
  // and stall playback, so report the server-load share and rebuffer count
  // per variant (compare against the same invocation without --faults).
  if (config.faults.any()) {
    const char* labels[] = {"SocialTube w/ PF", "NetTube w/ PF",
                            "SocialTube w/o PF", "NetTube w/o PF", "PA-VoD"};
    std::printf("\nrobustness deltas under --faults:\n");
    for (std::size_t i = 0; i < kCount; ++i) {
      const auto& r = results[i];
      const std::uint64_t total = r.serverChunks() + r.peerChunks();
      std::printf("%-20s server-load=%5.1f%% (%llu/%llu chunks)  "
                  "rebuffers=%llu\n",
                  labels[i],
                  total ? 100.0 * static_cast<double>(r.serverChunks()) /
                              static_cast<double>(total)
                        : 0.0,
                  static_cast<unsigned long long>(r.serverChunks()),
                  static_cast<unsigned long long>(total),
                  static_cast<unsigned long long>(r.rebuffers()));
    }
    std::printf("faults fired=%llu",
                static_cast<unsigned long long>(
                    results[0].counter("fault.events")));
    if (config.faults.auditInterval > 0) {
      std::printf("  audits=%llu violations=%llu",
                  static_cast<unsigned long long>(
                      results[0].counter("invariant.audits")),
                  static_cast<unsigned long long>(
                      results[0].counter("invariant.violations")));
    }
    std::printf("\n");
  }

  std::printf("\npaper shape: PA-VoD worst; SocialTube < NetTube; "
              "prefetching reduces delay,\nmore so for SocialTube "
              "(popularity-ranked) than NetTube (random).\n");
  const bool ok = pavod.startupDelayMs.mean() > socialPf.startupDelayMs.mean() &&
                  pavod.startupDelayMs.mean() > nettubePf.startupDelayMs.mean() &&
                  socialPf.startupDelayMs.mean() <= nettubePf.startupDelayMs.mean() &&
                  socialPf.startupDelayMs.mean() < social.startupDelayMs.mean();
  std::printf("shape check: %s\n", ok ? "OK" : "MISMATCH");
  return 0;
}

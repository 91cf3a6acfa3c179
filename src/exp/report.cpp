#include "exp/report.h"

#include <cstdio>

namespace st::exp {

void printPercentiles(const std::string& name, const SampleSet& samples,
                      const std::vector<double>& percentiles) {
  std::printf("%-28s n=%-8zu", name.c_str(), samples.count());
  for (const double p : percentiles) {
    std::printf(" p%-4.4g=%-12.6g", p, samples.percentile(p));
  }
  std::printf("\n");
}

void printCdf(const std::string& name, const SampleSet& samples,
              std::size_t points) {
  std::printf("%s CDF (n=%zu):\n", name.c_str(), samples.count());
  std::printf("  %-12s %s\n", "fraction", "value");
  for (std::size_t i = 1; i <= points; ++i) {
    const double fraction =
        static_cast<double>(i) / static_cast<double>(points);
    std::printf("  %-12.3f %.6g\n", fraction, samples.quantile(fraction));
  }
}

void printPeerBandwidth(const std::vector<ExperimentResult>& results) {
  std::printf("%-12s %-10s %-10s %-10s %-10s\n", "system", "p1", "p50", "p99",
              "aggregate");
  for (const ExperimentResult& r : results) {
    std::printf("%-12s %-10.3f %-10.3f %-10.3f %-10.3f\n", r.system.c_str(),
                r.normalizedPeerBandwidth.percentile(1),
                r.normalizedPeerBandwidth.percentile(50),
                r.normalizedPeerBandwidth.percentile(99),
                r.aggregatePeerFraction());
  }
}

void printStartupDelay(const std::string& label,
                       const ExperimentResult& result) {
  std::printf(
      "%-24s mean=%-9.1f p50=%-9.1f p90=%-9.1f p99=%-9.1f timeouts=%llu\n",
      label.c_str(), result.startupDelayMs.mean(),
      result.startupDelayMs.percentile(50), result.startupDelayMs.percentile(90),
      result.startupDelayMs.percentile(99),
      static_cast<unsigned long long>(result.startupTimeouts()));
}

void printMaintenance(const std::vector<ExperimentResult>& results) {
  std::printf("%-8s", "videos");
  for (const ExperimentResult& r : results) {
    std::printf(" %-12s", r.system.c_str());
  }
  std::printf("\n");
  std::size_t maxLen = 0;
  for (const ExperimentResult& r : results) {
    maxLen = std::max(maxLen, r.linksByVideosWatched.size());
  }
  for (std::size_t n = 1; n < maxLen; ++n) {
    std::printf("%-8zu", n);
    for (const ExperimentResult& r : results) {
      if (n < r.linksByVideosWatched.size()) {
        std::printf(" %-12.2f", r.linksByVideosWatched[n].mean());
      } else {
        std::printf(" %-12s", "-");
      }
    }
    std::printf("\n");
  }
}

void printCounters(const ExperimentResult& result) {
  // Generic dump of the run's counter snapshot: any counter registered
  // anywhere in the stack shows up here without a format-string change.
  std::printf("%s:", result.system.c_str());
  std::size_t onLine = 0;
  for (const obs::Snapshot::Entry& entry : result.counters.entries()) {
    if (onLine == 6) {
      std::printf("\n   ");
      onLine = 0;
    }
    std::printf(" %s=%llu", entry.name.c_str(),
                static_cast<unsigned long long>(entry.value));
    ++onLine;
  }
  std::printf("\n");
  std::printf(
      "    rebufferRate=%.3f uploadGini=%.3f serverRegsPeak=%.0f "
      "redundantLinks=%.2f\n",
      result.rebufferRate(), result.uploadGini,
      result.serverRegistrations.max(), result.redundantLinks.mean());
}

}  // namespace st::exp

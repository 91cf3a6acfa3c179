// Shared console formatting for the bench binaries: the same rows/series
// the paper's figures plot, in stable plain-text form.
#pragma once

#include <string>
#include <vector>

#include "exp/runner.h"
#include "util/stats.h"

namespace st::exp {

// "name: p1=… p25=… p50=… p75=… p99=…" one-liner for a sample set.
void printPercentiles(const std::string& name, const SampleSet& samples,
                      const std::vector<double>& percentiles = {1, 25, 50, 75,
                                                                99});

// CDF table: value at each of `points` evenly spaced cumulative fractions.
void printCdf(const std::string& name, const SampleSet& samples,
              std::size_t points = 10);

// Fig. 16-style block: 1st/50th/99th percentile of normalized peer
// bandwidth for each system.
void printPeerBandwidth(const std::vector<ExperimentResult>& results);

// Fig. 17-style block: startup delay statistics per system/variant label.
void printStartupDelay(const std::string& label,
                       const ExperimentResult& result);

// Fig. 18-style block: mean links after n-th video per system.
void printMaintenance(const std::vector<ExperimentResult>& results);

// Protocol counter summary: every registered counter by name, plus the
// derived rates (rebuffer rate, upload Gini, server-state peak).
void printCounters(const ExperimentResult& result);

}  // namespace st::exp

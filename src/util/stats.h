// Statistics helpers used by the trace analysis and the evaluation metrics.
//
// The paper reports CDFs (Figs. 3-13), percentile bands (Fig. 16: 1st/50th/
// 99th percentiles of normalized peer bandwidth), correlations (Fig. 5,
// favorites-vs-views), and time series (Fig. 18). These types compute all of
// them from raw samples.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace st {

// Single-pass mean/variance/min/max accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const;
  // Sample variance (n-1 denominator); 0 with fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return mean() * static_cast<double>(count_); }

  void merge(const RunningStats& other);

  // Raw accumulator state, for checkpoint/restore. Restoring then adding
  // more samples is bitwise-identical to never having paused.
  struct State {
    std::size_t count = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  [[nodiscard]] State state() const {
    return State{count_, mean_, m2_, min_, max_};
  }
  void setState(const State& s) {
    count_ = s.count;
    mean_ = s.mean;
    m2_ = s.m2;
    min_ = s.min;
    max_ = s.max;
  }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Collects raw samples; answers percentile queries and builds CDF curves.
class SampleSet {
 public:
  void add(double x) { samples_.push_back(x); dirty_ = true; }
  void reserve(std::size_t n) { samples_.reserve(n); }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double sum() const;

  // p in [0, 100]; linear interpolation between closest ranks.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }

  // Value v such that a `fraction` of samples are <= v (fraction in [0,1]).
  [[nodiscard]] double quantile(double fraction) const {
    return percentile(fraction * 100.0);
  }

  // (value, cumulative fraction) pairs at `points` evenly spaced ranks —
  // exactly the series a CDF plot needs.
  [[nodiscard]] std::vector<std::pair<double, double>> cdf(
      std::size_t points = 100) const;

  [[nodiscard]] std::span<const double> samples() const { return samples_; }

  // Checkpoint/restore: the sample *buffer order* matters bitwise (mean()
  // sums in buffer order and percentile() sorts in place), so restore
  // reinstates the exact buffer, not just the multiset of samples.
  [[nodiscard]] bool sortPending() const { return dirty_; }
  void restoreSamples(std::vector<double> samples, bool sortPending) {
    samples_ = std::move(samples);
    dirty_ = sortPending;
  }

 private:
  void ensureSorted() const;

  mutable std::vector<double> samples_;
  mutable bool dirty_ = false;
};

// Pearson correlation coefficient of paired samples. Returns 0 when either
// series is constant or the series are shorter than two samples.
double pearsonCorrelation(std::span<const double> x, std::span<const double> y);

// Fixed-width histogram over [lo, hi); out-of-range samples clamp to the
// edge buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);
  [[nodiscard]] std::size_t bucketSamples(std::size_t i) const { return counts_[i]; }
  [[nodiscard]] double bucketLow(std::size_t i) const;
  [[nodiscard]] std::size_t totalSamples() const { return total_; }

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

// Least-squares slope/intercept of y over x (for trend checks like Fig. 2's
// video-upload growth and Fig. 18's link growth).
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r2 = 0.0;
};
LinearFit linearFit(std::span<const double> x, std::span<const double> y);

// Gini coefficient of a set of non-negative contributions (0 = perfectly
// equal, ->1 = one contributor does everything). Used for the peer-upload
// fairness analysis: P2P VoD systems are notorious for skewed seeding load.
double giniCoefficient(std::span<const double> values);

// Fits log(y) = intercept - s*log(rank+1); returns the Zipf exponent s and
// fit quality. Used to verify Fig. 9 (per-channel views ~ Zipf).
struct ZipfFit {
  double exponent = 0.0;
  double r2 = 0.0;
};
ZipfFit fitZipf(std::span<const double> viewsByRank);

}  // namespace st

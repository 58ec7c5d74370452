// Streaming statistics, histograms and proportion confidence intervals.
//
// Campaign results in the paper are statistical fault injections with 95%
// confidence intervals (Leveugle et al. / Leemis & Park); RunningStats and
// proportion_ci reproduce that error-margin reporting.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace ft2 {

/// Welford online mean/variance plus min/max tracking.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const;  // sample variance (n-1 denominator)
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Quantile q in [0, 1] (clamped) of an ascending sample, interpolated
/// linearly between the order statistics around rank q * (n - 1). 0 when
/// the sample is empty.
double sorted_quantile(std::span<const double> sorted, double q);

/// Two-sided confidence interval for a binomial proportion.
struct ProportionCI {
  double p = 0.0;       ///< point estimate successes/trials
  double lo = 0.0;      ///< lower bound
  double hi = 0.0;      ///< upper bound
  double margin = 0.0;  ///< half-width (hi - lo) / 2
};

/// Wilson score interval (robust near 0/1, which matters for sub-1% SDC
/// rates). `z` defaults to the 95% two-sided quantile.
ProportionCI proportion_ci(std::size_t successes, std::size_t trials,
                           double z = 1.959964);

/// Fixed-bin histogram over [lo, hi]; out-of-range samples land in
/// saturating edge bins, NaNs are counted separately.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  void merge(const Histogram& other);

  std::size_t bins() const { return counts_.size(); }
  std::size_t bin_count(std::size_t i) const { return counts_[i]; }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;
  std::size_t total() const { return total_; }
  std::size_t nan_count() const { return nan_count_; }

  /// Fraction of samples with value in [lo, hi).
  double fraction_in(double lo, double hi) const;

  /// Empirical quantile of the recorded samples (q in [0, 1]); 0 when no
  /// samples were recorded.
  double quantile(double q) const;

  /// ASCII sparkline-style rendering (one row per bin), used by the
  /// value-distribution benches (Figs. 8 and 12).
  std::string render(std::size_t width = 50) const;

 private:
  double lo_, hi_;
  std::vector<std::size_t> counts_;
  std::vector<double> exact_;  // raw samples kept for fraction_in / quantiles
  std::size_t total_ = 0;
  std::size_t nan_count_ = 0;
};

}  // namespace ft2

#include "numeric/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.hpp"

namespace ft2 {

void RunningStats::add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

ProportionCI proportion_ci(std::size_t successes, std::size_t trials,
                           double z) {
  ProportionCI ci;
  if (trials == 0) return ci;
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  ci.p = p;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  ci.lo = successes == 0 ? 0.0 : std::max(0.0, center - half);
  ci.hi = successes == trials ? 1.0 : std::min(1.0, center + half);
  ci.margin = (ci.hi - ci.lo) / 2.0;
  return ci;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  FT2_CHECK_MSG(hi > lo && bins > 0, "invalid histogram range/bins");
}

void Histogram::add(double x) {
  if (std::isnan(x)) {
    ++nan_count_;
    return;
  }
  exact_.push_back(x);
  ++total_;
  const double t = (x - lo_) / (hi_ - lo_);
  auto idx = static_cast<long long>(t * static_cast<double>(counts_.size()));
  idx = std::clamp<long long>(idx, 0,
                              static_cast<long long>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
}

void Histogram::merge(const Histogram& other) {
  FT2_CHECK(other.counts_.size() == counts_.size() && other.lo_ == lo_ &&
            other.hi_ == hi_);
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  exact_.insert(exact_.end(), other.exact_.begin(), other.exact_.end());
  total_ += other.total_;
  nan_count_ += other.nan_count_;
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) /
                   static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t i) const { return bin_lo(i + 1); }

double Histogram::fraction_in(double lo, double hi) const {
  if (total_ == 0) return 0.0;
  std::size_t n = 0;
  for (double v : exact_) {
    if (v >= lo && v < hi) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(total_);
}

double sorted_quantile(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double Histogram::quantile(double q) const {
  std::vector<double> sorted = exact_;
  std::sort(sorted.begin(), sorted.end());
  return sorted_quantile(sorted, q);
}

std::string Histogram::render(std::size_t width) const {
  std::size_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::ostringstream os;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::size_t bar = counts_[i] * width / peak;
    os.setf(std::ios::fixed);
    os.precision(3);
    os << "[" << bin_lo(i) << ", " << bin_hi(i) << ") "
       << std::string(bar, '#') << " " << counts_[i] << '\n';
  }
  return os.str();
}

}  // namespace ft2

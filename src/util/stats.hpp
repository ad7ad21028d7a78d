// Statistics toolkit: percentiles, online moments, histograms, summaries.
//
// The 90th-percentile operator defined here is the scoring primitive used by
// every Perigee variant (paper §4.2-4.3); it intentionally propagates +inf
// entries (a neighbor that never delivered a block) to the top of the order.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace perigee::util {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

// Percentile q in [0,1] of an unsorted sample, nearest-rank with linear
// interpolation between order statistics (the "linear" / type-7 estimator).
// An empty sample yields +inf (matches "no observations => worst score").
// Selects the two order statistics it needs from a copy instead of sorting.
double percentile(std::span<const double> sample, double q);

// Same, but the caller guarantees `sorted` is ascending. +inf entries are
// permitted and sort last.
double percentile_sorted(std::span<const double> sorted, double q);

// Same estimator, computed in place: reorders `sample` (partially) instead
// of copying it. For callers that own a scratch buffer they refill anyway.
double percentile_in_place(std::span<double> sample, double q);

// Rank (0-based, ascending) of the lower order statistic the estimator
// interpolates from, for a sample of n >= 1 entries. The percentile is never
// below that statistic — a bound callers can test without selecting.
std::size_t percentile_lower_rank(std::size_t n, double q);

double mean(std::span<const double> sample);
double stddev(std::span<const double> sample);  // sample stddev (n-1)

// Welford online accumulator.
class OnlineStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return n_ == 0 ? 0.0 : mean_; }
  double variance() const;  // sample variance, 0 if n < 2
  double stddev() const;
  double min() const { return n_ == 0 ? kInf : min_; }
  double max() const { return n_ == 0 ? -kInf : max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = kInf;
  double max_ = -kInf;
};

struct Summary {
  std::size_t count = 0;
  double min = 0, max = 0, mean = 0, stddev = 0;
  double p10 = 0, p50 = 0, p90 = 0, p99 = 0;
};

// Summary of an unsorted sample (sorts a copy; finite and +inf entries ok).
Summary summarize(std::span<const double> sample);

// Fixed-width histogram over [lo, hi); values outside are clamped into the
// first/last bin. Used for the Figure-5 edge-latency histograms.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  void add_all(std::span<const double> xs);

  std::size_t bins() const { return counts_.size(); }
  std::size_t count(std::size_t bin) const { return counts_[bin]; }
  std::size_t total() const { return total_; }
  double bin_lo(std::size_t bin) const;
  double bin_hi(std::size_t bin) const;
  double fraction(std::size_t bin) const;

  // Render as rows of "lo..hi  count  bar" for console output.
  std::string render(std::size_t bar_width = 50) const;

  // Indices of local maxima of the (lightly smoothed) bin counts; used by
  // tests to check the bimodality claim of Figure 5.
  std::vector<std::size_t> modes() const;

 private:
  double lo_, hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace perigee::util

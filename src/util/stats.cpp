#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/assert.hpp"

namespace perigee::util {

namespace {

// Position of the q-quantile among n >= 1 ascending order statistics: the
// value interpolates between ranks lo and hi (lo <= hi <= lo + 1).
struct Rank {
  std::size_t lo;
  std::size_t hi;
  double frac;
};

Rank rank_of(std::size_t n, double q) {
  const double rank = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(rank);
  return {lo, std::min(lo + 1, n - 1), rank - static_cast<double>(lo)};
}

double interpolate(double a, double b, double frac) {
  if (std::isinf(a) || std::isinf(b)) {
    // Interpolating with +inf poisons the result; return the dominating end.
    return frac > 0.0 ? b : a;
  }
  return a + (b - a) * frac;
}

}  // namespace

double percentile_sorted(std::span<const double> sorted, double q) {
  PERIGEE_ASSERT(q >= 0.0 && q <= 1.0);
  if (sorted.empty()) return kInf;
  if (sorted.size() == 1) return sorted.front();
  const Rank r = rank_of(sorted.size(), q);
  return interpolate(sorted[r.lo], sorted[r.hi], r.frac);
}

double percentile(std::span<const double> sample, double q,
                  std::vector<double>& scratch) {
  PERIGEE_ASSERT(q >= 0.0 && q <= 1.0);
  const std::size_t n = sample.size();
  if (n == 0) return kInf;
  if (n == 1) return sample.front();
  const Rank r = rank_of(n, q);
  // Ranks lo..n-1 are the t largest entries. Laid out as rows of t, every
  // column holds an entry >= its own maximum >= tau, the least column
  // maximum: so at least t entries are >= tau, and they are the top ranks.
  const std::size_t t = n - r.lo;
  if (scratch.size() < 2 * n) scratch.resize(2 * n);
  double* a = scratch.data();
  double* b = a + n;
  const double* const x = sample.data();
  std::copy_n(x, t, a);
  for (std::size_t i = t; i < n; i += t) {
    const std::size_t row = std::min(t, n - i);
    for (std::size_t j = 0; j < row; ++j) a[j] = std::max(a[j], x[i + j]);
  }
  const double tau = *std::min_element(a, a + t);
  // Branch-free copy of the survivors over the spent column maxima.
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    a[k] = x[i];
    k += x[i] >= tau;
  }
  // Rank lo of the sample is rank k - t of the k survivors. Quickselect it:
  // each pass copies the range's entries below and above a median-of-three
  // pivot to the two ends of the other buffer, again without branching on
  // the data, and keeps the side holding the rank: std::nth_element's
  // data-dependent branches mispredict on scoring rows, and these passes
  // branch once each.
  std::size_t rank = k - t;
  double above = kInf;  // least entry ranked above the range
  while (k > 8) {
    const double x0 = a[0], x1 = a[k / 2], x2 = a[k - 1];
    const double pivot =
        std::max(std::min(x0, x1), std::min(std::max(x0, x1), x2));
    std::size_t less = 0, greater = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const double v = a[i];
      b[less] = v;
      less += v < pivot;
      b[k - 1 - greater] = v;
      greater += v > pivot;
    }
    // At least one entry equals the pivot, which is one of them, so every
    // pass narrows the range or ends the search.
    const std::size_t equal = k - less - greater;
    double* const spent = a;
    if (rank < less) {
      above = pivot;
      a = b;
      k = less;
    } else if (rank < less + equal) {
      double next = pivot;
      if (rank + 1 == less + equal) {
        next = greater == 0
                   ? above
                   : *std::min_element(b + k - greater, b + k);
      }
      return interpolate(pivot, r.hi == r.lo ? pivot : next, r.frac);
    } else {
      rank -= less + equal;
      a = b + k - greater;
      k = greater;
    }
    b = spent;
  }
  std::sort(a, a + k);
  const double lo = a[rank];
  if (r.hi == r.lo) return lo;
  return interpolate(lo, rank + 1 < k ? a[rank + 1] : above, r.frac);
}

double percentile_from_ranks(double lo_value, double hi_value, std::size_t n,
                             double q) {
  PERIGEE_ASSERT(n >= 1 && q >= 0.0 && q <= 1.0);
  if (n == 1) return lo_value;
  return interpolate(lo_value, hi_value, rank_of(n, q).frac);
}

std::size_t percentile_lower_rank(std::size_t n, double q) {
  PERIGEE_ASSERT(n >= 1 && q >= 0.0 && q <= 1.0);
  return rank_of(n, q).lo;
}

double percentile(std::span<const double> sample, double q) {
  std::vector<double> scratch;
  return percentile(sample, q, scratch);
}

double mean(std::span<const double> sample) {
  if (sample.empty()) return 0.0;
  double s = 0;
  for (double x : sample) s += x;
  return s / static_cast<double>(sample.size());
}

double stddev(std::span<const double> sample) {
  if (sample.size() < 2) return 0.0;
  const double m = mean(sample);
  double s2 = 0;
  for (double x : sample) s2 += (x - m) * (x - m);
  return std::sqrt(s2 / static_cast<double>(sample.size() - 1));
}

void OnlineStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double OnlineStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

Summary summarize(std::span<const double> sample) {
  Summary s;
  s.count = sample.size();
  if (sample.empty()) return s;
  std::vector<double> copy(sample.begin(), sample.end());
  std::sort(copy.begin(), copy.end());
  s.min = copy.front();
  s.max = copy.back();
  s.mean = mean(copy);
  s.stddev = stddev(copy);
  s.p10 = percentile_sorted(copy, 0.10);
  s.p50 = percentile_sorted(copy, 0.50);
  s.p90 = percentile_sorted(copy, 0.90);
  s.p99 = percentile_sorted(copy, 0.99);
  return s;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  PERIGEE_ASSERT(hi > lo);
  PERIGEE_ASSERT(bins > 0);
}

void Histogram::add(double x) {
  const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto bin = static_cast<long>((x - lo_) / w);
  bin = std::clamp(bin, 0L, static_cast<long>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

void Histogram::add_all(std::span<const double> xs) {
  for (double x : xs) add(x);
}

double Histogram::bin_lo(std::size_t bin) const {
  const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + w * static_cast<double>(bin);
}

double Histogram::bin_hi(std::size_t bin) const { return bin_lo(bin + 1); }

double Histogram::fraction(std::size_t bin) const {
  return total_ == 0
             ? 0.0
             : static_cast<double>(counts_[bin]) / static_cast<double>(total_);
}

std::string Histogram::render(std::size_t bar_width) const {
  std::size_t peak = 1;
  for (std::size_t c : counts_) peak = std::max(peak, c);
  std::ostringstream os;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    char range[64];
    std::snprintf(range, sizeof range, "%8.1f..%-8.1f %7zu  ", bin_lo(i),
                  bin_hi(i), counts_[i]);
    os << range;
    const auto len = static_cast<std::size_t>(
        static_cast<double>(counts_[i]) / static_cast<double>(peak) *
        static_cast<double>(bar_width));
    os << std::string(len, '#') << '\n';
  }
  return os.str();
}

std::vector<std::size_t> Histogram::modes() const {
  // 3-bin moving average suppresses single-bin noise before peak-picking.
  const std::size_t n = counts_.size();
  std::vector<double> smooth(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double s = static_cast<double>(counts_[i]);
    double w = 1;
    if (i > 0) {
      s += static_cast<double>(counts_[i - 1]);
      ++w;
    }
    if (i + 1 < n) {
      s += static_cast<double>(counts_[i + 1]);
      ++w;
    }
    smooth[i] = s / w;
  }
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < n; ++i) {
    const double left = i == 0 ? -1.0 : smooth[i - 1];
    const double right = i + 1 == n ? -1.0 : smooth[i + 1];
    if (smooth[i] > left && smooth[i] >= right && counts_[i] > 0) {
      out.push_back(i);
    }
  }
  return out;
}

}  // namespace perigee::util

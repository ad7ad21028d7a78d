#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace perigee::util {
namespace {

TEST(Percentile, EmptySampleIsInfinite) {
  EXPECT_TRUE(std::isinf(percentile({}, 0.9)));
  EXPECT_EQ(percentile_in_place({}, 0.9), kInf);
}

TEST(Percentile, SingleElement) {
  const std::vector<double> v = {4.5};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 4.5);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 4.5);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 4.5);
}

TEST(Percentile, MedianOfTwoInterpolates) {
  const std::vector<double> v = {1.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 2.0);
}

TEST(Percentile, UnsortedInputHandled) {
  const std::vector<double> v = {9.0, 1.0, 5.0, 3.0, 7.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 9.0);
}

TEST(Percentile, NinetiethOfTen) {
  // ranks 0..9; 0.9 * 9 = 8.1 -> between 9th and 10th order statistic.
  std::vector<double> v;
  for (int i = 1; i <= 10; ++i) v.push_back(i);
  EXPECT_NEAR(percentile(v, 0.9), 9.1, 1e-12);
}

TEST(Percentile, InfEntriesSortLast) {
  const std::vector<double> v = {1.0, 2.0, kInf, kInf};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_TRUE(std::isinf(percentile(v, 1.0)));
  // 0.5 -> rank 1.5, interpolates between 2.0 and inf -> dominated by inf.
  EXPECT_EQ(percentile(v, 0.5), kInf);
}

TEST(Percentile, AllInfIsInf) {
  const std::vector<double> v = {kInf, kInf};
  EXPECT_TRUE(std::isinf(percentile(v, 0.9)));
}

TEST(Percentile, MatchesNaiveOnRandomData) {
  Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> v;
    const int n = 1 + static_cast<int>(rng.uniform_index(200));
    for (int i = 0; i < n; ++i) v.push_back(rng.uniform(0, 100));
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.0, 0.1, 0.5, 0.9, 1.0}) {
      const double rank = q * (n - 1);
      const auto lo = static_cast<std::size_t>(rank);
      const auto hi = std::min<std::size_t>(lo + 1, sorted.size() - 1);
      const double expect =
          sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo);
      EXPECT_NEAR(percentile(v, q), expect, 1e-9);
    }
  }
}

// Reference: the copy-and-sort estimator, bit for bit.
double sorted_reference(std::span<const double> sample, double q) {
  std::vector<double> copy(sample.begin(), sample.end());
  std::sort(copy.begin(), copy.end());
  return percentile_sorted(copy, q);
}

TEST(Percentile, SelectionMatchesSortBitForBit) {
  Rng rng(2024);
  for (std::size_t n = 1; n <= 257; ++n) {
    for (int variant = 0; variant < 3; ++variant) {
      std::vector<double> v;
      for (std::size_t i = 0; i < n; ++i) {
        // Variant 0: distinct values; 1: few repeated values; 2: repeated
        // values with one or more +inf entries.
        const double x = variant == 0
                             ? rng.uniform(0, 100)
                             : static_cast<double>(rng.uniform_index(5)) * 2.5;
        v.push_back(x);
      }
      if (variant == 2) {
        const std::size_t infs = 1 + rng.uniform_index(n);
        for (std::size_t k = 0; k < infs; ++k) v[rng.uniform_index(n)] = kInf;
      }
      for (double q : {0.0, 0.1, 0.5, 0.9, 0.95, 1.0}) {
        const double expect = sorted_reference(v, q);
        EXPECT_EQ(percentile(v, q), expect)
            << "n=" << n << " variant=" << variant << " q=" << q;
        std::vector<double> scratch = v;
        EXPECT_EQ(percentile_in_place(scratch, q), expect)
            << "n=" << n << " variant=" << variant << " q=" << q;
        // In place only reorders: the multiset is unchanged.
        std::sort(scratch.begin(), scratch.end());
        std::vector<double> sorted = v;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(scratch, sorted);
      }
    }
  }
}

TEST(MeanStddev, KnownValues) {
  const std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  // Sample stddev with n-1 = 7: var = 32/7.
  EXPECT_NEAR(stddev(v), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(MeanStddev, DegenerateSizes) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({}), 0.0);
  const std::vector<double> one = {3.0};
  EXPECT_DOUBLE_EQ(stddev(one), 0.0);
}

TEST(OnlineStats, MatchesBatch) {
  Rng rng(99);
  std::vector<double> v;
  OnlineStats os;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(5, 2);
    v.push_back(x);
    os.add(x);
  }
  EXPECT_EQ(os.count(), 1000u);
  EXPECT_NEAR(os.mean(), mean(v), 1e-9);
  EXPECT_NEAR(os.stddev(), stddev(v), 1e-9);
  EXPECT_DOUBLE_EQ(os.min(), *std::min_element(v.begin(), v.end()));
  EXPECT_DOUBLE_EQ(os.max(), *std::max_element(v.begin(), v.end()));
}

TEST(OnlineStats, EmptyIsSafe) {
  OnlineStats os;
  EXPECT_EQ(os.count(), 0u);
  EXPECT_DOUBLE_EQ(os.mean(), 0.0);
  EXPECT_DOUBLE_EQ(os.variance(), 0.0);
}

TEST(Summary, OrderedFields) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_LE(s.p10, s.p50);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p99);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);    // bin 0
  h.add(9.99);   // bin 9
  h.add(-5.0);   // clamped to bin 0
  h.add(42.0);   // clamped to bin 9
  h.add(5.0);    // bin 5
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(9), 2u);
  EXPECT_EQ(h.count(5), 1u);
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.4);
}

TEST(Histogram, BinEdges) {
  Histogram h(10.0, 30.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 10.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 15.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 25.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(3), 30.0);
}

TEST(Histogram, DetectsBimodality) {
  Histogram h(0.0, 100.0, 20);
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) h.add(rng.normal(20, 4));
  for (int i = 0; i < 2000; ++i) h.add(rng.normal(75, 5));
  const auto modes = h.modes();
  EXPECT_GE(modes.size(), 2u);
  // One mode near bin 4 (=20ms), one near bin 15 (=75ms).
  bool low = false, high = false;
  for (auto m : modes) {
    if (m >= 2 && m <= 6) low = true;
    if (m >= 13 && m <= 17) high = true;
  }
  EXPECT_TRUE(low);
  EXPECT_TRUE(high);
}

TEST(Histogram, RenderContainsBars) {
  Histogram h(0.0, 10.0, 2);
  for (int i = 0; i < 10; ++i) h.add(2.0);
  const std::string out = h.render(10);
  EXPECT_NE(out.find("##########"), std::string::npos);
}

}  // namespace
}  // namespace perigee::util

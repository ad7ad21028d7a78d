#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <cmath>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace perigee::util {
namespace {

TEST(Percentile, EmptySampleIsInfinite) {
  EXPECT_TRUE(std::isinf(percentile({}, 0.9)));
  std::vector<double> scratch;
  EXPECT_EQ(percentile({}, 0.9, scratch), kInf);
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

// Sample layouts for the threshold filter. It views the sample as rows of
// t = n - floor(q(n-1)) entries and keeps the entries at or above the least
// column maximum, so these aim at that threshold: sorted runs (the least
// column maximum sits in the last row or spans it), ties, a single large
// outlier per column (exactly t survivors), and +inf around t entries.
enum class Layout {
  Distinct,
  FewValues,
  FewValuesWithInf,
  Ascending,
  Descending,
  AllEqual,
  OutlierPerColumn,
  InfTMinus1,
  InfT,
  InfTPlus1,
};
constexpr Layout kLayouts[] = {
    Layout::Distinct,   Layout::FewValues,        Layout::FewValuesWithInf,
    Layout::Ascending,  Layout::Descending,       Layout::AllEqual,
    Layout::OutlierPerColumn, Layout::InfTMinus1, Layout::InfT,
    Layout::InfTPlus1};

std::vector<double> make_sample(Layout layout, std::size_t n, std::size_t t,
                                Rng& rng) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (layout) {
      case Layout::FewValues:
      case Layout::FewValuesWithInf:
        v[i] = static_cast<double>(rng.uniform_index(5)) * 2.5;
        break;
      case Layout::Ascending:
        v[i] = static_cast<double>(i);
        break;
      case Layout::Descending:
        v[i] = static_cast<double>(n - i);
        break;
      case Layout::AllEqual:
        v[i] = 7.25;
        break;
      default:
        v[i] = rng.uniform(0, 100);
    }
  }
  std::size_t infs = 0;
  switch (layout) {
    case Layout::FewValuesWithInf:
      infs = 1 + rng.uniform_index(n);
      for (std::size_t k = 0; k < infs; ++k) v[rng.uniform_index(n)] = kInf;
      return v;
    case Layout::OutlierPerColumn:
      // Column j is entries j, j + t, j + 2t, ...; one of them, at a random
      // row, is far above every other entry.
      for (std::size_t j = 0; j < t; ++j) {
        const std::size_t rows = (n - j + t - 1) / t;
        v[j + t * rng.uniform_index(rows)] = 1000.0 + static_cast<double>(j);
      }
      return v;
    case Layout::InfTMinus1:
      infs = t - 1;
      break;
    case Layout::InfT:
      infs = t;
      break;
    case Layout::InfTPlus1:
      infs = std::min(t + 1, n);
      break;
    default:
      return v;
  }
  // Exactly `infs` distinct positions.
  std::vector<std::size_t> slots(n);
  for (std::size_t i = 0; i < n; ++i) slots[i] = i;
  for (std::size_t k = 0; k < infs; ++k) {
    std::swap(slots[k], slots[k + rng.uniform_index(n - k)]);
    v[slots[k]] = kInf;
  }
  return v;
}

TEST(Percentile, SelectionMatchesSortBitForBit) {
  Rng rng(2024);
  constexpr double kQs[] = {0.0, 0.1, 0.5, 0.9, 0.95, 1.0};
  // Per q: samples of whole rows (n = k*t), one spare entry (k*t + 1) and
  // one entry short of whole rows (k*t - 1), with at least two rows.
  std::size_t whole[6] = {}, plus_one[6] = {}, minus_one[6] = {};
  std::vector<double> scratch;
  for (std::size_t n = 1; n <= 300; ++n) {
    for (std::size_t qi = 0; qi < 6; ++qi) {
      const double q = kQs[qi];
      const std::size_t t = n - percentile_lower_rank(n, q);
      if (n > t) {
        whole[qi] += n % t == 0;
        plus_one[qi] += n % t == 1 % t;
        minus_one[qi] += (n + 1) % t == 0;
      }
      for (const Layout layout : kLayouts) {
        const std::vector<double> v = make_sample(layout, n, t, rng);
        const std::vector<double> before = v;
        const double expect = sorted_reference(v, q);
        const auto where = ::testing::Message()
                           << "n=" << n << " t=" << t << " layout="
                           << static_cast<int>(layout) << " q=" << q;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(percentile(v, q, scratch)),
                  std::bit_cast<std::uint64_t>(expect))
            << where;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(percentile(v, q)),
                  std::bit_cast<std::uint64_t>(expect))
            << where;
        // The sample is read-only: byte-identical after both calls.
        ASSERT_EQ(std::memcmp(v.data(), before.data(), n * sizeof(double)), 0)
            << where;
      }
    }
  }
  // At q <= 0.5, t > n / 2: the sample is one row plus a partial one, so
  // the three row shapes are only distinct at the scoring quantiles.
  for (std::size_t qi = 3; qi < 5; ++qi) {
    EXPECT_GT(whole[qi], 0u) << "q=" << kQs[qi];
    EXPECT_GT(plus_one[qi], 0u) << "q=" << kQs[qi];
    EXPECT_GT(minus_one[qi], 0u) << "q=" << kQs[qi];
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

// Property suite for the fixed-point delay grid (util/fixedpoint.hpp) the
// bucket queues key on:
//
//  - quantization is an exact floor (dequantize(q(x)) <= x < next cell) and
//    therefore order-preserving — ties allowed, inversions never — over
//    random delay distributions spanning several magnitudes;
//  - quantization error is one-sided and strictly below step();
//  - `fit` puts the largest value in [2^(bits-1), 2^bits): maximal
//    resolution that still fits the target width;
//  - `bucket_width_shift` never violates the delta-stepping ceiling
//    2 * width <= min-delay, as an exact integer inequality.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/fixedpoint.hpp"
#include "util/rng.hpp"

namespace perigee {
namespace {

// Random positive delays spanning several orders of magnitude, plus the
// exact edge values a uniform generator would miss.
std::vector<double> delay_samples(std::uint64_t seed, double max_value) {
  util::Rng rng(seed);
  std::vector<double> xs;
  for (int i = 0; i < 2000; ++i) {
    // uniform() in (0,1); cubing skews mass towards tiny delays, the regime
    // where floor quantization has the most relative effect.
    const double u = rng.uniform();
    xs.push_back(u * u * u * max_value);
  }
  xs.push_back(0.0);
  xs.push_back(max_value);
  xs.push_back(std::nextafter(max_value, 0.0));
  xs.push_back(max_value / 3.0);
  return xs;
}

TEST(FixedPoint, QuantizeIsAnExactFloorWithBoundedOneSidedError) {
  for (const double max_value : {1.0, 7.3, 250.0, 12345.678}) {
    const auto scale = util::FixedPointScale::fit(max_value, 31);
    for (const double x : delay_samples(99, max_value)) {
      const std::uint64_t q = scale.quantize(x);
      // Exact floor: x lands in [cell q, cell q+1).
      EXPECT_LE(scale.dequantize(q), x);
      EXPECT_LT(x, scale.dequantize(q + 1));
      // One-sided error strictly below one grid step.
      const double err = x - scale.dequantize(q);
      EXPECT_GE(err, 0.0);
      EXPECT_LT(err, scale.step());
    }
  }
}

TEST(FixedPoint, QuantizationPreservesOrder) {
  for (const double max_value : {2.0, 610.5}) {
    const auto scale = util::FixedPointScale::fit(max_value, 31);
    auto xs = delay_samples(7, max_value);
    std::sort(xs.begin(), xs.end());
    for (std::size_t i = 1; i < xs.size(); ++i) {
      // Monotone: ties may appear, inversions may not.
      EXPECT_LE(scale.quantize(xs[i - 1]), scale.quantize(xs[i]))
          << xs[i - 1] << " vs " << xs[i];
    }
  }
}

TEST(FixedPoint, FitTargetsTheRequestedBitWidth) {
  for (const double max_value : {1e-6, 0.5, 1.0, 3.0, 4096.0, 9.9e7}) {
    for (const int bits : {20, 31}) {
      const auto scale = util::FixedPointScale::fit(max_value, bits);
      const std::uint64_t q = scale.quantize(max_value);
      EXPECT_GE(q, std::uint64_t{1} << (bits - 1)) << max_value;
      EXPECT_LT(q, std::uint64_t{1} << bits) << max_value;
    }
  }
  // Degenerate maxima get the unit grid instead of UB.
  EXPECT_EQ(util::FixedPointScale::fit(0.0, 31).exponent, 0);
  EXPECT_EQ(util::FixedPointScale::fit(-1.0, 31).exponent, 0);
}

TEST(FixedPoint, BucketWidthShiftNeverViolatesTheHalfMinDelayCeiling) {
  // No admissible width below q = 2 (width 1 would need 2 * 1 <= q).
  EXPECT_FALSE(util::bucket_width_shift(0).has_value());
  EXPECT_FALSE(util::bucket_width_shift(1).has_value());
  util::Rng rng(11);
  std::vector<std::uint64_t> qs = {2, 3, 4, 5, 7, 8, 1023, 1024,
                                   (std::uint64_t{1} << 52) - 1};
  for (int i = 0; i < 500; ++i) {
    qs.push_back(2 + rng.uniform_index((std::uint64_t{1} << 40)));
  }
  for (const std::uint64_t q : qs) {
    const auto shift = util::bucket_width_shift(q);
    ASSERT_TRUE(shift.has_value()) << q;
    ASSERT_GE(*shift, 0) << q;
    const std::uint64_t width = std::uint64_t{1} << *shift;
    // The delta-stepping ceiling, exact: twice the width fits under the
    // quantized min delay...
    EXPECT_LE(2 * width, q) << q;
    // ... and the width is maximal: one doubling would break the ceiling.
    EXPECT_GT(4 * width, q) << q;
  }
}

}  // namespace
}  // namespace perigee

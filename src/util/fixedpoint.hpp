/// \file
/// \brief Power-of-two fixed-point quantization of delay keys.
///
/// The delta-stepping engines place Dijkstra keys into uniform-width buckets.
/// Doing that with a double multiply (`key * inv_width`) rounds: an equal key
/// can land one bucket low. Quantizing keys onto a fixed-point grid whose
/// scale is a power of two removes the problem at the root:
///
///  - `q(x) = floor(x * 2^e)` is computed *exactly* for any double in range —
///    multiplying by a power of two only shifts the exponent, so the cast
///    truncation is the true mathematical floor;
///  - exact floor is monotone: `x <= y  =>  q(x) <= q(y)`, so quantized keys
///    are order-preserving (ties may be introduced, never inversions);
///  - the bucket index is `q(key) >> width_shift` — pure integer math, no
///    double compare, and the bucket width `2^width_shift` quantized units is
///    *exactly* representable, so the delta-stepping correctness ceiling
///    (width <= min-delay / 2) can be checked as an integer inequality
///    instead of a floating-point one.
///
/// Quantization error is one-sided and bounded: `0 <= x - dequantize(q(x)) <
/// step()` with `step() == 2^-e`. `tests/sim_fixedpoint_test.cpp` holds all
/// three properties (order preservation, error bound, exact width ceiling)
/// over random delay distributions.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>

namespace perigee::util {

/// A fixed-point grid `x -> floor(x * 2^exponent)` for nonnegative keys.
struct FixedPointScale {
  double scale = 1.0;  ///< 2^exponent; multiplication by it is exact
  int exponent = 0;

  /// Exact floor of `x * 2^exponent`. Contract: `x` finite, >= 0, and
  /// `x * scale` below 2^63 (the deriving helpers guarantee headroom).
  std::uint64_t quantize(double x) const {
    return static_cast<std::uint64_t>(x * scale);
  }
  /// Lower edge of `q`'s grid cell; `dequantize(quantize(x)) <= x`.
  double dequantize(std::uint64_t q) const {
    return static_cast<double>(q) / scale;
  }
  /// Grid resolution 2^-exponent: the (exclusive) bound on one value's
  /// quantization error.
  double step() const { return 1.0 / scale; }

  /// The grid that quantizes `max_value` to `target_bits` bits with maximal
  /// resolution: `q(max_value)` lands in [2^(target_bits-1), 2^target_bits).
  /// For `max_value <= 0` returns the unit grid (nothing to resolve).
  static FixedPointScale fit(double max_value, int target_bits) {
    FixedPointScale s;
    if (!(max_value > 0.0) || !std::isfinite(max_value)) return s;
    int exp2 = 0;
    std::frexp(max_value, &exp2);  // max_value = m * 2^exp2, m in [0.5, 1)
    s.exponent = target_bits - exp2;
    s.scale = std::ldexp(1.0, s.exponent);
    return s;
  }
};

/// Largest bucket-width exponent `s` with `2^(s+1) <= min_delay_q`, i.e. the
/// widest power-of-two bucket that still respects the delta-stepping ceiling
/// width <= min-delay / 2 — checked in exact integer arithmetic, never
/// violated by rounding. `min_delay_q < 2` admits no such width (the grid is
/// too coarse for this graph): nullopt, callers fall back to the heap path.
inline std::optional<int> bucket_width_shift(std::uint64_t min_delay_q) {
  if (min_delay_q < 2) return std::nullopt;
  // min_delay_q in [2^k, 2^(k+1)) with k = bit_width - 1; width 2^(k-1)
  // satisfies 2^k <= min_delay_q.
  return std::bit_width(min_delay_q) - 2;
}

}  // namespace perigee::util

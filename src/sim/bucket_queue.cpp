#include "sim/bucket_queue.hpp"

#include <bit>
#include <cmath>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace perigee::sim {

std::optional<BucketQueueBase::FixedPlan> BucketQueueBase::plan_fixed(
    double min_delay, double max_reach, double max_key) {
  if (!(min_delay > 0.0) || !std::isfinite(min_delay)) return std::nullopt;
  if (!(max_reach >= 0.0) || !std::isfinite(max_reach)) return std::nullopt;
  if (!(max_key > 0.0) || !std::isfinite(max_key)) return std::nullopt;
  // Grid resolving the smallest delay into ~2^9 units, coarsened until
  // every key the relaxation can conceivably form quantizes below 2^32 —
  // the bound that makes the u32 qkey image lossless.
  util::FixedPointScale grid = util::FixedPointScale::fit(min_delay, 10);
  while (grid.exponent > -1060 && max_key * grid.scale >= 0x1p32) {
    --grid.exponent;
    grid.scale = std::ldexp(1.0, grid.exponent);
  }
  if (max_key * grid.scale >= 0x1p32) return std::nullopt;
  // The width ceiling (<= min-delay / 2) as an exact integer inequality; a
  // min delay that quantizes below 2 admits no correct power-of-two width
  // on this grid.
  const std::uint64_t min_q = grid.quantize(min_delay);
  const std::optional<int> ceiling = util::bucket_width_shift(min_q);
  if (!ceiling.has_value()) return std::nullopt;
  // Start from the occupancy sweet spot — the widest power-of-two width
  // not above min-delay / 16, i.e. 3 shifts under the delta-stepping
  // ceiling (<= min-delay / 2). Thin buckets keep the active-bucket
  // insertion sort near-free; starting at the ceiling measurably slows the
  // batched all-sources eval. Then widen until one relaxation reach of
  // pending buckets fits the kPreferredBuckets ring budget. Widening past
  // the ceiling keeps `pop` order-correct (it drains its active bucket
  // sorted and inserts into it in place) but not `take_bucket`, so the
  // plan records the ceiling and the delay solver checks it.
  int shift = *ceiling >= 3 ? *ceiling - 3 : 0;
  const std::uint64_t reach_q = grid.quantize(max_reach);
  while (shift < 40 && (reach_q >> shift) + 4 >= kPreferredBuckets) ++shift;
  if ((reach_q >> shift) + 4 >= kPreferredBuckets) return std::nullopt;
  FixedPlan plan;
  plan.grid = grid;
  plan.shift = shift;
  plan.ceiling = *ceiling;
  return plan;
}

void BucketQueueBase::install(const FixedPlan& plan) {
  PERIGEE_ASSERT(plan.grid.scale > 0.0 && plan.shift >= 0);
  size_ = 0;
  cur_ = 0;
  cur_sorted_ = false;
  empty_skips_ = 0;
  scale_ = plan.grid.scale;
  shift_ = plan.shift;
  width_ = plan.width();
}

void BucketQueueBase::advance_to_nonempty() {
  // Scan the occupancy bitmap cyclically from cur_'s slot. Pending buckets
  // span less than the ring capacity, so the first occupied slot in ring
  // order is the smallest pending absolute bucket.
  const std::uint64_t capacity = mask_ + 1;
  const std::uint64_t start = cur_ & mask_;
  std::uint64_t word = start >> 6;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (start & 63));
  std::uint64_t scanned = 0;
  const std::uint64_t words = capacity / 64;
  while (bits == 0) {
    word = (word + 1) % words;
    bits = occupied_[word];
    scanned += 64;
    PERIGEE_ASSERT_MSG(scanned <= capacity, "bitmap desync: size_ > 0 but "
                                            "no occupied bucket");
  }
  const std::uint64_t s =
      word * 64 + static_cast<std::uint64_t>(std::countr_zero(bits));
  // Distance from cur_'s slot to s in ring order == absolute index delta.
  const std::uint64_t delta = (s - start + capacity) & mask_;
  if (delta != 0) {
    cur_ += delta;
    cur_sorted_ = false;
    PERIGEE_TELEMETRY_ONLY(empty_skips_ += delta);
  }
}

}  // namespace perigee::sim

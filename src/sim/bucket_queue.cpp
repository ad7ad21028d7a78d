#include "sim/bucket_queue.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/assert.hpp"

namespace perigee::sim {

std::optional<BucketQueue::FixedPlan> BucketQueue::plan_fixed(
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
  // pending buckets fits the kPreferredBuckets ring budget. Wider buckets
  // stay order-correct here:
  // the sequential queue drains its active bucket sorted, so width only
  // trades scan cost against in-bucket insert cost.
  int shift = *ceiling >= 3 ? *ceiling - 3 : 0;
  const std::uint64_t reach_q = grid.quantize(max_reach);
  while (shift < 40 && (reach_q >> shift) + 4 >= kPreferredBuckets) ++shift;
  if ((reach_q >> shift) + 4 >= kPreferredBuckets) return std::nullopt;
  FixedPlan plan;
  plan.grid = grid;
  plan.shift = shift;
  return plan;
}

void BucketQueue::clear_and_rewind() {
  if (size_ != 0) {
    for (std::size_t w = 0; w < occupied_.size(); ++w) {
      std::uint64_t bits = occupied_[w];
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        ring_[w * 64 + static_cast<std::size_t>(b)].clear();
      }
      occupied_[w] = 0;
    }
    size_ = 0;
  }
  cur_ = 0;
  cur_sorted_ = false;
#ifdef PERIGEE_TELEMETRY
  empty_skips_ = 0;
#endif
  if (ring_.empty()) grow(0);  // keeps the ring check out of push()
}

void BucketQueue::reset(const FixedPlan& plan) {
  PERIGEE_ASSERT(plan.grid.scale > 0.0 && plan.shift >= 0);
  clear_and_rewind();
  scale_ = plan.grid.scale;
  shift_ = plan.shift;
  width_ = plan.width();
}

void BucketQueue::sort_bucket(std::vector<Entry>& bucket) {
  // Only reached for buckets too large for pop()'s inline insertion sort.
  std::sort(bucket.begin(), bucket.end(), greater);
}

void BucketQueue::push_sorted(std::vector<Entry>& bucket, Entry entry) {
  bucket.insert(
      std::upper_bound(bucket.begin(), bucket.end(), entry, greater), entry);
}

void BucketQueue::grow(std::uint64_t span_needed) {
  std::size_t capacity = std::max<std::size_t>(mask_ + 1, 64);
  while (capacity <= span_needed) capacity *= 2;
  PERIGEE_ASSERT_MSG(capacity <= kMaxBuckets,
                     "bucket queue span exceeds kMaxBuckets; the caller "
                     "should have used BucketQueue::plan_fixed");
  std::vector<std::vector<Entry>> fresh(capacity);
  const std::uint64_t new_mask = capacity - 1;
  // Remap live buckets: every entry of a slot shares one absolute bucket
  // index (pending keys span < old capacity), recoverable from any entry's
  // qkey.
  for (auto& bucket : ring_) {
    if (bucket.empty()) continue;
    const std::uint64_t abs_bucket =
        std::uint64_t{bucket.front().qkey} >> shift_;
    fresh[abs_bucket & new_mask] = std::move(bucket);
  }
  ring_ = std::move(fresh);
  mask_ = new_mask;
  occupied_.assign(capacity / 64, 0);
  for (std::uint64_t s = 0; s < capacity; ++s) {
    if (!ring_[s].empty()) occupied_[s >> 6] |= std::uint64_t{1} << (s & 63);
  }
}

void BucketQueue::advance_to_nonempty() {
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
#ifdef PERIGEE_TELEMETRY
    empty_skips_ += delta;
#endif
  }
}

}  // namespace perigee::sim

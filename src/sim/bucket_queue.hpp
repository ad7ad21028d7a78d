/// \file
/// \brief Monotone bucket queue (delta-stepping style) for the batched
/// broadcast engine's Dijkstra relaxation.
///
/// A Dijkstra pass over a graph whose edge weights are all >= some δmin only
/// ever inserts keys >= the key it last popped (each candidate is
/// `settled arrival + validation + edge delay`). A bucket queue exploits that
/// monotonicity: entries land in uniform-width buckets indexed by
/// `floor(key / width)`, pops drain buckets in index order, and with
/// `width <= δmin / 2` no insertion can ever land in a bucket that is already
/// being drained — so a push is O(1) amortized instead of the 4-ary heap's
/// O(log n) sift.
///
/// Unlike classic Dial/delta-stepping, the active bucket is sorted
/// lexicographically by (key, node) before it is drained. Buckets are small
/// (edge weights spread pushes across many buckets), so the sort is cheap,
/// and it buys the property the engines' byte-parity contract is easiest to
/// reason about with: **pop order is exactly
/// `std::priority_queue<pair, greater<>>` order** for any monotone push
/// sequence — `tests/sim_bucketq_test.cpp` asserts this equivalence
/// directly, and the batched engine therefore settles nodes in exactly the
/// test oracle's sequence.
///
/// Keys are bucketed on a u32 fixed-point grid: each key is quantized onto
/// a power-of-two grid (`util::FixedPointScale`, exact floor) at push time
/// and the bucket index is `qkey >> shift` — pure integer math. The exact
/// floor is monotone, so a push can never land below the bucket being
/// drained and `push` needs no rounding clamp; the active-bucket sort
/// compares the stored u32 qkey first and only breaks qkey ties through the
/// key's IEEE bit pattern (for finite nonnegative doubles, unsigned
/// bit-pattern order *is* numeric order), so the hot pop/sort path performs
/// no double compares at all. `plan_fixed` derives a grid whose largest
/// conceivable key fits u32; graphs it rejects go to the 4-ary heap.
///
/// The bucket array is a power-of-two ring over *absolute* bucket indices
/// (slot = index & mask), valid because pending keys span less than the ring
/// capacity; a bitmap over slots makes skipping empty buckets O(ring/64) in
/// the worst case. Storage is reused across `reset()` calls, so a worker
/// draining thousands of single-source passes performs no steady-state
/// allocation.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/types.hpp"
#include "util/fixedpoint.hpp"

namespace perigee::sim {

class BucketQueue {
 public:
  /// One queued element: (arrival-time key, fixed-point image, node). `qkey`
  /// is `floor(key * scale)`, the primary sort key.
  struct Entry {
    double key;
    std::uint32_t qkey;
    net::NodeId node;
  };
  static_assert(sizeof(Entry) == 16, "keep bucket entries two per load pair");

  /// Hard ring-size ceiling enforced by `grow`.
  static constexpr std::uint64_t kMaxBuckets = std::uint64_t{1} << 20;
  /// Ring size `plan_fixed` steers towards (memory/scan sweet spot).
  static constexpr std::uint64_t kPreferredBuckets = std::uint64_t{1} << 16;

  /// A fixed-point bucketing plan: the quantization grid plus the power-of-
  /// two bucket width (`2^shift` grid units).
  struct FixedPlan {
    util::FixedPointScale grid;
    int shift = 0;
    /// Bucket width in key units (milliseconds) — exact, both factors are
    /// powers of two.
    double width() const { return std::ldexp(1.0, shift - grid.exponent); }
  };

  /// Derives the fixed-point plan for a graph whose keys never exceed
  /// `max_key` (callers bound it by n relaxations of `max_reach` each, with
  /// slack): the finest power-of-two grid that resolves `min_delay` to ~2^9
  /// units, coarsened until `max_key` quantizes below 2^32 so every qkey
  /// fits u32; the bucket width starts at the occupancy sweet spot
  /// (<= min_delay / 16: several buckets per smallest edge delay keep
  /// buckets thin, ~1–3 entries) and widens until one relaxation reach fits
  /// the `kPreferredBuckets` ring budget. nullopt when no grid works —
  /// degenerate delays, or a key span over ~2^31x the min delay, where the
  /// u32 image cannot both hold `max_key` and resolve `min_delay` to the
  /// >= 2 units a bucket width needs — and callers fall back to the heap.
  static std::optional<FixedPlan> plan_fixed(double min_delay,
                                             double max_reach, double max_key);

  /// Empties the queue and installs `plan` (from `plan_fixed`). Keeps
  /// previously grown storage.
  void reset(const FixedPlan& plan);

  /// Pending entries (including not-yet-skipped duplicates).
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// The bucket width the last `reset` installed (exact).
  double width() const { return width_; }

  /// Empty buckets skipped by `advance_to_nonempty` since the last `reset`.
  /// Telemetry only (flushed into the obs registry per source by the batch
  /// engine); always 0 when telemetry is compiled out.
  std::uint64_t empty_skips() const {
#ifdef PERIGEE_TELEMETRY
    return empty_skips_;
#else
    return 0;
#endif
  }

  /// Heap bytes behind the ring (slot vectors keep their capacity across
  /// `reset`, so this is the lane's steady-state footprint).
  std::size_t memory_bytes() const {
    std::size_t bytes = ring_.capacity() * sizeof(ring_[0]) +
                        occupied_.capacity() * sizeof(std::uint64_t);
    for (const auto& vec : ring_) bytes += vec.capacity() * sizeof(Entry);
    return bytes;
  }

  /// Inserts an entry. Contract (unchecked in the hot path): `reset` was
  /// called at least once, and `key` is finite, >= 0 (never -0.0 — its bit
  /// pattern would sort above every positive key), and >= the key of the
  /// last `pop` (the Dijkstra monotonicity this queue is built for). The
  /// caller's plan additionally bounds `key * scale` below 2^32
  /// (`plan_fixed` guarantees it for in-plan graphs).
  /// Inline: a sparse relaxation pushes a few thousand times per source, so
  /// the O(1) body must not cost a call.
  void push(double key, net::NodeId node) {
    // Exact floor onto the grid (scale is a power of two); monotone, so the
    // bucket can never fall below cur_ — no clamp.
    const auto qkey = static_cast<std::uint32_t>(key * scale_);
    const std::uint64_t bucket = qkey >> shift_;
    if (bucket - cur_ >= mask_ + 1) grow(bucket - cur_);
    std::vector<Entry>& vec = slot(bucket);
    if (vec.empty()) mark_occupied(bucket);
    const Entry entry{key, qkey, node};
    if (bucket == cur_ && cur_sorted_) {
      // Rare (the engine's width margin makes it impossible there, see the
      // file comment): keep the active bucket's descending order intact.
      push_sorted(vec, entry);
    } else {
      vec.push_back(entry);
    }
    ++size_;
  }

  /// Removes and returns the lexicographically smallest (key, node) pending
  /// entry. Precondition: `!empty()`.
  Entry pop() {
    std::vector<Entry>* vec = &slot(cur_);
    if (vec->empty()) {
      advance_to_nonempty();
      vec = &slot(cur_);
    }
    if (!cur_sorted_) {
      // Thin buckets are the norm (width is a fraction of the smallest
      // edge delay): single-entry buckets skip sorting entirely, small
      // ones insertion-sort inline (descending, so pops drain ascending
      // from the back), the rest go out of line.
      const std::size_t count = vec->size();
      if (count > 1) {
        if (count <= 16) {
          Entry* data = vec->data();
          for (std::size_t i = 1; i < count; ++i) {
            const Entry e = data[i];
            std::size_t j = i;
            while (j > 0 && greater(e, data[j - 1])) {
              data[j] = data[j - 1];
              --j;
            }
            data[j] = e;
          }
        } else {
          sort_bucket(*vec);
        }
      }
      cur_sorted_ = true;
    }
    const Entry e = vec->back();
    vec->pop_back();
    --size_;
    if (vec->empty()) mark_empty(cur_);
    return e;
  }

  /// Node id the next `pop` would return *if* it sits in the bucket being
  /// drained, else `fallback`. O(1): the active bucket drains sorted from
  /// the back, and the engines' width margin keeps concurrent pushes out of
  /// it, so `back()` right after a pop *is* the next pop. The engines feed
  /// this to a software prefetch of the next CSR row while the current one
  /// is scanned — a wrong-but-harmless `fallback` on bucket boundaries
  /// costs one redundant prefetch hint, nothing more.
  net::NodeId peek_next(net::NodeId fallback) const {
    const std::vector<Entry>& vec = ring_[cur_ & mask_];
    return (cur_sorted_ && !vec.empty()) ? vec.back().node : fallback;
  }

 private:
  /// Descending (key, node) order — the drain-from-back sort order. The u32
  /// qkey image decides first; a qkey tie
  /// falls through to the exact key via its IEEE bit pattern — for finite
  /// nonnegative doubles the unsigned bit-pattern order equals the numeric
  /// order, so ties and 1-ulp-apart keys resolve exactly, with no double
  /// compare anywhere on the path.
  static bool greater(const Entry& a, const Entry& b) {
    if (a.qkey != b.qkey) return a.qkey > b.qkey;
    const std::uint64_t ab = std::bit_cast<std::uint64_t>(a.key);
    const std::uint64_t bb = std::bit_cast<std::uint64_t>(b.key);
    return ab != bb ? ab > bb : a.node > b.node;
  }
  std::vector<Entry>& slot(std::uint64_t bucket) {
    return ring_[bucket & mask_];
  }
  void mark_occupied(std::uint64_t bucket) {
    const std::uint64_t s = bucket & mask_;
    occupied_[s >> 6] |= std::uint64_t{1} << (s & 63);
  }
  void mark_empty(std::uint64_t bucket) {
    const std::uint64_t s = bucket & mask_;
    occupied_[s >> 6] &= ~(std::uint64_t{1} << (s & 63));
  }
  static void sort_bucket(std::vector<Entry>& bucket);
  static void push_sorted(std::vector<Entry>& bucket, Entry entry);
  void clear_and_rewind();
  void grow(std::uint64_t span_needed);
  void advance_to_nonempty();

  double width_ = 1.0;
  double scale_ = 1.0;       ///< the grid's 2^exponent
  int shift_ = 0;            ///< log2 bucket width (grid units)
  std::uint64_t cur_ = 0;    ///< absolute index of the bucket being drained
  bool cur_sorted_ = false;  ///< true once `cur_`'s slot was sorted
  std::size_t size_ = 0;
  std::uint64_t mask_ = 0;  ///< ring capacity - 1 (capacity is a power of 2)
  std::vector<std::vector<Entry>> ring_;
  std::vector<std::uint64_t> occupied_;  ///< per-slot non-empty bitmap
#ifdef PERIGEE_TELEMETRY
  std::uint64_t empty_skips_ = 0;  ///< see empty_skips(); plain member — the
                                   ///< queue is single-threaded by design
#endif
};

}  // namespace perigee::sim

/// \file
/// \brief Monotone bucket queue (delta-stepping style) for the solvers of
/// the batch driver: the delay solver's Dijkstra relaxation, the egress
/// solver's discrete events and the announce solver's INVs.
///
/// A Dijkstra pass over a graph whose edge weights are all >= some δmin only
/// ever inserts keys >= the key it last popped (each candidate is
/// `settled arrival + validation + edge delay`), and the egress event loop
/// only ever schedules events at or after the one it is handling. A bucket
/// queue exploits that monotonicity: entries land in uniform-width buckets
/// indexed by `floor(key / width)`, pops drain buckets in index order, so a
/// push is O(1) amortized instead of the 4-ary heap's O(log n) sift.
///
/// Unlike classic Dial/delta-stepping, the active bucket is sorted before it
/// is drained, and a push into it is inserted in sorted position. Buckets
/// are small, so the sort is cheap, and it buys the property the engines'
/// byte-parity contract is easiest to reason about with: **pop order is
/// exactly the entry's total order** — (time, seq) for the egress solver's
/// `EgressEvent` and (time, to, from) for the announce solver's
/// `AnnounceEntry` — for any monotone push sequence.
///
/// The delay solver drains a whole bucket at a time instead (`take_bucket`):
/// it hands over the smallest pending bucket unsorted, and the caller drops
/// stale entries and sorts the rest with `sort_pop_order` before settling
/// them. That is the same sequence `pop` would give only while no push can
/// land in the bucket being drained, which the delta-stepping ceiling
/// guarantees: a plan with `FixedPlan::within_ceiling()` has width <= min
/// delay / 2, so a relaxation from any key of a bucket lands at least two
/// widths later. The delay solver therefore takes the 4-ary heap
/// (sim/dary_heap.hpp) for a snapshot whose plan had to widen past the
/// ceiling. `tests/sim_bucketq_test.cpp` asserts both shapes against
/// `std::priority_queue` order, so each engine settles nodes in exactly its
/// test oracle's sequence.
///
/// The queue is generic over its entry. An entry is an aggregate whose
/// first members are `double key` (finite, >= 0, never -0.0),
/// `std::uint32_t qkey` (filled in by `push`) and `net::NodeId node`,
/// followed by whatever payload the solver needs; its `tie()` breaks exact
/// key ties.
///
/// Keys are bucketed on a u32 fixed-point grid: each key is quantized onto
/// a power-of-two grid (`util::FixedPointScale`, exact floor) at push time
/// and the bucket index is `qkey >> shift` — pure integer math. The exact
/// floor is monotone, so a push can never land below the bucket being
/// drained and `push` needs no rounding clamp; equal keys share a qkey and
/// therefore a bucket. The active-bucket sort compares the stored u32 qkey
/// first and only breaks qkey ties through the key's IEEE bit pattern (for
/// finite nonnegative doubles, unsigned bit-pattern order *is* numeric
/// order) and then `tie()`, so the hot pop/sort path performs no double
/// compares at all. `plan_fixed` derives a grid whose largest conceivable
/// key fits u32; inputs it rejects go to the 4-ary heap (sim/dary_heap.hpp).
///
/// The bucket array is a power-of-two ring over *absolute* bucket indices
/// (slot = index & mask), valid because pending keys span less than the ring
/// capacity; a bitmap over slots makes skipping empty buckets O(ring/64) in
/// the worst case. Storage is reused across `reset()` calls, so a worker
/// draining thousands of single-source passes performs no steady-state
/// allocation.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "net/types.hpp"
#include "util/assert.hpp"
#include "util/fixedpoint.hpp"

namespace perigee::sim {

/// The delay solver's entry: (arrival-time key, fixed-point image, node).
/// `qkey` is `floor(key * scale)`, the primary sort key; exact key ties
/// settle in node order, i.e. `std::priority_queue<pair, greater<>>` order.
struct RelaxEntry {
  double key;
  std::uint32_t qkey;
  net::NodeId node;
  std::uint32_t tie() const { return node; }
};
static_assert(sizeof(RelaxEntry) == 16,
              "keep bucket entries two per load pair");

/// The entry-independent half of `BucketQueue`: the fixed-point plan, the
/// drain cursor and the occupancy bitmap.
class BucketQueueBase {
 public:
  /// Hard ring-size ceiling enforced by `grow`.
  static constexpr std::uint64_t kMaxBuckets = std::uint64_t{1} << 20;
  /// Ring size `plan_fixed` steers towards (memory/scan sweet spot).
  static constexpr std::uint64_t kPreferredBuckets = std::uint64_t{1} << 16;

  /// A fixed-point bucketing plan: the quantization grid plus the power-of-
  /// two bucket width (`2^shift` grid units).
  struct FixedPlan {
    util::FixedPointScale grid;
    int shift = 0;
    /// The widest shift whose width is <= min delay / 2 on this grid (the
    /// delta-stepping ceiling).
    int ceiling = 0;
    /// Bucket width in key units (milliseconds) — exact, both factors are
    /// powers of two.
    double width() const { return std::ldexp(1.0, shift - grid.exponent); }
    /// True when no push can land in the bucket being drained: every key
    /// pushed is at least min delay >= 2 widths past the one it relaxes
    /// from. Bucket-at-a-time draining (`take_bucket`) needs it.
    bool within_ceiling() const { return shift <= ceiling; }
  };

  /// Derives the fixed-point plan for keys that never exceed `max_key`
  /// (callers bound it by n steps of `max_reach` each, with slack), where
  /// `max_reach` bounds how far past the last pop one push can land: the
  /// finest power-of-two grid that resolves `min_delay` to ~2^9 units,
  /// coarsened until `max_key` quantizes below 2^32 so every qkey fits u32;
  /// the bucket width starts at the occupancy sweet spot (<= min_delay / 16:
  /// several buckets per smallest edge delay keep buckets thin, ~1–3
  /// entries) and widens until one reach fits the `kPreferredBuckets` ring
  /// budget, past the ceiling if it must (`FixedPlan::within_ceiling`).
  /// nullopt when no grid works — degenerate delays, or a key span
  /// over ~2^31x the min delay, where the u32 image cannot both hold
  /// `max_key` and resolve `min_delay` to the >= 2 units a bucket width
  /// needs — and callers fall back to the heap.
  static std::optional<FixedPlan> plan_fixed(double min_delay,
                                             double max_reach, double max_key);

  /// Pending entries (including not-yet-skipped duplicates).
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// The bucket width the last `reset` installed (exact).
  double width() const { return width_; }

  /// Empty buckets skipped by `advance_to_nonempty` since the last `reset`.
  /// Telemetry only (flushed into the obs registry per source by the batch
  /// engine); always 0 when telemetry is compiled out.
  std::uint64_t empty_skips() const { return empty_skips_; }

 protected:
  void install(const FixedPlan& plan);
  void mark_occupied(std::uint64_t bucket) {
    const std::uint64_t s = bucket & mask_;
    occupied_[s >> 6] |= std::uint64_t{1} << (s & 63);
  }
  void mark_empty(std::uint64_t bucket) {
    const std::uint64_t s = bucket & mask_;
    occupied_[s >> 6] &= ~(std::uint64_t{1} << (s & 63));
  }
  /// Moves `cur_` to the smallest occupied bucket. Precondition: `size_`.
  void advance_to_nonempty();

  double width_ = 1.0;
  double scale_ = 1.0;       ///< the grid's 2^exponent
  int shift_ = 0;            ///< log2 bucket width (grid units)
  std::uint64_t cur_ = 0;    ///< absolute index of the bucket being drained
  bool cur_sorted_ = false;  ///< true once `cur_`'s slot was sorted
  std::size_t size_ = 0;
  std::uint64_t mask_ = 0;  ///< ring capacity - 1 (capacity is a power of 2)
  std::vector<std::uint64_t> occupied_;  ///< per-slot non-empty bitmap
  /// See empty_skips(); a plain member (the queue is single-threaded by
  /// design) kept in every build, so the layout never depends on
  /// PERIGEE_TELEMETRY.
  std::uint64_t empty_skips_ = 0;
};

/// The queue over one entry type (see the file comment for its contract).
template <typename Entry>
class BucketQueue : public BucketQueueBase {
 public:
  /// Empties the queue and installs `plan` (from `plan_fixed`). Keeps
  /// previously grown storage.
  void reset(const FixedPlan& plan) {
    clear_ring();
    install(plan);
  }

  /// Heap bytes behind the ring (slot vectors keep their capacity across
  /// `reset`, so this is the lane's steady-state footprint).
  std::size_t memory_bytes() const {
    std::size_t bytes = ring_.capacity() * sizeof(ring_[0]) +
                        occupied_.capacity() * sizeof(std::uint64_t);
    for (const auto& vec : ring_) bytes += vec.capacity() * sizeof(Entry);
    return bytes;
  }

  /// Inserts the entry `{key, qkey, fields...}`. Contract (unchecked in the
  /// hot path): `reset` was called at least once, and `key` is finite, >= 0
  /// (never -0.0 — its bit pattern would sort above every positive key),
  /// and >= the key of the last `pop` (the monotonicity this queue is built
  /// for). The caller's plan additionally bounds `key * scale` below 2^32
  /// (`plan_fixed` guarantees it for in-plan inputs).
  /// Inline: a sparse relaxation pushes a few thousand times per source, so
  /// the O(1) body must not cost a call.
  template <typename... Fields>
  void push(double key, Fields... fields) {
    // Exact floor onto the grid (scale is a power of two); monotone, so the
    // bucket can never fall below cur_ — no clamp.
    const auto qkey = static_cast<std::uint32_t>(key * scale_);
    const std::uint64_t bucket = qkey >> shift_;
    if (bucket - cur_ >= mask_ + 1) grow(bucket - cur_);
    std::vector<Entry>& vec = slot(bucket);
    if (vec.empty()) mark_occupied(bucket);
    const Entry entry{key, qkey, fields...};
    if (bucket == cur_ && cur_sorted_) {
      // Keep the active bucket's descending order intact. Never the delay
      // solver (it takes whole buckets, leaving none sorted); the egress
      // solver lands here for every event it schedules at the time it is
      // handling.
      push_sorted(vec, entry);
    } else {
      vec.push_back(entry);
    }
    ++size_;
  }

  /// Removes and returns the smallest pending entry in (key, tie()) order.
  /// Precondition: `!empty()`.
  Entry pop() {
    std::vector<Entry>* vec = &slot(cur_);
    if (vec->empty()) {
      advance_to_nonempty();
      vec = &slot(cur_);
    }
    if (!cur_sorted_) {
      // Descending, so pops drain ascending from the back.
      sort_entries(vec->data(), vec->size(),
                   [](const Entry& a, const Entry& b) { return greater(a, b); });
      cur_sorted_ = true;
    }
    const Entry e = vec->back();
    vec->pop_back();
    --size_;
    if (vec->empty()) mark_empty(cur_);
    return e;
  }

  /// The smallest pending entry if it sits in the bucket being drained, else
  /// nullptr. Right after a `pop` that is exact for the popped key: every
  /// pending entry with an equal key shares its qkey, hence its bucket, and
  /// the active bucket stays sorted (pushes into it are inserted in place),
  /// so a pending entry with the popped key exists iff the returned entry
  /// has it.
  const Entry* peek_active() const {
    const std::vector<Entry>& vec = ring_[cur_ & mask_];
    return (cur_sorted_ && !vec.empty()) ? &vec.back() : nullptr;
  }

  /// Moves every entry of the smallest pending bucket into `out`, unsorted,
  /// dropping what `out` held: the two swap storage, so once both have
  /// grown nothing allocates. The caller puts them in pop order
  /// (`sort_pop_order`). Exact only under a plan `within_ceiling()`, whose
  /// pushes never land in the taken bucket. Precondition: `!empty()`.
  void take_bucket(std::vector<Entry>& out) {
    advance_to_nonempty();
    std::vector<Entry>& vec = slot(cur_);
    out.clear();
    out.swap(vec);
    size_ -= out.size();
    mark_empty(cur_);
    cur_sorted_ = false;
  }

  /// Sorts `count` entries from `data` into ascending pop order, (qkey, key
  /// bits, tie()) — the order `pop` returns them in.
  static void sort_pop_order(Entry* data, std::size_t count) {
    sort_entries(data, count,
                 [](const Entry& a, const Entry& b) { return greater(b, a); });
  }

 private:
  /// Descending (key, tie) order — `pop`'s drain-from-back order. The u32
  /// qkey image decides first; a qkey tie falls through to the exact key
  /// via its IEEE bit pattern — for finite nonnegative doubles the unsigned
  /// bit-pattern order equals the numeric order, so ties and 1-ulp-apart
  /// keys resolve exactly, with no double compare anywhere on the path.
  static bool greater(const Entry& a, const Entry& b) {
    if (a.qkey != b.qkey) return a.qkey > b.qkey;
    const std::uint64_t ab = std::bit_cast<std::uint64_t>(a.key);
    const std::uint64_t bb = std::bit_cast<std::uint64_t>(b.key);
    return ab != bb ? ab > bb : a.tie() > b.tie();
  }
  std::vector<Entry>& slot(std::uint64_t bucket) {
    return ring_[bucket & mask_];
  }

  // Thin buckets are the norm (width is a fraction of the smallest edge
  // delay): single entries need no sort, small buckets insertion-sort
  // inline, the rest go out of line.
  template <typename Less>
  static void sort_entries(Entry* data, std::size_t count, Less less) {
    if (count <= 1) return;
    if (count > 16) {
      sort_range(data, count, less);
      return;
    }
    for (std::size_t i = 1; i < count; ++i) {
      const Entry e = data[i];
      std::size_t j = i;
      while (j > 0 && less(e, data[j - 1])) {
        data[j] = data[j - 1];
        --j;
      }
      data[j] = e;
    }
  }

  // The cold paths stay out of line, as they were before the queue became
  // a template: inlining them would bloat the solvers' hot loops.
  template <typename Less>
  [[gnu::noinline]] static void sort_range(Entry* data, std::size_t count,
                                           Less less) {
    std::sort(data, data + count, less);
  }

  [[gnu::noinline]] static void push_sorted(std::vector<Entry>& bucket,
                                            Entry entry) {
    bucket.insert(
        std::upper_bound(bucket.begin(), bucket.end(), entry, greater),
        entry);
  }

  // Empties every occupied slot; `install` then rewinds the cursor.
  [[gnu::noinline]] void clear_ring() {
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
    }
    if (ring_.empty()) grow(0);  // keeps the ring check out of push()
  }

  [[gnu::noinline]] void grow(std::uint64_t span_needed) {
    std::size_t capacity = std::max<std::size_t>(mask_ + 1, 64);
    while (capacity <= span_needed) capacity *= 2;
    PERIGEE_ASSERT_MSG(capacity <= kMaxBuckets,
                       "bucket queue span exceeds kMaxBuckets; the caller "
                       "should have used BucketQueue::plan_fixed");
    std::vector<std::vector<Entry>> fresh(capacity);
    const std::uint64_t new_mask = capacity - 1;
    // Remap live buckets: every entry of a slot shares one absolute bucket
    // index (pending keys span < old capacity), recoverable from any
    // entry's qkey.
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

  std::vector<std::vector<Entry>> ring_;
};

}  // namespace perigee::sim

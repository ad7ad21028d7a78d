#include "sim/parallel.hpp"

#include <algorithm>
#include <barrier>
#include <bit>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runner/thread_pool.hpp"
#include "sim/batch.hpp"
#include "util/assert.hpp"
#include "util/fixedpoint.hpp"
#include "util/prefetch.hpp"
#include "util/stats.hpp"

namespace perigee::sim {
namespace {

/// "No pending bucket" sentinel for the next-bucket vote.
constexpr std::uint64_t kNoBucket = ParallelLane::kNoBucket;
/// Hard per-lane ring ceiling, matching BucketQueue::kMaxBuckets.
constexpr std::uint64_t kMaxRingBuckets = std::uint64_t{1} << 20;

}  // namespace

static_assert(alignof(ParallelLane) >= 64,
              "parallel lanes must be cache-line aligned");

void ParallelLane::ensure_ring(std::uint64_t cap) {
  if (!ring.empty() && mask + 1 >= cap) return;
  ring.resize(cap);
  occupied.assign(cap >> 6, 0);
  mask = cap - 1;
}

void ParallelLane::insert(std::uint64_t bucket, std::uint32_t node) {
  const std::uint64_t slot = bucket & mask;
  std::vector<std::uint32_t>& vec = ring[slot];
  if (vec.empty()) occupied[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  vec.push_back(node);
  ++pending;
}

void ParallelLane::drop_bucket(std::uint64_t bucket) {
  const std::uint64_t slot = bucket & mask;
  pending -= ring[slot].size();
  ring[slot].clear();
  occupied[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
}

// All pending entries lie within (cur, cur + capacity] (inserts are bounded
// by one relaxation reach, which the ring was sized to), so one pass over
// the window suffices. The word scan is aligned: ring capacity is a
// multiple of 64, so within any occupancy word the absolute indices are
// contiguous.
std::uint64_t ParallelLane::next_nonempty_after(std::uint64_t cur) const {
  if (pending == 0) return kNoBucket;
  const std::uint64_t cap = mask + 1;
  std::uint64_t idx = cur + 1;
  const std::uint64_t end = cur + cap;
  while (idx <= end) {
    const std::uint64_t slot = idx & mask;
    const std::uint64_t word = occupied[slot >> 6] >> (slot & 63);
    if (word != 0) {
      return idx + static_cast<std::uint64_t>(std::countr_zero(word));
    }
    idx += 64 - (slot & 63);
  }
  return kNoBucket;
}

std::size_t ParallelLane::memory_bytes() const {
  std::size_t bytes = ring.capacity() * sizeof(ring[0]) +
                      occupied.capacity() * sizeof(std::uint64_t) +
                      settled.capacity() +
                      outbox.capacity() * sizeof(outbox[0]) +
                      heap.capacity() * sizeof(HeapItem);
  for (const auto& slot : ring) {
    bytes += slot.capacity() * sizeof(std::uint32_t);
  }
  for (const auto& box : outbox) {
    bytes += box.capacity() * sizeof(Candidate);
  }
  return bytes;
}

const char* relax_engine_name(RelaxEngine engine) {
  switch (engine) {
    case RelaxEngine::Batched:
      return "batched";
    case RelaxEngine::ParallelDelta:
      return "parallel-delta";
  }
  return "batched";
}

std::optional<RelaxEngine> relax_engine_from_name(std::string_view name) {
  if (name == "batched") return RelaxEngine::Batched;
  if (name == "parallel-delta" || name == "parallel") {
    return RelaxEngine::ParallelDelta;
  }
  return std::nullopt;
}

namespace {

/// Exact-bucketing plan for the double world: a power-of-two grid whose
/// bucket width respects the min-δ/2 ceiling as an integer inequality, with
/// headroom guards so every bucket boundary is an exactly representable
/// double (see the file comment in parallel.hpp).
struct ParallelPlan {
  bool use_buckets = false;
  double scale = 1.0;
  int shift = 0;
  std::uint64_t ring_cap = 64;
};

ParallelPlan make_parallel_plan(const net::CsrTopology& csr) {
  ParallelPlan plan;
  const double min_delay = csr.min_delay_ms();
  const double max_reach = csr.max_delay_ms() + csr.max_validation_ms();
  if (csr.num_links() == 0 || !(min_delay > 0.0) ||
      !std::isfinite(min_delay) || !std::isfinite(max_reach)) {
    return plan;  // degenerate delays: heap fallback
  }
  // Grid resolving the smallest delay into ~2^9 units...
  util::FixedPointScale grid = util::FixedPointScale::fit(min_delay, 10);
  // ... coarsened until the largest conceivable key (<= n relaxations of
  // max_reach each, doubled for slack) quantizes below 2^52 — the bound
  // under which bucket boundaries (index * width / scale) are exact doubles
  // and the settled-once argument is airtight rather than probabilistic.
  const double max_key_bound =
      (static_cast<double>(csr.size()) + 1.0) * max_reach * 2.0;
  while (grid.exponent > -1060 && max_key_bound * grid.scale >= 0x1p52) {
    --grid.exponent;
    grid.scale = std::ldexp(1.0, grid.exponent);
  }
  if (max_key_bound * grid.scale >= 0x1p52) return plan;
  const std::uint64_t min_q = grid.quantize(min_delay);
  const std::optional<int> shift = util::bucket_width_shift(min_q);
  if (!shift.has_value()) return plan;  // grid too coarse for this graph
  const std::uint64_t reach_buckets =
      (grid.quantize(max_reach) >> *shift) + 4;
  if (reach_buckets > kMaxRingBuckets) return plan;
  plan.use_buckets = true;
  plan.scale = grid.scale;
  plan.shift = *shift;
  plan.ring_cap = std::bit_ceil(std::max<std::uint64_t>(reach_buckets, 64));
  return plan;
}

/// The bucket-synchronous team. Every member owns the contiguous node range
/// [member * chunk, ...): it is the only writer of those arrival entries and
/// of its own lane. Each non-empty bucket costs two barrier phases:
///
///   relax:  drain my slice of the current bucket; owned targets update in
///           place, remote targets buffer into per-owner outboxes (no
///           cross-range reads — a pre-check against the owner's arrival
///           would race);
///   merge:  apply the inboxes addressed to me in fixed member order, then
///           vote my next non-empty bucket; the second barrier's completion
///           picks the global minimum.
///
/// Settled-once (see parallel.hpp) makes any relax interleaving produce the
/// same bytes, so worker count never shows in the output.
void delta_step_team(const net::CsrTopology& csr, const ParallelPlan& plan,
                     std::uint32_t src, ParallelScratch& scratch,
                     unsigned members, double* arrival,
                     runner::ThreadPool* pool) {
  const std::size_t n = csr.size();
  const std::size_t* offsets = csr.offsets();
  const std::size_t* row_ends = csr.row_ends();
  const net::NodeId* peers = csr.peer_data();
  const double* delays = csr.delay_data();
  // Exact: key * scale is an exponent shift (scale is a power of two), the
  // cast truncation is the true floor.
  auto bucket_of = [&plan](double key) {
    return static_cast<std::uint64_t>(key * plan.scale) >> plan.shift;
  };
  const std::size_t chunk = (n + members - 1) / members;

  struct Shared {
    std::vector<std::uint64_t> next_of;
    std::uint64_t cur = 0;
    bool done = false;
  } shared;
  shared.next_of.assign(members, kNoBucket);
  auto pick_next = [&shared]() noexcept {
    std::uint64_t best = kNoBucket;
    for (const std::uint64_t next : shared.next_of) {
      best = std::min(best, next);
    }
    shared.cur = best;
    shared.done = best == kNoBucket;
  };
  std::barrier relax_done(members);
  std::barrier merge_done(members, pick_next);

  auto member = [&](unsigned w) {
    ParallelLane& lane = scratch.lane(w);
    const std::uint32_t lo =
        static_cast<std::uint32_t>(std::min(w * chunk, n));
    const std::uint32_t hi =
        static_cast<std::uint32_t>(std::min(lo + chunk, n));
    lane.ensure_ring(plan.ring_cap);
    lane.outbox.resize(members);
    lane.settled.assign(hi - lo, 0);
    std::fill(arrival + lo, arrival + hi, util::kInf);
    if (src >= lo && src < hi) {
      arrival[src] = 0.0;
      lane.insert(0, src);
    }
    PERIGEE_TELEMETRY_ONLY(std::uint64_t tally_relaxed = 0);
    PERIGEE_TELEMETRY_ONLY(std::uint64_t tally_remote = 0);
    PERIGEE_TELEMETRY_ONLY(std::uint64_t tally_buckets = 0);
    while (true) {
      const std::uint64_t cur = shared.cur;
      PERIGEE_TELEMETRY_ONLY(++tally_buckets;)
      for (unsigned t = 0; t < members; ++t) lane.outbox[t].clear();
      const std::vector<std::uint32_t>& slot = lane.ring[cur & lane.mask];
      for (std::size_t i = 0; i < slot.size(); ++i) {
        const std::uint32_t u = slot[i];
        if (i + 1 < slot.size()) {
          // Overlap the next entry's data-dependent loads with this row.
          PERIGEE_PREFETCH(&arrival[slot[i + 1]]);
          PERIGEE_PREFETCH(&lane.settled[slot[i + 1] - lo]);
        }
        // Branchless settle (same transform as batch.cpp): a stale
        // duplicate or non-forwarding node scans an empty row instead of
        // branching. Settled-once semantics are preserved — the flag is
        // written unconditionally, and a stale entry's arrival reads are
        // harmless (its computed candidates are never used).
        const std::uint8_t was_settled = lane.settled[u - lo];
        lane.settled[u - lo] = 1;
        const bool live =
            (was_settled == 0) & (csr.forwards(u) | (u == src));
        const double t = arrival[u];
        const double ready_u = u == src ? 0.0 : t + csr.validation_ms(u);
        const std::size_t row_begin = offsets[u];
        const std::size_t row_end = live ? row_ends[u] : row_begin;
        PERIGEE_TELEMETRY_ONLY(tally_relaxed += live ? 1 : 0;)
        for (std::size_t e = row_begin; e < row_end; ++e) {
          const std::uint32_t v = peers[e];
          const double cand = ready_u + delays[e];
          if (v >= lo && v < hi) {
            if (cand < arrival[v]) {
              arrival[v] = cand;
              // The exact-grid argument puts every candidate in a bucket
              // > cur already; the max is belt-and-braces, not a rounding
              // repair.
              lane.insert(std::max(bucket_of(cand), cur + 1), v);
            }
          } else {
            PERIGEE_TELEMETRY_ONLY(++tally_remote;)
            lane.outbox[v / chunk].push_back({v, cand});
          }
        }
      }
      lane.drop_bucket(cur);
      relax_done.arrive_and_wait();
      // Merge: inboxes in fixed member order — deterministic, though
      // settled-once means any order would yield the same bytes.
      for (unsigned w2 = 0; w2 < members; ++w2) {
        for (const auto& c : scratch.lane(w2).outbox[w]) {
          if (c.key < arrival[c.node]) {
            arrival[c.node] = c.key;
            lane.insert(std::max(bucket_of(c.key), cur + 1), c.node);
          }
        }
      }
      shared.next_of[w] = lane.next_nonempty_after(cur);
      merge_done.arrive_and_wait();
      if (shared.done) break;
    }
    PERIGEE_COUNTER_ADD("engine.parallel.relaxed", tally_relaxed);
    PERIGEE_COUNTER_ADD("engine.parallel.remote_candidates", tally_remote);
    if (w == 0) {
      PERIGEE_COUNTER_ADD("engine.parallel.bucket_rounds", tally_buckets);
    }
  };

  if (members == 1) {
    member(0);
  } else {
    runner::run_team(*pool, members, member);
  }
}

unsigned team_size(runner::ThreadPool* pool, std::size_t n) {
  const unsigned workers = pool != nullptr ? pool->size() : 1;
  const std::size_t cap = n > 0 ? n : 1;
  return static_cast<unsigned>(
      std::min<std::size_t>(workers > 0 ? workers : 1, cap));
}

}  // namespace

void simulate_broadcast_parallel(const net::CsrTopology& csr, net::NodeId src,
                                 ParallelScratch& scratch, double* arrival,
                                 double* ready, runner::ThreadPool* pool) {
  const std::size_t n = csr.size();
  PERIGEE_ASSERT(src < n);
  PERIGEE_TRACE_SPAN_ARGS(parallel_span, "broadcast_parallel",
                          obs::TraceArgs().arg("nodes", n).json());
  const ParallelPlan plan = make_parallel_plan(csr);
  const unsigned members = plan.use_buckets ? team_size(pool, n) : 1;
  scratch.ensure_lanes(members);
  if (plan.use_buckets) {
    delta_step_team(csr, plan, src, scratch, members, arrival, pool);
    PERIGEE_COUNTER_ADD("engine.parallel.sources", 1);
    PERIGEE_HISTOGRAM_OBSERVE("engine.parallel.workers", members);
  } else {
    // The batched engine's heap fallback: identical operation sequence,
    // so the bytes agree with it by construction.
    relax_heap(csr, src, scratch.lane(0).heap, arrival);
  }
  if (ready != nullptr) fill_ready(csr, src, arrival, ready);
  PERIGEE_GAUGE_MAX("mem.parallel_scratch_bytes", scratch.memory_bytes());
}

void simulate_broadcast_parallel(const net::CsrTopology& csr, net::NodeId src,
                                 ParallelScratch& scratch,
                                 BroadcastResult& out,
                                 runner::ThreadPool* pool) {
  out.miner = src;
  out.arrival.resize(csr.size());
  out.ready.resize(csr.size());
  simulate_broadcast_parallel(csr, src, scratch, out.arrival.data(),
                              out.ready.data(), pool);
}

}  // namespace perigee::sim

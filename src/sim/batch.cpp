#include "sim/batch.hpp"

#include <algorithm>
#include <bit>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runner/thread_pool.hpp"
#include "sim/dary_heap.hpp"
#include "util/assert.hpp"
#include "util/prefetch.hpp"
#include "util/stats.hpp"

namespace perigee::sim {

// The false-sharing guard the SoA audit added: a lane must claim whole
// cache lines so no two workers' lane state straddles one.
static_assert(alignof(SourceLane) >= 64,
              "scratch lanes must be cache-line aligned");

namespace {

// Per-batch relaxation plan, derived once from the snapshot's cached delay
// bounds: the u32 fixed-point bucket grid (`BucketQueue::plan_fixed`), whose
// width <= min δ / 2 gives every relaxation a >= 2w key increase, so a
// candidate can never land in the bucket being drained (see
// bucket_queue.hpp). nullopt — degenerate delays (zero/non-finite, an
// edgeless graph) or a key span the u32 grid cannot hold — sends the batch
// to the 4-ary heap.
using BatchPlan = std::optional<BucketQueue::FixedPlan>;

BatchPlan make_plan(const net::CsrTopology& csr) {
  if (csr.num_links() == 0) return std::nullopt;
  const double max_reach = csr.max_delay_ms() + csr.max_validation_ms();
  // Conservative key ceiling: a settled chain is at most n nodes deep and
  // each relaxation adds at most max_reach; doubled for slack.
  const double max_key =
      (static_cast<double>(csr.size()) + 1.0) * max_reach * 2.0;
  return BucketQueue::plan_fixed(csr.min_delay_ms(), max_reach, max_key);
}

// Branchless settled/stale gate: a pop is live iff its key still equals the
// node's arrival (bit compare — both doubles share provenance, and neither
// is NaN) and the node forwards (or mined the block). Collapsing the row to
// empty instead of branching turns the two unpredictable per-pop branches
// into a select the compiler lowers to cmov.
inline bool pop_is_fresh(double t, double arrival_u) {
  return std::bit_cast<std::uint64_t>(t) ==
         std::bit_cast<std::uint64_t>(arrival_u);
}

// One source's bucket-queue Dijkstra relaxation into a caller-provided
// arrival stripe. The inner loop matches the test oracle's heap walk
// (tests/broadcast_oracle.hpp) except for three proven-equal
// transformations:
//  - the per-edge `settled[v]` skip is dropped — a settled v has
//    arrival <= the key being drained, so `cand < arrival[v]` is already
//    false;
//  - the settled flag array itself is dropped — a node's queue entries
//    carry strictly decreasing keys (each push strictly improved arrival),
//    so an entry is the settling one iff its key equals the node's current
//    arrival, and no later entry can match again (post-settle relaxations
//    never improve a settled node);
//  - ready is filled in one pass afterwards (`fill_ready`).
// The Release-mode micro-pass adds three more, all order-preserving (no
// comparison outcome and no store sequence changes, so the byte-parity
// argument is untouched): the stale/forwards gate is evaluated branchlessly
// by collapsing the row to empty, the next pop's row metadata is software-
// prefetched during the current row scan, and the queue buckets by u32
// fixed-point keys (pop order is still exact (key, node) order — see
// bucket_queue.hpp).
// Every fresh pop is a settle, reported to `observer` in pop order; the
// drain stops when the observer asks to. The round shape's
// NoSettleObserver folds the report away, so its loop is unchanged.
template <typename Observer>
void relax_buckets(const net::CsrTopology& csr,
                   const BucketQueue::FixedPlan& plan, BucketQueue& queue,
                   net::NodeId src, double* arrival, Observer& observer) {
  const std::size_t n = csr.size();
  PERIGEE_ASSERT(src < n);
  std::fill_n(arrival, n, util::kInf);
  arrival[src] = 0.0;

  const std::size_t* offsets = csr.offsets();
  const std::size_t* row_ends = csr.row_ends();
  const net::NodeId* peers = csr.peer_data();
  const double* delays = csr.delay_data();

  // Telemetry tallies stay in registers inside the drain loop and flush to
  // the registry once per source — the per-pop cost in telemetry builds is
  // a local increment, and OFF builds compile all of this away.
  PERIGEE_TELEMETRY_ONLY(std::uint64_t tally_pops = 0);
  PERIGEE_TELEMETRY_ONLY(std::uint64_t tally_stale = 0);

  queue.reset(plan);
  queue.push(0.0, src);
  while (!queue.empty()) {
    const BucketQueue::Entry top = queue.pop();
    const double t = top.key;
    const net::NodeId u = top.node;
    // Overlap the next pop's data-dependent loads (its row bounds and
    // arrival slot) with this row's scan; on a bucket boundary peek_next
    // degrades to re-hinting u, which costs nothing.
    const net::NodeId nxt = queue.peek_next(u);
    PERIGEE_PREFETCH(&offsets[nxt]);
    PERIGEE_PREFETCH(&arrival[nxt]);
    PERIGEE_TELEMETRY_ONLY(++tally_pops;)
    // Branchless settle: stale or non-forwarding pops scan an empty row
    // (row_end collapsed onto row_begin) instead of taking a branch the
    // predictor can't learn.
    const bool fresh = pop_is_fresh(t, arrival[u]);
    if (fresh && observer.settle(u, t)) break;
    const bool live = fresh & (csr.forwards(u) | (u == src));
    PERIGEE_TELEMETRY_ONLY(tally_stale += fresh ? 0 : 1;)
    const std::size_t row_begin = offsets[u];
    const std::size_t row_end = live ? row_ends[u] : row_begin;
    const double ready_u = u == src ? 0.0 : t + csr.validation_ms(u);
    for (std::size_t e = row_begin; e < row_end; ++e) {
      if (e + util::kEdgePrefetchDistance < row_end) {
        PERIGEE_PREFETCH(&arrival[peers[e + util::kEdgePrefetchDistance]]);
      }
      const net::NodeId v = peers[e];
      const double cand = ready_u + delays[e];
      if (cand < arrival[v]) {
        arrival[v] = cand;
        queue.push(cand, v);
      }
    }
  }
  PERIGEE_COUNTER_ADD("engine.bucket.sources", 1);
  PERIGEE_COUNTER_ADD("engine.bucket.pops", tally_pops);
  PERIGEE_COUNTER_ADD("engine.bucket.stale_pops", tally_stale);
  PERIGEE_COUNTER_ADD("engine.bucket.empty_skips", queue.empty_skips());
}

// The heap fallback for snapshots no fixed-point bucket plan admits,
// reporting settles like relax_buckets.
template <typename Observer>
void relax_heap(const net::CsrTopology& csr, net::NodeId src,
                std::vector<HeapItem>& heap, double* arrival,
                Observer& observer) {
  const std::size_t n = csr.size();
  PERIGEE_ASSERT(src < n);
  std::fill_n(arrival, n, util::kInf);
  arrival[src] = 0.0;
  const std::size_t* offsets = csr.offsets();
  const std::size_t* row_ends = csr.row_ends();
  const net::NodeId* peers = csr.peer_data();
  const double* delays = csr.delay_data();
  PERIGEE_TELEMETRY_ONLY(std::uint64_t tally_pops = 0);
  PERIGEE_TELEMETRY_ONLY(std::uint64_t tally_stale = 0);
  heap.clear();
  heap_push(heap, {0.0, src});
  while (!heap.empty()) {
    const auto [t, u] = heap_pop(heap);
    PERIGEE_TELEMETRY_ONLY(++tally_pops;)
    // Same branchless settle as the bucket path in solve_one.
    const bool fresh = pop_is_fresh(t, arrival[u]);
    if (fresh && observer.settle(u, t)) break;
    const bool live = fresh & (csr.forwards(u) | (u == src));
    PERIGEE_TELEMETRY_ONLY(tally_stale += fresh ? 0 : 1;)
    const std::size_t row_begin = offsets[u];
    const std::size_t row_end = live ? row_ends[u] : row_begin;
    const double ready_u = u == src ? 0.0 : t + csr.validation_ms(u);
    for (std::size_t e = row_begin; e < row_end; ++e) {
      if (e + util::kEdgePrefetchDistance < row_end) {
        PERIGEE_PREFETCH(&arrival[peers[e + util::kEdgePrefetchDistance]]);
      }
      const net::NodeId v = peers[e];
      const double cand = ready_u + delays[e];
      if (cand < arrival[v]) {
        arrival[v] = cand;
        heap_push(heap, {cand, v});
      }
    }
  }
  PERIGEE_COUNTER_ADD("engine.heap.sources", 1);
  PERIGEE_COUNTER_ADD("engine.heap.pops", tally_pops);
  PERIGEE_COUNTER_ADD("engine.heap.stale_pops", tally_stale);
}

// One source into caller-provided stripes: the bucket relaxation when the
// batch has a plan, the heap fallback otherwise, then the ready fill
// (skipped when the caller only consumes settles).
template <typename Observer>
void solve_one(const net::CsrTopology& csr, const BatchPlan& plan,
               SourceLane& lane, net::NodeId src, double* arrival,
               double* ready, Observer& observer) {
  if (plan.has_value()) {
    relax_buckets(csr, *plan, lane.queue, src, arrival, observer);
  } else {
    relax_heap(csr, src, lane.heap, arrival, observer);
  }
  if (ready != nullptr) fill_ready(csr, src, arrival, ready);
}

// The one source fan-out, for both solvers and both bodies: `count`
// sources across the pool as contiguous per-worker ranges; work(lane, s)
// must write only s-indexed output. Worker count never affects results — it
// only changes which lane's scratch a source borrows.
void dispatch(std::size_t count, MultiSourceScratch& scratch,
              runner::ThreadPool* pool,
              const std::function<void(std::size_t lane, std::size_t s)>&
                  work) {
  std::size_t workers =
      pool != nullptr ? std::min<std::size_t>(pool->size(), count) : 1;
  if (workers == 0) workers = 1;
  scratch.ensure_lanes(workers);
  PERIGEE_COUNTER_ADD("engine.batches", 1);
  PERIGEE_HISTOGRAM_OBSERVE("engine.batch.sources", count);
  // Lane occupancy: how many scratch lanes (== workers) the batch actually
  // spread across. A stuck-at-1 distribution under --jobs N flags a
  // dispatch problem, not a pool problem.
  PERIGEE_HISTOGRAM_OBSERVE("engine.batch.lanes", workers);
  if (workers <= 1) {
    for (std::size_t s = 0; s < count; ++s) work(0, s);
  } else {
    const std::size_t chunk = (count + workers - 1) / workers;
    for (std::size_t w = 0; w < workers; ++w) {
      const std::size_t lo = w * chunk;
      const std::size_t hi = std::min(count, lo + chunk);
      if (lo >= hi) break;
      pool->submit([&work, w, lo, hi] {
        for (std::size_t s = lo; s < hi; ++s) work(w, s);
      });
    }
    pool->wait();
  }
  PERIGEE_GAUGE_MAX("mem.batch_scratch_bytes", scratch.memory_bytes());
}

}  // namespace

void fill_ready(const net::CsrTopology& csr, net::NodeId src,
                const double* arrival, double* ready) {
  const std::size_t n = csr.size();
  for (std::size_t v = 0; v < n; ++v) {
    ready[v] = arrival[v] + csr.validation_ms(static_cast<net::NodeId>(v));
  }
  ready[src] = 0.0;  // the miner does not validate its own block
}

void MultiSourceResult::extract(std::size_t s, BroadcastResult& out) const {
  PERIGEE_ASSERT(s < sources.size());
  out.miner = sources[s];
  const auto a = arrival_of(s);
  const auto r = ready_of(s);
  out.arrival.assign(a.begin(), a.end());
  out.ready.assign(r.begin(), r.end());
}

std::size_t SourceLane::memory_bytes() const {
  return queue.memory_bytes() + heap.capacity() * sizeof(HeapItem) +
         events.capacity() * sizeof(EgressEvent) + settled.capacity() +
         segment.capacity() + edge.capacity() * sizeof(std::uint32_t) +
         (tokens.capacity() + refill_time.capacity() + arrival.capacity() +
          group.capacity()) *
             sizeof(double);
}

void materialize_batch([[maybe_unused]] const char* span,
                       const net::CsrTopology& csr,
                       std::span<const net::NodeId> sources,
                       MultiSourceScratch& scratch, MultiSourceResult& out,
                       runner::ThreadPool* pool, const SourceSolver& solve) {
  const std::size_t n = csr.size();
  PERIGEE_TRACE_SPAN_ARGS(batch_span, span,
                          obs::TraceArgs()
                              .arg("sources", sources.size())
                              .arg("nodes", n)
                              .json());
  out.prepare(n, sources);
  dispatch(sources.size(), scratch, pool,
           [&](std::size_t lane_idx, std::size_t s) {
             solve(scratch.lane(lane_idx), sources[s], out.arrival_data(s),
                   out.ready_data(s));
           });
}

void observe_batch(const net::CsrTopology& csr,
                   std::span<const net::NodeId> sources,
                   MultiSourceScratch& scratch,
                   const CoverageTargets& targets, CoverageTimes& times,
                   runner::ThreadPool* pool, const ObservedSolver& solve) {
  const std::size_t n = csr.size();
  times.assign(targets.size(), std::vector<double>(sources.size()));
  dispatch(sources.size(), scratch, pool,
           [&](std::size_t lane_idx, std::size_t s) {
             SourceLane& lane = scratch.lane(lane_idx);
             lane.arrival.resize(n);
             CoverageObserver observer(targets, lane.group, times, s);
             solve(lane, sources[s], lane.arrival.data(), observer);
             observer.finish();
           });
}

void simulate_broadcast_batch(const net::CsrTopology& csr,
                              std::span<const net::NodeId> sources,
                              MultiSourceScratch& scratch,
                              MultiSourceResult& out,
                              runner::ThreadPool* pool) {
  const BatchPlan plan = make_plan(csr);
  materialize_batch("broadcast_batch", csr, sources, scratch, out, pool,
                    [&](SourceLane& lane, net::NodeId src, double* arrival,
                        double* ready) {
                      NoSettleObserver all;
                      solve_one(csr, plan, lane, src, arrival, ready, all);
                    });
}

void coverage_batch(const net::CsrTopology& csr,
                    std::span<const net::NodeId> sources,
                    MultiSourceScratch& scratch,
                    const CoverageTargets& targets, CoverageTimes& times,
                    runner::ThreadPool* pool) {
  const BatchPlan plan = make_plan(csr);
  observe_batch(csr, sources, scratch, targets, times, pool,
                [&](SourceLane& lane, net::NodeId src, double* arrival,
                    CoverageObserver& observer) {
                  solve_one(csr, plan, lane, src, arrival, nullptr, observer);
                });
}

}  // namespace perigee::sim

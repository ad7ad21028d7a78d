#include "sim/batch.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runner/thread_pool.hpp"
#include "sim/dary_heap.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace perigee::sim {

// The false-sharing guard the SoA audit added: a lane must claim whole
// cache lines so no two workers' lane state straddles one.
static_assert(alignof(SourceLane) >= 64,
              "scratch lanes must be cache-line aligned");

namespace {

// Per-batch relaxation plan, derived once from the snapshot's cached delay
// bounds: the u32 fixed-point bucket grid (`BucketQueue::plan_fixed`). Its
// width must stay within the delta-stepping ceiling (<= min δ / 2): then
// every relaxation lands at least one bucket past the one being drained,
// which is what lets `relax_buckets` settle a bucket as a whole. nullopt —
// a zero δ, an edgeless graph, a key span the u32 grid cannot hold, or a
// δ span so wide the ring budget pushed the width past the ceiling — sends
// the batch to the 4-ary heap. Both are Dijkstra, exact only when no
// relaxation lowers a key below the one being settled, so a snapshot
// `require_causal_delays` refuses is never relaxed: a negative Δv breaks
// the bucket grid's reach bound, and a negative δ can loop the heap
// forever.
using BatchPlan = std::optional<BucketQueueBase::FixedPlan>;

BatchPlan make_plan(const net::CsrTopology& csr) {
  require_causal_delays(csr);
  if (csr.num_links() == 0) return std::nullopt;
  const double max_reach = csr.max_delay_ms() + csr.max_validation_ms();
  // Conservative key ceiling: a settled chain is at most n nodes deep and
  // each relaxation adds at most max_reach; doubled for slack.
  const double max_key =
      (static_cast<double>(csr.size()) + 1.0) * max_reach * 2.0;
  BatchPlan plan = BucketQueueBase::plan_fixed(csr.min_delay_ms(), max_reach,
                                               max_key);
  if (plan.has_value() && !plan->within_ceiling()) return std::nullopt;
  return plan;
}

// A queue entry is current iff its key still equals the node's arrival (bit
// compare — both doubles share provenance, and neither is NaN). A node's
// entries carry strictly decreasing keys (each push strictly improved its
// arrival), so only its last entry can be current, and once it settles no
// later relaxation improves it: the current entry is the settling one, and
// every other entry is stale.
inline bool is_current(double key, double arrival_v) {
  return std::bit_cast<std::uint64_t>(key) ==
         std::bit_cast<std::uint64_t>(arrival_v);
}

// Relaxes the row of `u`, ready at `ready_u`, into `arrival`, then calls
// push(cand, v) for every neighbour it improved, in row order. The scan has
// no data-dependent branch: each edge stores min(cand, arrival[v]) and
// appends its index to `improved`, whose end advances only when the
// candidate won. A row holds each neighbour once, so these are exactly the
// pushes of the textbook `if (cand < arrival[v])` loop, in its order, and
// the recomputed candidate is the same sum. `improved` grows to the longest
// row once per lane.
template <typename Push>
inline void relax_row(const net::CsrTopology& csr, net::NodeId u,
                      double ready_u, double* arrival,
                      std::vector<std::uint32_t>& improved, Push&& push) {
  const std::size_t begin = csr.offsets()[u];
  const std::size_t len = csr.row_ends()[u] - begin;
  const net::NodeId* peers = csr.peer_data() + begin;
  const double* delays = csr.delay_data() + begin;
  if (improved.size() < len) improved.resize(len);
  std::uint32_t* out = improved.data();
  std::size_t count = 0;
  for (std::size_t i = 0; i < len; ++i) {
    const net::NodeId v = peers[i];
    const double cand = ready_u + delays[i];
    const double cur = arrival[v];
    const bool better = cand < cur;
    arrival[v] = better ? cand : cur;
    out[count] = static_cast<std::uint32_t>(i);
    count += better ? 1 : 0;
  }
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint32_t i = out[k];
    push(ready_u + delays[i], peers[i]);
  }
}

// Whether a settled node relays the block: a withholder relays only what
// it mined. And the time it relays from: the miner skips validation.
inline bool relays(const net::CsrTopology& csr, net::NodeId u,
                   net::NodeId src) {
  return csr.forwards(u) || u == src;
}
inline double ready_of(const net::CsrTopology& csr, net::NodeId u,
                       net::NodeId src, double arrival_u) {
  return u == src ? 0.0 : arrival_u + csr.validation_ms(u);
}

// One source's bucket-synchronous Dijkstra relaxation into a caller-provided
// arrival stripe. It settles nodes in exactly the test oracle's heap order
// (tests/broadcast_oracle.hpp), with these proven-equal transformations:
//  - the per-edge `settled[v]` skip is dropped — a settled v has
//    arrival <= the key being drained, so `cand < arrival[v]` is already
//    false;
//  - the settled flag array is dropped — an entry settles iff it is
//    current (`is_current`);
//  - the queue buckets by u32 fixed-point keys, and the walk takes one
//    whole bucket at a time (`take_bucket`). Under the plan's ceiling no
//    relaxation from an entry lands in its own bucket, so an entry's
//    current/stale state cannot change while its bucket is drained: the
//    stale ones are dropped at once, and the current ones, sorted into
//    (qkey, key bits, node) order, are the per-pop settle sequence;
//  - rows are scanned branch-free (`relax_row`);
//  - ready is filled in one pass afterwards (`fill_ready`).
// Every settle is reported to `observer` in that order; the drain stops
// when the observer asks to. The round shape's NoSettleObserver folds the
// report away.
template <typename Observer>
void relax_buckets(const net::CsrTopology& csr,
                   const BucketQueueBase::FixedPlan& plan, SourceLane& lane,
                   net::NodeId src, double* arrival, Observer& observer) {
  const std::size_t n = csr.size();
  PERIGEE_ASSERT(src < n);
  std::fill_n(arrival, n, util::kInf);
  arrival[src] = 0.0;

  // Telemetry tallies stay in registers inside the drain loop and flush to
  // the registry once per source — the per-bucket cost in telemetry builds
  // is a local add, and OFF builds compile all of this away.
  PERIGEE_TELEMETRY_ONLY(std::uint64_t tally_pops = 0);
  PERIGEE_TELEMETRY_ONLY(std::uint64_t tally_stale = 0);

  BucketQueue<RelaxEntry>& queue = lane.queue;
  std::vector<RelaxEntry>& taken = lane.taken;
  const auto push = [&queue](double key, net::NodeId v) {
    queue.push(key, v);
  };
  queue.reset(plan);
  queue.push(0.0, src);
  bool stop = false;
  while (!stop && !queue.empty()) {
    queue.take_bucket(taken);
    RelaxEntry* entries = taken.data();
    std::size_t fresh = 0;
    for (std::size_t i = 0; i < taken.size(); ++i) {
      const RelaxEntry e = entries[i];
      entries[fresh] = e;
      fresh += is_current(e.key, arrival[e.node]) ? 1 : 0;
    }
    PERIGEE_TELEMETRY_ONLY(tally_pops += taken.size();)
    PERIGEE_TELEMETRY_ONLY(tally_stale += taken.size() - fresh;)
    BucketQueue<RelaxEntry>::sort_pop_order(entries, fresh);
    for (std::size_t i = 0; i < fresh; ++i) {
      const double t = entries[i].key;
      const net::NodeId u = entries[i].node;
      if (observer.settle(u, t)) {
        stop = true;
        break;
      }
      if (!relays(csr, u, src)) continue;
      relax_row(csr, u, ready_of(csr, u, src, t), arrival, lane.improved,
                push);
    }
  }
  PERIGEE_COUNTER_ADD("engine.bucket.sources", 1);
  PERIGEE_COUNTER_ADD("engine.bucket.pops", tally_pops);
  PERIGEE_COUNTER_ADD("engine.bucket.stale_pops", tally_stale);
  PERIGEE_COUNTER_ADD("engine.bucket.empty_skips", queue.empty_skips());
}

// The heap fallback for snapshots no bucket plan within the ceiling admits:
// one pop at a time, the same row scan, settles reported like
// relax_buckets.
template <typename Observer>
void relax_heap(const net::CsrTopology& csr, net::NodeId src,
                SourceLane& lane, double* arrival, Observer& observer) {
  const std::size_t n = csr.size();
  PERIGEE_ASSERT(src < n);
  std::fill_n(arrival, n, util::kInf);
  arrival[src] = 0.0;
  PERIGEE_TELEMETRY_ONLY(std::uint64_t tally_pops = 0);
  PERIGEE_TELEMETRY_ONLY(std::uint64_t tally_stale = 0);
  std::vector<HeapItem>& heap = lane.heap;
  const auto push = [&heap](double key, net::NodeId v) {
    heap_push(heap, {key, v});
  };
  heap.clear();
  heap_push(heap, {0.0, src});
  while (!heap.empty()) {
    const auto [t, u] = heap_pop(heap);
    PERIGEE_TELEMETRY_ONLY(++tally_pops;)
    if (!is_current(t, arrival[u])) {
      PERIGEE_TELEMETRY_ONLY(++tally_stale;)
      continue;
    }
    if (observer.settle(u, t)) break;
    if (!relays(csr, u, src)) continue;
    relax_row(csr, u, ready_of(csr, u, src, t), arrival, lane.improved, push);
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
    relax_buckets(csr, *plan, lane, src, arrival, observer);
  } else {
    relax_heap(csr, src, lane, arrival, observer);
  }
  if (ready != nullptr) fill_ready(csr, src, arrival, ready);
}

// The announce solver's plan: the bucket grid of its INV keys, sized by the
// control δ bounds, which the snapshot does not cache (one pass over its
// rows, once per batch). An INV lands at least one control δ after the pop
// that sends it (the miner's own INVs) and at most control + δ + Δv +
// control after it (a node's GETDATA, its block, its validation and its
// INV onward); the key ceiling doubles n such reaches, like make_plan's.
// nullopt — a zero control δ, an edgeless graph, a span the u32 grid cannot
// hold — sends the batch to the heap. A negative or non-finite control δ is
// refused like the bounds `require_causal_delays` checks.
BatchPlan make_announce_plan(const net::CsrTopology& csr) {
  require_causal_delays(csr);
  double lo = util::kInf;
  double hi = 0.0;
  for (net::NodeId v = 0; v < csr.size(); ++v) {
    for (const double control : csr.control_delays(v)) {
      if (!(control >= 0.0 && control < util::kInf)) {
        throw std::invalid_argument(
            "broadcast solvers need finite, nonnegative control delays");
      }
      lo = std::min(lo, control);
      hi = std::max(hi, control);
    }
  }
  if (csr.num_links() == 0) return std::nullopt;
  const double max_reach =
      2.0 * hi + csr.max_delay_ms() + csr.max_validation_ms();
  const double max_key =
      (static_cast<double>(csr.size()) + 1.0) * max_reach * 2.0;
  return BucketQueueBase::plan_fixed(lo, max_reach, max_key);
}

// The announce solver's heap fallback behind the bucket queue's interface.
class InvHeap {
 public:
  explicit InvHeap(std::vector<AnnounceEntry>& heap) : heap_(heap) {
    heap_.clear();
  }
  void push(double key, net::NodeId node, net::NodeId announcer) {
    heap_push(heap_, {key, 0, node, announcer});
  }
  AnnounceEntry pop() { return heap_pop(heap_); }
  bool empty() const { return heap_.empty(); }

 private:
  std::vector<AnnounceEntry>& heap_;
};

// One source of the announce solver (see simulate_announce_batch) over
// `invs`, a bucket queue or the heap: both pop INVs in (time, to, from)
// order, so a node's first pop is its first INV and every later one is
// stale. `first` holds F, the earliest INV known per node; an INV later than
// that can never be a node's first and is not queued. Every INV is queued
// at or after the pop that sends it (R(v) >= F(v)), so the queue is
// monotone. The two sums per settle are the reference's, in its order.
template <typename Invs>
void relax_announces(const net::CsrTopology& csr, Invs& invs,
                     net::NodeId src, double* arrival, double* first) {
  const std::size_t n = csr.size();
  PERIGEE_ASSERT(src < n);
  std::fill_n(arrival, n, util::kInf);
  std::fill_n(first, n, util::kInf);
  const auto announce = [&](net::NodeId u, double relay) {
    const auto peers = csr.peers(u);
    const auto controls = csr.control_delays(u);
    for (std::size_t i = 0; i < peers.size(); ++i) {
      const double t = relay + controls[i];
      if (t <= first[peers[i]]) {
        first[peers[i]] = t;
        invs.push(t, peers[i], u);
      }
    }
  };
  // The miner holds its block at 0 and announces at once, withholding or
  // not.
  arrival[src] = 0.0;
  first[src] = 0.0;
  announce(src, 0.0);
  while (!invs.empty()) {
    const AnnounceEntry inv = invs.pop();
    const net::NodeId v = inv.node;
    if (!std::isinf(arrival[v])) continue;  // v already requested the block
    const net::NodeId u = inv.announcer;
    arrival[v] = inv.key + csr.control_delay(v, u) + csr.block_delay(u, v);
    if (csr.forwards(v)) announce(v, arrival[v] + csr.validation_ms(v));
  }
}

// The one source fan-out, for every solver and both bodies: `count`
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
  return queue.memory_bytes() + taken.capacity() * sizeof(RelaxEntry) +
         improved.capacity() * sizeof(std::uint32_t) +
         heap.capacity() * sizeof(HeapItem) + events.memory_bytes() +
         event_heap.capacity() * sizeof(EgressEvent) + invs.memory_bytes() +
         inv_heap.capacity() * sizeof(AnnounceEntry) + settled.capacity() +
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

void require_causal_delays(const net::CsrTopology& csr) {
  if (!(csr.min_validation_ms() >= 0.0) ||
      !std::isfinite(csr.max_validation_ms())) {
    throw std::invalid_argument(
        "broadcast solvers need finite, nonnegative validation delays");
  }
  if (csr.num_links() > 0 &&
      (!(csr.min_delay_ms() >= 0.0) || !std::isfinite(csr.max_delay_ms()))) {
    throw std::invalid_argument(
        "broadcast solvers need finite, nonnegative link delays");
  }
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

void simulate_announce_batch(const net::CsrTopology& csr,
                             std::span<const net::NodeId> sources,
                             MultiSourceScratch& scratch,
                             MultiSourceResult& out,
                             runner::ThreadPool* pool) {
  const BatchPlan plan = make_announce_plan(csr);
  materialize_batch("announce_batch", csr, sources, scratch, out, pool,
                    [&](SourceLane& lane, net::NodeId src, double* arrival,
                        double* ready) {
                      // `ready` holds F until fill_ready replaces it.
                      if (plan.has_value()) {
                        lane.invs.reset(*plan);
                        relax_announces(csr, lane.invs, src, arrival, ready);
                      } else {
                        InvHeap heap(lane.inv_heap);
                        relax_announces(csr, heap, src, arrival, ready);
                      }
                      fill_ready(csr, src, arrival, ready);
                    });
}

}  // namespace perigee::sim

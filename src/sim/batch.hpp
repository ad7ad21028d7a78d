/// \file
/// \brief The batch driver: broadcasts from every source of a batch over
/// one compiled snapshot, with the delay, the egress or the announce solver.
///
/// The round loop broadcasts |B| blocks over one `net::CsrTopology`
/// snapshot and the λ metric broadcasts from every node: both are batches.
/// This file holds the one driver they run through — one lane arena
/// (`MultiSourceScratch`), one source fan-out, a materializing body
/// (`materialize_batch`, the round shape) and an observing body
/// (`observe_batch`, the λ shape: each source's settles feed a
/// `CoverageObserver`, sim/coverage.hpp, and the relaxation stops at the
/// highest requested coverage, so its pop and event counters stay below a
/// full drain's) — plus two of the three solvers: the delay solver and the
/// announce solver (`simulate_announce_batch`, the INV→GETDATA→BLOCK relay
/// of the paper's footnote 3, round shape only). The egress solver lives in
/// sim/egress.hpp, and `sim::Relaxer` (sim/relaxer.hpp) picks between the
/// three. One source is a batch of one (a one-element span, then
/// `MultiSourceResult::extract` for a `BroadcastResult`). What makes the
/// delay path fast:
///
///  - arrival/ready outputs are laid out SoA, one contiguous per-source
///    stripe of an arena each (`MultiSourceResult`), so a batch performs two
///    allocations total instead of 2·|sources|;
///  - the per-source relaxation runs a monotone `BucketQueue` over u32
///    fixed-point keys, its grid derived from the snapshot's delay bounds
///    (`BucketQueue::plan_fixed`), and drains it a whole bucket at a time
///    (`BucketQueue::take_bucket`): the bucket width stays <= min δ / 2, so
///    no relaxation lands in the bucket being drained, its stale entries
///    are dropped before the sort, and the rest settle in exact (key, node)
///    order; snapshots no such grid fits — a zero-latency infra edge, an
///    edgeless topology, a key span too wide for u32, a δ span that widens
///    the bucket past the ceiling — take the batch to a 4-ary heap fallback
///    (`relax_heap`, private to batch.cpp);
///  - rows are scanned without a per-edge branch: each edge stores
///    min(candidate, arrival) and appends its index to a lane buffer whose
///    end advances only on an improvement, and the improved edges are
///    pushed afterwards in row order;
///  - the ready vector is filled in one vectorizable pass after the
///    relaxation (`ready[v] = arrival[v] + Δv`), which is bit-identical to
///    the test oracle's per-relaxation stores because the last value it
///    stores is exactly final-arrival + Δv;
///  - sources fan out across an optional `runner::ThreadPool`: each worker
///    owns one lane, every source writes its pre-assigned stripe, and
///    results are therefore byte-identical at any worker count — the same
///    determinism contract as the sweep runner.
///
/// Outputs are byte-for-byte identical to the test oracles
/// (`tests/broadcast_oracle.hpp`); `tests/sim_engine_diff_test.cpp` holds
/// every solver, pooled or inline, to them across every scenario regime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "net/csr.hpp"
#include "net/types.hpp"
#include "sim/broadcast.hpp"
#include "sim/bucket_queue.hpp"
#include "sim/coverage.hpp"
#include "sim/dary_heap.hpp"
#include "util/aligned.hpp"
#include "util/assert.hpp"

namespace perigee::runner {
class ThreadPool;
}  // namespace perigee::runner

namespace perigee::sim {

/// SoA outcome of one batch: per-source stripes of two shared arenas.
/// Stripe `s` of each arena holds what `BroadcastResult::arrival` / `ready`
/// would for `sources[s]`. Stripes are padded to a whole cache line
/// (`stride()` doubles apart, >= nodes) and the arenas themselves are
/// line-aligned (util::AlignedDoubles) — both halves are needed for two
/// pool workers writing adjacent stripes to never false-share the line
/// straddling their boundary. The pad tail is never read (every accessor
/// spans exactly `nodes`).
struct MultiSourceResult {
  /// Doubles per cache line — the stripe padding quantum.
  static constexpr std::size_t kLineDoubles = 64 / sizeof(double);

  std::size_t nodes = 0;               ///< stripe length (without padding)
  std::vector<net::NodeId> sources;    ///< batch echo, stripe index -> source
  util::AlignedDoubles arrival;        ///< sources.size() stripes of stride()
  util::AlignedDoubles ready;          ///< sources.size() stripes of stride()

  /// `nodes` rounded up to a whole cache line of doubles.
  static std::size_t stride_for(std::size_t nodes) {
    return (nodes + (kLineDoubles - 1)) & ~(kLineDoubles - 1);
  }
  /// Doubles between consecutive stripes' starts in each arena.
  std::size_t stride() const { return stride_for(nodes); }

  /// Sets the batch shape and sizes both arenas (`sources × stride()`).
  /// The engines call this before fanning out stripe writers.
  void prepare(std::size_t node_count, std::span<const net::NodeId> srcs) {
    nodes = node_count;
    sources.assign(srcs.begin(), srcs.end());
    arrival.resize(sources.size() * stride());
    ready.resize(sources.size() * stride());
  }

  /// Mutable start of stripe `s` (engine writers only).
  double* arrival_data(std::size_t s) { return arrival.data() + s * stride(); }
  double* ready_data(std::size_t s) { return ready.data() + s * stride(); }

  /// Arrival stripe of batch entry `s`.
  std::span<const double> arrival_of(std::size_t s) const {
    return {arrival.data() + s * stride(), nodes};
  }
  /// Ready stripe of batch entry `s`.
  std::span<const double> ready_of(std::size_t s) const {
    return {ready.data() + s * stride(), nodes};
  }
  /// Copies stripe `s` into the single-source result shape (block hooks,
  /// tests). `out`'s vectors are reused.
  void extract(std::size_t s, BroadcastResult& out) const;
};

/// One discrete event of the egress solver (sim/egress.hpp), an entry of
/// its `BucketQueue` (or of the 4-ary heap fallback, which ignores `qkey`).
/// Events pop in (time, seq) order: equal times break FIFO by `seq`, the
/// monotone schedule counter, which is that solver's deterministic
/// tie-break rule (docs/TRANSMISSION_MODEL.md). The bucket queue orders the
/// same pairs as (qkey, time bits, seq). `seq` is 32 bits: a source
/// schedules at most n + 1 + 3·num_links events, which the egress batch
/// asserts fits. Declared here because the lanes store them.
struct EgressEvent {
  double key = 0.0;          ///< event time, ms
  std::uint32_t qkey = 0;    ///< fixed-point image of `key` (bucket queue)
  net::NodeId node = 0;      ///< subject node
  std::uint32_t seq = 0;     ///< monotone schedule order, breaks time ties
  std::uint8_t kind = 0;     ///< event kind, private to sim/egress.cpp
  std::uint32_t tie() const { return seq; }
  bool operator<(const EgressEvent& other) const {
    if (key != other.key) return key < other.key;
    return seq < other.seq;
  }
};

/// One INV of the announce solver, an entry of its `BucketQueue` (or of the
/// 4-ary heap fallback, which ignores `qkey`): `announcer` tells `node` at
/// time `key` that it holds the block. INVs pop in (time, to, from) order,
/// the message-level reference's, so the first INV a node pops is its
/// earliest, from the smaller announcer on a tie.
struct AnnounceEntry {
  double key = 0.0;           ///< INV arrival time, ms
  std::uint32_t qkey = 0;     ///< fixed-point image of `key` (bucket queue)
  net::NodeId node = 0;       ///< the node told
  net::NodeId announcer = 0;  ///< the node telling
  std::uint64_t tie() const {
    return std::uint64_t{node} << 32 | announcer;
  }
  bool operator<(const AnnounceEntry& other) const {
    if (key != other.key) return key < other.key;
    return tie() < other.tie();
  }
};

/// Per-worker scratch of the batch driver, one type for all solvers: each
/// solver's bucket queue and 4-ary heap fallback, the egress solver's
/// per-sender scheduler state, and the observing body's arrival stripe and
/// coverage group. Each field is sized by the solver that uses it, so a
/// delay-only run never grows the egress or announce fields. (No settled array for the
/// delay solver: it detects stale queue entries by comparing an entry's key
/// against the node's current arrival instead.)
///
/// alignas(64): each lane object starts on its own cache line, so the hot
/// scalar state of two workers' lanes (queue cursors, vector headers) never
/// shares one — the vectors' heap blocks are naturally distinct already.
/// `tests/sim_batch_layout_test.cpp` guards both this and the stripe
/// padding above against regression.
struct alignas(64) SourceLane {
  BucketQueue<RelaxEntry> queue;      ///< delay: fast-path relaxation queue
  std::vector<RelaxEntry> taken;      ///< delay: the bucket being settled
  std::vector<std::uint32_t> improved;  ///< delay: a row's improved edges
  std::vector<HeapItem> heap;         ///< delay: fallback 4-ary heap storage
  BucketQueue<EgressEvent> events;    ///< egress: (time, seq) event queue
  std::vector<EgressEvent> event_heap;  ///< egress: fallback 4-ary heap
  std::vector<std::uint8_t> settled;  ///< egress: per-node "holds the block"
  std::vector<std::uint8_t> segment;  ///< egress: per-sender dequeue segment
  std::vector<std::uint32_t> edge;    ///< egress: per-sender CSR row index
  std::vector<double> tokens;         ///< egress: per-sender bucket fill
  std::vector<double> refill_time;    ///< egress: per-sender last refill, ms
  BucketQueue<AnnounceEntry> invs;    ///< announce: (time, to, from) INVs
  std::vector<AnnounceEntry> inv_heap;  ///< announce: fallback 4-ary heap
  std::vector<double> arrival;        ///< λ: the observed source's stripe
  std::vector<double> group;          ///< λ: `CoverageObserver`'s open group

  /// Heap bytes held by this lane.
  std::size_t memory_bytes() const;
};

/// The batch driver's lane arena, shared by all solvers: one `SourceLane`
/// per worker. Lanes are grown on demand and survive across batches, so a
/// sweep cell running thousands of rounds performs no steady-state
/// allocation; each lane is its own heap block, so a lane reference stays
/// valid while the arena grows. Not thread-safe to share across concurrent
/// *batches*; within one batch each worker owns one lane. Reported through
/// the `mem.batch_scratch_bytes` obs gauge after each batch (memory-budget
/// accounting next to `mem.csr_bytes`).
class MultiSourceScratch {
 public:
  /// Lane `i`; `i` must be below `lanes()`.
  SourceLane& lane(std::size_t i) {
    PERIGEE_ASSERT(i < lanes_.size());
    return *lanes_[i];
  }
  /// Lanes currently allocated.
  std::size_t lanes() const { return lanes_.size(); }
  /// Grows the arena to at least `count` lanes.
  void ensure_lanes(std::size_t count) {
    while (lanes_.size() < count) {
      lanes_.push_back(std::make_unique<SourceLane>());
    }
  }
  /// Heap bytes across all lanes.
  std::size_t memory_bytes() const {
    std::size_t bytes = 0;
    for (const auto& lane : lanes_) bytes += lane->memory_bytes();
    return bytes;
  }

 private:
  std::vector<std::unique_ptr<SourceLane>> lanes_;
};

/// Fills `ready` from final arrivals in one pass: `ready[v] = arrival[v] +
/// Δv`, `ready[src] = 0`. Bit-identical to the test oracle's
/// per-relaxation stores, because the last value they store is exactly
/// final-arrival + Δv (and +inf + Δv == +inf keeps unreached nodes exact).
void fill_ready(const net::CsrTopology& csr, net::NodeId src,
                const double* arrival, double* ready);

/// Throws std::invalid_argument when the snapshot's cached bounds admit a
/// negative or non-finite δ or Δv. Every solver needs event times that never
/// run backwards (a relay must not be ready before its block arrives), so
/// their batch entry points call this once, before any work.
void require_causal_delays(const net::CsrTopology& csr);

/// One source's relaxation into caller-provided stripes of `csr.size()`
/// doubles, using `lane`'s scratch. This is the only engine-specific code
/// under the materializing body; there are three: the delay solver behind
/// `simulate_broadcast_batch`, the announce solver behind
/// `simulate_announce_batch` and the egress solver behind
/// `simulate_broadcast_egress_batch` (sim/egress.hpp).
using SourceSolver = std::function<void(SourceLane& lane, net::NodeId src,
                                        double* arrival, double* ready)>;

/// The same solver in the λ shape: relaxes `src` in the `csr.size()`-double
/// `arrival` scratch stripe, reporting each settle to `observer` in pop
/// order and stopping as soon as it asks to. The stripe holds no final
/// arrivals afterwards, and no ready fill runs.
using ObservedSolver =
    std::function<void(SourceLane& lane, net::NodeId src, double* arrival,
                       CoverageObserver& observer)>;

/// The driver's materializing body: sizes `out` for the batch and runs
/// `solve` for every entry of `sources` into its stripes, under a trace span
/// named `span`. With a pool, sources are partitioned into contiguous
/// per-worker ranges, each worker borrowing one lane of `scratch`; without
/// one the batch runs inline. Worker count never changes a byte.
void materialize_batch(const char* span, const net::CsrTopology& csr,
                       std::span<const net::NodeId> sources,
                       MultiSourceScratch& scratch, MultiSourceResult& out,
                       runner::ThreadPool* pool, const SourceSolver& solve);

/// The driver's observing body (the λ shape): the same fan-out as
/// `materialize_batch`, but each source relaxes in its lane's arrival
/// stripe under a `CoverageObserver` writing slot `s` of every vector of
/// `times`, which is sized here (one per coverage of `targets`, input
/// order, one slot per batch entry). Nothing O(n) per source is kept, and
/// each relaxation stops at the highest coverage.
void observe_batch(const net::CsrTopology& csr,
                   std::span<const net::NodeId> sources,
                   MultiSourceScratch& scratch,
                   const CoverageTargets& targets, CoverageTimes& times,
                   runner::ThreadPool* pool, const ObservedSolver& solve);

/// Simulates a broadcast from every entry of `sources` over one compiled
/// snapshot with the delay solver, materializing all stripes (the round
/// loop's shape: |B| miners, observation recording wants every result at
/// once). Byte-identical to the test oracle, source by source, at any
/// worker count; a one-element span is the single-source path. Throws
/// std::invalid_argument, before any work, for a snapshot with a negative or
/// non-finite δ or Δv bound, which no Dijkstra relaxation can solve.
void simulate_broadcast_batch(const net::CsrTopology& csr,
                              std::span<const net::NodeId> sources,
                              MultiSourceScratch& scratch,
                              MultiSourceResult& out,
                              runner::ThreadPool* pool = nullptr);

/// λ shape of the delay solver: every entry of `sources` relaxed until the
/// highest coverage of `targets` is reached (see `observe_batch`). Each λ
/// is bit-equal to `metrics::lambda_for_broadcast` on the full broadcast,
/// at any worker count. Refuses the snapshots `simulate_broadcast_batch`
/// refuses, with the same exception.
void coverage_batch(const net::CsrTopology& csr,
                    std::span<const net::NodeId> sources,
                    MultiSourceScratch& scratch,
                    const CoverageTargets& targets, CoverageTimes& times,
                    runner::ThreadPool* pool = nullptr);

/// The announce solver: the message-level relay (paper §1.1.2, footnote 3)
/// from every entry of `sources`, in the round shape. A holder announces
/// the block to every neighbor (an INV, one control δ); a node requests it
/// from its first announcer u* (a GETDATA back, one control δ) and gets it
/// one block δ later. Under unlimited bandwidth that is a settle order:
///
///   F(v)       = min over announcers u of R(u) + control(u, v)
///   arrival(v) = F(v) + control(v, u*) + block(u*, v)
///   R(v)       = arrival(v) + Δv,   R(miner) = 0
///
/// where u* is the smallest announcer whose INV lands at F(v); a withholder
/// announces nothing, a withholding miner its own block. The stripes are the
/// round shape's: `arrival`, and `ready` as `fill_ready` defines it, which is
/// R for every node that announces. Byte-identical to the message-level
/// reference (`oracle::gossip_reference`, tests/broadcast_oracle.hpp)
/// whenever no zero-Δv node has a zero-control link, at any worker count.
/// Refuses what `simulate_broadcast_batch` refuses, and a negative or
/// non-finite control δ, with the same exception.
void simulate_announce_batch(const net::CsrTopology& csr,
                             std::span<const net::NodeId> sources,
                             MultiSourceScratch& scratch,
                             MultiSourceResult& out,
                             runner::ThreadPool* pool = nullptr);

}  // namespace perigee::sim

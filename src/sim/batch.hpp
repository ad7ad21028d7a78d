/// \file
/// \brief The batch driver: broadcasts from every source of a batch over
/// one compiled snapshot, with the delay solver or the egress solver.
///
/// The round loop broadcasts |B| blocks over one `net::CsrTopology`
/// snapshot and the λ metric broadcasts from every node: both are batches.
/// This file holds the one driver they run through — one lane arena
/// (`MultiSourceScratch`), one source fan-out, a materializing body
/// (`materialize_batch`, the round shape) and an observing body
/// (`observe_batch`, the λ shape: each source's settles feed a
/// `CoverageObserver`, sim/coverage.hpp, and the relaxation stops at the
/// highest requested coverage, so its pop and event counters stay below a
/// full drain's) — plus the delay solver. The egress solver
/// lives in sim/egress.hpp, and `sim::Relaxer` (sim/relaxer.hpp) picks
/// between the two. One source is a batch of one (a one-element span, then
/// `MultiSourceResult::extract` for a `BroadcastResult`). What makes the
/// delay path fast:
///
///  - arrival/ready outputs are laid out SoA, one contiguous per-source
///    stripe of an arena each (`MultiSourceResult`), so a batch performs two
///    allocations total instead of 2·|sources|;
///  - the per-source relaxation runs a monotone `BucketQueue` over u32
///    fixed-point keys, its grid derived from the snapshot's delay bounds
///    (`BucketQueue::plan_fixed`); snapshots no grid fits — a zero-latency
///    infra edge, an edgeless topology, a key span too wide for u32 — take
///    the batch to a 4-ary heap fallback (`relax_heap`, private to
///    batch.cpp);
///  - the ready vector is filled in one vectorizable pass after the
///    relaxation (`ready[v] = arrival[v] + Δv`), which is bit-identical to
///    the test oracle's per-relaxation stores because the last value it
///    stores is exactly final-arrival + Δv;
///  - sources fan out across an optional `runner::ThreadPool`: each worker
///    owns one lane, every source writes its pre-assigned stripe, and
///    results are therefore byte-identical at any worker count — the same
///    determinism contract as the sweep runner.
///
/// Outputs are byte-for-byte identical to the Topology-walking test oracle
/// (`tests/broadcast_oracle.hpp`); `tests/sim_engine_diff_test.cpp` holds
/// both solvers, pooled or inline, to that across every scenario regime.
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

/// One discrete event of the egress solver (sim/egress.hpp): (time,
/// schedule sequence) orders its heap — equal times break FIFO by `seq`,
/// which is that solver's deterministic tie-break rule (documented in
/// docs/TRANSMISSION_MODEL.md). Declared here because the lanes store them.
struct EgressEvent {
  double time = 0.0;       ///< event timestamp, ms
  std::uint64_t seq = 0;   ///< monotone schedule order, breaks time ties
  net::NodeId node = 0;    ///< subject node
  std::uint8_t kind = 0;   ///< event kind, private to sim/egress.cpp
  bool operator<(const EgressEvent& other) const {
    if (time != other.time) return time < other.time;
    return seq < other.seq;
  }
};

/// Per-worker scratch of the batch driver, one type for both solvers: the
/// delay solver's bucket queue and heap fallback, the egress solver's event
/// heap and per-sender scheduler state, and the observing body's arrival
/// stripe and coverage group. Each field is sized by the
/// solver that uses it, so a delay-only run never grows the egress fields.
/// (No settled array for the delay solver: it detects stale queue entries by
/// comparing the popped key against the node's current arrival instead.)
///
/// alignas(64): each lane object starts on its own cache line, so the hot
/// scalar state of two workers' lanes (queue cursors, vector headers) never
/// shares one — the vectors' heap blocks are naturally distinct already.
/// `tests/sim_batch_layout_test.cpp` guards both this and the stripe
/// padding above against regression.
struct alignas(64) SourceLane {
  BucketQueue queue;                  ///< delay: fast-path relaxation queue
  std::vector<HeapItem> heap;         ///< delay: fallback 4-ary heap storage
  std::vector<EgressEvent> events;    ///< egress: 4-ary event heap storage
  std::vector<std::uint8_t> settled;  ///< egress: per-node "holds the block"
  std::vector<std::uint8_t> segment;  ///< egress: per-sender dequeue segment
  std::vector<std::uint32_t> edge;    ///< egress: per-sender CSR row index
  std::vector<double> tokens;         ///< egress: per-sender bucket fill
  std::vector<double> refill_time;    ///< egress: per-sender last refill, ms
  std::vector<double> arrival;        ///< λ: the observed source's stripe
  std::vector<double> group;          ///< λ: `CoverageObserver`'s open group

  /// Heap bytes held by this lane.
  std::size_t memory_bytes() const;
};

/// The batch driver's lane arena, shared by both solvers: one `SourceLane`
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

/// One source's relaxation into caller-provided stripes of `csr.size()`
/// doubles, using `lane`'s scratch. This is the only engine-specific code
/// under the materializing body; there are two: the delay solver behind
/// `simulate_broadcast_batch` and the egress solver behind
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
/// worker count; a one-element span is the single-source path.
void simulate_broadcast_batch(const net::CsrTopology& csr,
                              std::span<const net::NodeId> sources,
                              MultiSourceScratch& scratch,
                              MultiSourceResult& out,
                              runner::ThreadPool* pool = nullptr);

/// λ shape of the delay solver: every entry of `sources` relaxed until the
/// highest coverage of `targets` is reached (see `observe_batch`). Each λ
/// is bit-equal to `metrics::lambda_for_broadcast` on the full broadcast,
/// at any worker count.
void coverage_batch(const net::CsrTopology& csr,
                    std::span<const net::NodeId> sources,
                    MultiSourceScratch& scratch,
                    const CoverageTargets& targets, CoverageTimes& times,
                    runner::ThreadPool* pool = nullptr);

}  // namespace perigee::sim

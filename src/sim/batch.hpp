/// \file
/// \brief The batch driver: broadcasts from every source of a batch over
/// one compiled snapshot, with the delay solver or the egress solver.
///
/// The round loop broadcasts |B| blocks over one `net::CsrTopology`
/// snapshot and the λ metric broadcasts from every node: both are batches.
/// This file holds the one driver they run through — one lane arena
/// (`MultiSourceScratch`), one source fan-out, a materializing body
/// (`materialize_batch`, the round shape) and a streaming body
/// (`stream_batch`, the λ shape) — plus the delay solver. The egress solver
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
///    the batch to `relax_heap`, the one heap fallback both this engine and
///    the parallel engine share;
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

/// A reusable arena of per-worker scratch lanes; `MultiSourceScratch` (the
/// batch driver) and `ParallelScratch` (the delta-stepping team) are both
/// instances. Lanes are grown on demand and survive across
/// batches, so a sweep cell running thousands of rounds performs no
/// steady-state allocation; each lane is its own heap block, so a lane
/// reference stays valid while the pool grows. Not thread-safe to share
/// across concurrent *batches*; within one batch each worker owns one lane.
/// `Lane` must be default-constructible and report `memory_bytes()`.
template <typename L>
class LanePool {
 public:
  using Lane = L;

  /// Lane `i`; `i` must be below `lanes()`.
  Lane& lane(std::size_t i) {
    PERIGEE_ASSERT(i < lanes_.size());
    return *lanes_[i];
  }
  /// Lanes currently allocated.
  std::size_t lanes() const { return lanes_.size(); }
  /// Grows the pool to at least `count` lanes.
  void ensure_lanes(std::size_t count) {
    while (lanes_.size() < count) lanes_.push_back(std::make_unique<Lane>());
  }
  /// Heap bytes across all lanes.
  std::size_t memory_bytes() const {
    std::size_t bytes = 0;
    for (const auto& lane : lanes_) bytes += lane->memory_bytes();
    return bytes;
  }

 private:
  std::vector<std::unique_ptr<Lane>> lanes_;
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
/// heap and per-sender scheduler state, one stripe pair for the streaming
/// form, and a caller-usable λ sort buffer. Each field is sized by the
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
  std::vector<double> arrival;        ///< streaming-form stripe
  std::vector<double> ready;          ///< streaming-form stripe
  /// (arrival, hash power) pairs for the λ coverage accumulation; lives here
  /// so metrics::eval_all_sources is allocation-free per source too.
  std::vector<std::pair<double, double>> by_arrival;
  /// Ping-pong buffer for the radix sort of `by_arrival`.
  std::vector<std::pair<double, double>> sort_scratch;

  /// Heap bytes held by this lane.
  std::size_t memory_bytes() const;
};

/// The batch driver's lane arena, shared by both solvers; reported through
/// the `mem.batch_scratch_bytes` obs gauge after each batch (memory-budget
/// accounting for the scale path, next to `mem.csr_bytes` and
/// `mem.parallel_scratch_bytes`).
using MultiSourceScratch = LanePool<SourceLane>;

/// Heap relaxation of one source into `arrival` (`csr.size()` doubles):
/// the fallback for snapshots no fixed-point bucket plan admits, shared by
/// this engine and the parallel engine (sim/parallel.hpp) so their fallback
/// bytes agree by construction. `heap` is reusable lane storage.
void relax_heap(const net::CsrTopology& csr, net::NodeId src,
                std::vector<HeapItem>& heap, double* arrival);

/// Fills `ready` from final arrivals in one pass: `ready[v] = arrival[v] +
/// Δv`, `ready[src] = 0`. Bit-identical to the test oracle's
/// per-relaxation stores, because the last value they store is exactly
/// final-arrival + Δv (and +inf + Δv == +inf keeps unreached nodes exact).
void fill_ready(const net::CsrTopology& csr, net::NodeId src,
                const double* arrival, double* ready);

/// One source's relaxation into caller-provided stripes of `csr.size()`
/// doubles (`ready` null skips the ready fill), using `lane`'s scratch. This
/// is the only engine-specific code under the driver; there are two: the
/// delay solver behind `simulate_broadcast_batch` and the egress solver
/// behind `simulate_broadcast_egress_batch` (sim/egress.hpp).
using SourceSolver = std::function<void(SourceLane& lane, net::NodeId src,
                                        double* arrival, double* ready)>;

/// Streaming sink: `sink(lane, s, arrival, ready)` receives batch entry
/// `s`'s stripes, which live in lane `lane` and are valid only during the
/// call. It may run concurrently from pool workers for distinct `s` and
/// must write only `s`-indexed slots to preserve the determinism contract.
using SourceSink = std::function<void(
    std::size_t lane, std::size_t s, std::span<const double> arrival,
    std::span<const double> ready)>;

/// The driver's materializing body: sizes `out` for the batch and runs
/// `solve` for every entry of `sources` into its stripes, under a trace span
/// named `span`. With a pool, sources are partitioned into contiguous
/// per-worker ranges, each worker borrowing one lane of `scratch`; without
/// one the batch runs inline. Worker count never changes a byte.
void materialize_batch(const char* span, const net::CsrTopology& csr,
                       std::span<const net::NodeId> sources,
                       MultiSourceScratch& scratch, MultiSourceResult& out,
                       runner::ThreadPool* pool, const SourceSolver& solve);

/// The driver's streaming body: the same fan-out as `materialize_batch`,
/// but each source is solved into its lane's stripe pair and handed to
/// `sink` instead of being kept. With `need_ready` false the ready fill is
/// skipped and the sink receives an empty ready span.
void stream_batch(const net::CsrTopology& csr,
                  std::span<const net::NodeId> sources,
                  MultiSourceScratch& scratch, const SourceSink& sink,
                  runner::ThreadPool* pool, bool need_ready,
                  const SourceSolver& solve);

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

/// Streaming delay form for batches whose per-source outputs reduce
/// immediately (the λ metric: n sources would otherwise materialize O(n²)
/// doubles); see `stream_batch`.
void for_each_source_broadcast(const net::CsrTopology& csr,
                               std::span<const net::NodeId> sources,
                               MultiSourceScratch& scratch,
                               const SourceSink& sink,
                               runner::ThreadPool* pool = nullptr,
                               bool need_ready = true);

}  // namespace perigee::sim

/// \file
/// \brief Batched multi-source broadcast engine.
///
/// Every figure and ablation reduces to "broadcast |B| blocks from
/// hash-weighted sources over one static graph": the round loop simulates
/// all blocks of a round on one `net::CsrTopology` snapshot, and the λ
/// metric broadcasts from every node of the network. This engine runs all
/// sources of such a batch through one compile and one arena-backed scratch
/// pool. It is also the single-source delay path: one source is a batch of
/// one (a one-element span, then `MultiSourceResult::extract` if the caller
/// wants a `BroadcastResult`). What makes it fast:
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
///    lane owns its queue/settled scratch, every source writes its
///    pre-assigned stripe, and results are therefore byte-identical at any
///    worker count — the same determinism contract as the sweep runner.
///
/// Outputs are byte-for-byte identical to the Topology-walking test oracle
/// (`tests/broadcast_oracle.hpp`); `tests/sim_engine_diff_test.cpp` holds
/// this engine, pooled or inline, to that across every scenario regime.
#pragma once

#include <cstddef>
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

/// Reusable arena of per-worker scratch lanes (bucket queue, heap fallback,
/// settled flags, one stripe pair for the streaming form, λ sort buffer).
/// Lanes are grown on demand and survive across batches, so a sweep cell
/// running thousands of rounds performs no steady-state allocation. Not
/// thread-safe to share across concurrent *batches*; within one batch each
/// worker owns one lane.
class MultiSourceScratch {
 public:
  MultiSourceScratch();
  ~MultiSourceScratch();
  MultiSourceScratch(MultiSourceScratch&&) noexcept;
  MultiSourceScratch& operator=(MultiSourceScratch&&) noexcept;

  struct Lane;
  /// Lane `i`, valid until the next `ensure_lanes`. Exposed for the λ
  /// evaluation, which keeps a per-lane sort buffer next to the engine's
  /// scratch.
  Lane& lane(std::size_t i);
  std::size_t lanes() const;
  /// Grows the pool to at least `count` lanes.
  void ensure_lanes(std::size_t count);

  /// Heap bytes across all lanes; reported through the
  /// `mem.batch_scratch_bytes` obs gauge after each batch (memory-budget
  /// accounting for the scale path, next to `mem.csr_bytes` and
  /// `mem.parallel_scratch_bytes`).
  std::size_t memory_bytes() const;

 private:
  std::vector<std::unique_ptr<Lane>> lanes_;
};

/// Per-worker scratch: engine internals plus a caller-usable sort buffer.
/// (No settled array: the engine detects stale queue entries by comparing
/// the popped key against the node's current arrival instead.)
///
/// alignas(64): each lane object starts on its own cache line, so the hot
/// scalar state of two workers' lanes (queue cursors, vector headers) never
/// shares one — the vectors' heap blocks are naturally distinct already.
/// `tests/sim_batch_layout_test.cpp` guards both this and the stripe
/// padding above against regression.
struct alignas(64) MultiSourceScratch::Lane {
  BucketQueue queue;                  ///< fast-path relaxation queue
  std::vector<HeapItem> heap;         ///< fallback 4-ary heap storage
  std::vector<double> arrival;        ///< streaming-form stripe
  std::vector<double> ready;          ///< streaming-form stripe
  /// (arrival, hash power) pairs for the λ coverage accumulation; lives here
  /// so metrics::eval_all_sources is allocation-free per source too.
  std::vector<std::pair<double, double>> by_arrival;
  /// Ping-pong buffer for the radix sort of `by_arrival`.
  std::vector<std::pair<double, double>> sort_scratch;
};

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

/// Simulates a broadcast from every entry of `sources` over one compiled
/// snapshot, materializing all stripes (the round loop's shape: |B| miners,
/// observation recording wants every result at once). With a pool, sources
/// are partitioned into contiguous per-worker ranges; without one the batch
/// runs inline. Byte-identical to the test oracle, source by source, at any
/// worker count; a one-element span is the single-source path.
void simulate_broadcast_batch(const net::CsrTopology& csr,
                              std::span<const net::NodeId> sources,
                              MultiSourceScratch& scratch,
                              MultiSourceResult& out,
                              runner::ThreadPool* pool = nullptr);

/// Streaming form for batches whose per-source outputs reduce immediately
/// (the λ metric: n sources would otherwise materialize O(n²) doubles).
/// Each source's stripes live in its lane and are valid only during the
/// `sink` call; `sink(lane, s, arrival, ready)` may run concurrently from
/// pool workers for distinct `s` and must write only `s`-indexed slots to
/// preserve the determinism contract. With `need_ready` false the ready
/// fill pass is skipped and the sink receives an empty ready span — the λ
/// evaluation only consumes arrival.
using SourceSink = std::function<void(
    std::size_t lane, std::size_t s, std::span<const double> arrival,
    std::span<const double> ready)>;
void for_each_source_broadcast(const net::CsrTopology& csr,
                               std::span<const net::NodeId> sources,
                               MultiSourceScratch& scratch,
                               const SourceSink& sink,
                               runner::ThreadPool* pool = nullptr,
                               bool need_ready = true);

}  // namespace perigee::sim

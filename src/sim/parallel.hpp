/// \file
/// \brief Bucket-synchronous parallel delta-stepping broadcast engine.
///
/// The batched engine (sim/batch.hpp) parallelizes *across* sources; one
/// n >= 10^5 single-source broadcast still runs on one core. This engine
/// parallelizes *within* one source while keeping the repo's byte-parity
/// contract, by restructuring the relaxation around exact fixed-point
/// bucketing (util/fixedpoint.hpp):
///
///  - keys are bucketed by the exact integer index
///    `quantize(key) >> width_shift`, with the power-of-two bucket width
///    chosen so `2 * width <= min-delay` holds as an integer inequality.
///    Since bucket boundaries are exactly representable doubles, every
///    candidate generated while draining bucket `b` is provably >= the
///    start of bucket `b + 1` — not merely up to rounding, *exactly* (the
///    candidate's true sum is >= that representable boundary, and rounding
///    to nearest is monotone). Hence a node's tentative distance is final
///    when its bucket starts draining, and each node relaxes exactly once
///    (settled-once delta stepping: a settled bitmap replaces the stale-key
///    compare);
///  - settled-once makes the relax order *within* a bucket irrelevant to
///    the outputs: every arrival is the unique fixed point of the Bellman
///    recurrence computed through identical double additions (the PR 1
///    argument), so the engine is free to drain one bucket from several
///    workers at once;
///  - nodes are owner-partitioned into contiguous per-worker ranges. In the
///    relax phase each worker drains its own slice of the current bucket,
///    applies candidates for nodes it owns directly, and buffers candidates
///    for remote nodes per target worker — workers never read or write
///    another worker's arrival entries. A barrier later, the merge phase
///    applies each owner's inbox in fixed worker order and the next
///    non-empty bucket is agreed on (two barrier crossings per non-empty
///    bucket, see runner::run_team). The merge order is deterministic but —
///    by settled-once — any order would produce the same bytes, which is
///    why the result is byte-identical to the sequential engines at *any*
///    worker count. tests/sim_engine_diff_test.cpp pins that across jobs in
///    {1, 2, 4}.
///
/// Graphs the exact bucketing cannot serve (a zero/degenerate minimum
/// delay, a key range the guards reject) fall back to `relax_heap`, the
/// batched engine's own heap fallback (sim/batch.hpp), so the engine is
/// total over every regime the tests throw at it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "net/csr.hpp"
#include "net/types.hpp"
#include "sim/batch.hpp"
#include "sim/broadcast.hpp"

namespace perigee::runner {
class ThreadPool;
}  // namespace perigee::runner

namespace perigee::sim {

/// Relaxation backend for the round loop's Fast engine: the sequential
/// batched bucket-queue engine (parallel across sources) or this file's
/// parallel delta-stepping engine (parallel within each source). Outputs
/// are byte-identical either way; the knob is a wall-clock A/B switch
/// plumbed through `core::ExperimentConfig`, `RoundRunner` and
/// `perigee_sweep --engine`.
enum class RelaxEngine {
  Batched,
  ParallelDelta,
};

/// CLI spelling of `engine` ("batched" / "parallel-delta").
const char* relax_engine_name(RelaxEngine engine);
/// Inverse of `relax_engine_name`; nullopt for unknown spellings.
std::optional<RelaxEngine> relax_engine_from_name(std::string_view name);

/// Per-worker lane of the parallel engine: a bucket ring, remote-candidate
/// outboxes, the settled bitmap of the owned nodes and heap-fallback
/// storage. The ring is a power-of-two window over absolute bucket indices
/// (slot = index & mask) holding bare node ids — settled-once means entries
/// need no keys; a stale duplicate is skipped by the settled bitmap. The
/// ring operations are defined in parallel.cpp, their only caller.
///
/// alignas(64): team members hammer their own lane's cursors and outboxes
/// every bucket round; starting each lane on its own cache line keeps that
/// traffic private (same guard as `SourceLane`).
struct alignas(64) ParallelLane {
  /// A buffered remote relaxation: the target node and its candidate key.
  struct Candidate {
    std::uint32_t node;
    double key;
  };
  /// "No pending bucket" sentinel of `next_nonempty_after`.
  static constexpr std::uint64_t kNoBucket = ~std::uint64_t{0};

  std::vector<std::vector<std::uint32_t>> ring;  ///< bucket slots (node ids)
  std::vector<std::uint64_t> occupied;           ///< per-slot non-empty bits
  std::uint64_t mask = 0;
  std::size_t pending = 0;
  std::vector<std::vector<Candidate>> outbox;  ///< per target worker
  std::vector<std::uint8_t> settled;           ///< per owned node
  std::vector<HeapItem> heap;                  ///< heap fallback storage

  /// Grows the ring to at least `cap` slots (a power of two, multiple of 64).
  void ensure_ring(std::uint64_t cap);
  /// Queues `node` in absolute bucket `bucket`.
  void insert(std::uint64_t bucket, std::uint32_t node);
  /// Drains bookkeeping for the just-relaxed bucket.
  void drop_bucket(std::uint64_t bucket);
  /// Smallest non-empty absolute bucket index > `cur`; kNoBucket when the
  /// lane is drained.
  std::uint64_t next_nonempty_after(std::uint64_t cur) const;
  /// Heap bytes held by this lane.
  std::size_t memory_bytes() const;
};

/// Reusable per-worker scratch for the parallel engine, grown on demand and
/// reused across broadcasts (steady state allocates nothing). Not
/// thread-safe to share across concurrent broadcasts; within one broadcast
/// each worker owns one lane. Reported through the
/// `mem.parallel_scratch_bytes` obs gauge after each broadcast.
using ParallelScratch = LanePool<ParallelLane>;

/// Single-source broadcast over the compiled snapshot, byte-identical
/// to `simulate_broadcast_batch` at any worker count. `arrival`/`ready`
/// are caller-provided stripes of `csr.size()` doubles; `ready` may be null
/// to skip the ready fill. With a null pool (or one worker) the engine runs
/// inline on the calling thread.
void simulate_broadcast_parallel(const net::CsrTopology& csr, net::NodeId src,
                                 ParallelScratch& scratch, double* arrival,
                                 double* ready,
                                 runner::ThreadPool* pool = nullptr);

/// Convenience form filling a `BroadcastResult` (tests, block hooks).
void simulate_broadcast_parallel(const net::CsrTopology& csr, net::NodeId src,
                                 ParallelScratch& scratch,
                                 BroadcastResult& out,
                                 runner::ThreadPool* pool = nullptr);

}  // namespace perigee::sim

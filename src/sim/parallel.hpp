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
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "net/csr.hpp"
#include "net/types.hpp"
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

/// Reusable per-worker scratch for the parallel engine: bucket rings,
/// remote-candidate outboxes, settled bitmap, heap-fallback storage. Grown
/// on demand and reused across broadcasts (steady state allocates
/// nothing). Not thread-safe to share across concurrent broadcasts; within
/// one broadcast each worker owns one lane.
class ParallelScratch {
 public:
  ParallelScratch();
  ~ParallelScratch();
  ParallelScratch(ParallelScratch&&) noexcept;
  ParallelScratch& operator=(ParallelScratch&&) noexcept;

  struct Lane;
  Lane& lane(std::size_t i);
  std::size_t lanes() const;
  /// Grows the pool to at least `count` lanes.
  void ensure_lanes(std::size_t count);

  /// Heap bytes across all lanes; reported through the
  /// `mem.parallel_scratch_bytes` obs gauge after each broadcast.
  std::size_t memory_bytes() const;

 private:
  std::vector<std::unique_ptr<Lane>> lanes_;
};

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

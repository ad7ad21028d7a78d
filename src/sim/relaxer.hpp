/// \file
/// \brief The relaxation seam: one driver, two solvers, one `Relaxer`.
///
/// Every λ and every observation comes from one primitive: broadcast blocks
/// from a batch of sources over one compiled snapshot. The batch driver
/// (sim/batch.hpp) runs it with the delay solver (pure propagation, §2.1)
/// or the egress solver (serialization + queue wait, sim/egress.hpp).
/// `Relaxer` is the only place that chooses between them; the round loop
/// and the λ evaluation call it without knowing which engine runs. The
/// choice is fixed at construction:
///  - with an `EgressConfig`, every broadcast runs the egress solver (a
///    *result* axis);
///  - otherwise the delay solver runs, and `RelaxEngine::ParallelDelta`
///    routes the round shape through the delta-stepping team
///    (sim/parallel.hpp) — a wall-clock switch with byte-identical output.
///    Egress takes precedence, since delta-stepping models propagation only.
///
/// A `Relaxer` owns the lane arena both solvers share, the egress rate plan
/// and the delta-stepping lanes, so one instance serves a whole experiment
/// — rounds, checkpoints and the final λ — without steady-state allocation.
/// Like the arenas it owns, it serves one batch at a time.
#pragma once

#include <optional>
#include <span>

#include "net/csr.hpp"
#include "net/network.hpp"
#include "net/types.hpp"
#include "sim/batch.hpp"
#include "sim/egress.hpp"
#include "sim/parallel.hpp"

namespace perigee::runner {
class ThreadPool;
}  // namespace perigee::runner

namespace perigee::sim {

/// Owns the engine choice and the scratch behind it; see the file comment.
class Relaxer {
 public:
  /// Egress solver when `egress` is set, else the delay solver with
  /// `engine` as the round shape's backend.
  explicit Relaxer(std::optional<EgressConfig> egress = std::nullopt,
                   RelaxEngine engine = RelaxEngine::Batched);

  /// The round shape: one broadcast per entry of `sources` over `csr`, all
  /// stripes kept in `out`. `network` must be the one `csr` was compiled
  /// from (the egress solver reads its bandwidth profiles). Byte-identical
  /// at any worker count of `pool`.
  void batch(const net::CsrTopology& csr, const net::Network& network,
             std::span<const net::NodeId> sources, MultiSourceResult& out,
             runner::ThreadPool* pool = nullptr);

  /// The λ shape: each source's arrival stripe goes to `sink` and is not
  /// kept (see `stream_batch`); the sink receives an empty ready span. The
  /// sink's lane index addresses `arena()`.
  void for_each_source(const net::CsrTopology& csr,
                       const net::Network& network,
                       std::span<const net::NodeId> sources,
                       const SourceSink& sink,
                       runner::ThreadPool* pool = nullptr);

  /// The lane arena both solvers run in; a streaming sink may use its
  /// lane's λ sort buffers.
  MultiSourceScratch& arena() { return arena_; }

 private:
  std::optional<EgressConfig> egress_;
  RelaxEngine engine_;
  MultiSourceScratch arena_;
  EgressPlanCache plans_;
  ParallelScratch parallel_;
};

}  // namespace perigee::sim

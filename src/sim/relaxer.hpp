/// \file
/// \brief The relaxation seam: one driver, three solvers, one `Relaxer`.
///
/// Every λ and every observation comes from one primitive: broadcast blocks
/// from a batch of sources over one compiled snapshot. The batch driver
/// (sim/batch.hpp) runs it with the delay solver (pure propagation, §2.1),
/// the egress solver (serialization + queue wait, sim/egress.hpp) or the
/// announce solver (the INV→GETDATA→BLOCK relay, §1.1.2 footnote 3).
/// `Relaxer` is the only place that chooses between them; the round loop
/// and the λ evaluation call it without knowing which engine runs. The
/// choice is fixed at construction: with an `EgressConfig`, every broadcast
/// runs the egress solver (a *result* axis); otherwise the delay solver
/// runs, except that announce learning (a *learning* axis) runs the round
/// batches on the announce solver. λ is one metric whatever the nodes
/// learned from, so `coverage` never announces.
///
/// A `Relaxer` owns the lane arena its solvers share and the egress rate
/// plan, so one instance serves a whole experiment — rounds, checkpoints
/// and the final λ — without steady-state allocation. Like the arena it
/// owns, it serves one batch at a time.
#pragma once

#include <optional>
#include <span>

#include "net/csr.hpp"
#include "net/network.hpp"
#include "net/types.hpp"
#include "sim/batch.hpp"
#include "sim/egress.hpp"

namespace perigee::runner {
class ThreadPool;
}  // namespace perigee::runner

namespace perigee::sim {

/// Kept only for perfbench/replay.cpp's `require_mirrored`; nothing in src/
/// reads it, and it goes with ROADMAP item 1(c).
enum class RelaxEngine { Batched };

/// Owns the engine choice and the scratch behind it; see the file comment.
class Relaxer {
 public:
  /// What the round loop's nodes learn from: block deliveries, or the first
  /// INV announcements of the message-level relay.
  enum class Learning { Delivery, Announce };

  /// Egress solver when `egress` is set, else the delay solver; `Announce`
  /// moves the round shape to the announce solver, which has no queueing
  /// model (an experiment refuses announce learning with queued
  /// transmission, core/validity.cpp).
  explicit Relaxer(std::optional<EgressConfig> egress = std::nullopt,
                   Learning learning = Learning::Delivery);

  /// True when `batch` runs the announce solver: its ready stripes are
  /// announcement times, read against control δ (sim/observations.hpp).
  bool announces() const { return learning_ == Learning::Announce; }

  /// The round shape: one broadcast per entry of `sources` over `csr`, all
  /// stripes kept in `out`. `network` must be the one `csr` was compiled
  /// from (the egress solver reads its bandwidth profiles). Byte-identical
  /// at any worker count of `pool`.
  void batch(const net::CsrTopology& csr, const net::Network& network,
             std::span<const net::NodeId> sources, MultiSourceResult& out,
             runner::ThreadPool* pool = nullptr);

  /// The λ shape: each entry of `sources` relaxes only until the highest
  /// coverage of `targets` is reached, and its λ at every coverage lands
  /// in slot `s` of `times` (see `observe_batch`). Byte-identical at any
  /// worker count of `pool`.
  void coverage(const net::CsrTopology& csr, const net::Network& network,
                std::span<const net::NodeId> sources,
                const CoverageTargets& targets, CoverageTimes& times,
                runner::ThreadPool* pool = nullptr);

 private:
  std::optional<EgressConfig> egress_;
  Learning learning_;
  MultiSourceScratch arena_;
  EgressPlanCache plans_;
};

}  // namespace perigee::sim

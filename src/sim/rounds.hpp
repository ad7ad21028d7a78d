/// \file
/// \brief Round runner (paper §4.1, Algorithm 1's outer loop).
///
/// A round mines K blocks (miner drawn proportionally to hash power), collects
/// every node's observations, then executes the synchronous connection update
/// at all nodes in a freshly shuffled order.
///
/// The topology is static within a round, so the runner refreshes one
/// `net::CsrTopology` snapshot per round (via a `net::CsrCache` keyed on the
/// topology's mutation counter — between rounds the cache replays the
/// topology's mutation journal onto the snapshot instead of recompiling,
/// so a round's rewiring costs O(changed edges), not O(n + m)), samples the
/// round's miners up front, and
/// dispatches all K blocks as one batch through its `sim::Relaxer`
/// (sim/relaxer.hpp), which alone decides between the delay, the egress
/// and the announce solver — the runner never branches on it. The batch runs over reusable
/// arena scratch: the steady state performs no allocation and no per-edge
/// latency-model calls, and an optional `runner::ThreadPool` fans the
/// round's blocks across workers without changing a single output byte.
#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "mining/sampler.hpp"
#include "net/csr.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/batch.hpp"
#include "sim/observations.hpp"
#include "sim/relaxer.hpp"
#include "sim/selector.hpp"

namespace perigee::runner {
class ThreadPool;
}  // namespace perigee::runner

namespace perigee::sim {

/// Drives learning rounds: mine, observe, update.
class RoundRunner {
 public:
  /// `selectors` holds one policy instance per node (index == NodeId), letting
  /// policies carry per-node state (UCB history) and letting experiments mix
  /// policies (incremental-deployment ablation). Selector and topology are
  /// borrowed; the caller keeps them alive.
  RoundRunner(const net::Network& network, net::Topology& topology,
              std::vector<std::unique_ptr<NeighborSelector>> selectors,
              int blocks_per_round, std::uint64_t seed);

  /// Mines one round of blocks and runs the update at every node.
  void run_round();

  /// Runs `count` consecutive rounds.
  void run_rounds(int count);

  /// Rounds completed so far.
  std::size_t rounds_run() const { return rounds_run_; }
  /// The current round's observation matrix.
  const ObservationTable& observations() const { return obs_; }
  /// The mutable topology being learned.
  net::Topology& topology() { return *topology_; }

  /// Rebuilds the miner sampler; call after mutating hash power mid-run.
  void refresh_hash_power();

  /// The snapshot current for the live topology/network, served from the
  /// runner's own cache. Checkpoint evaluations between rounds use this so
  /// the compile is shared with the next round's `run_round` instead of
  /// being paid twice for the same topology version.
  const net::CsrTopology& current_csr() {
    return csr_cache_.get(*topology_, *network_);
  }

  /// Fans each round's block batch across `pool` workers (borrowed; null
  /// restores inline execution). Results are byte-identical at any worker
  /// count, so this only changes wall-clock.
  void set_thread_pool(runner::ThreadPool* pool) { pool_ = pool; }

  /// Installs the relaxation seam the round's block batches run through
  /// (default: delay-only). The relaxer alone decides between the delay,
  /// the egress and the announce solver; a queued-transmission config is a
  /// *result* axis, announce learning a *learning* axis.
  void set_relaxer(Relaxer relaxer) { relaxer_ = std::move(relaxer); }
  /// The installed relaxer. Checkpoint and final λ evaluations between
  /// rounds run through it, so rounds and λ share one lane arena and one
  /// egress rate plan.
  Relaxer& relaxer() { return relaxer_; }

  /// Disables (or re-enables) the incremental journal-patch path of the
  /// runner's CSR cache: with `enabled` false every rewired round pays a
  /// full flat-graph recompile, the pre-journal behavior. Patched and
  /// recompiled snapshots are byte-identical, so this only changes
  /// wall-clock; the differential harness A/Bs the two paths with it.
  void set_csr_patching(bool enabled) { csr_cache_.set_patching(enabled); }

  /// Resets node v's selector state (a churned-out node is replaced by a
  /// fresh participant with no learned history).
  void reset_selector(net::NodeId v) { selectors_[v]->on_reset(v); }

  /// Pre-round hook (round index about to run): scenario drivers apply
  /// scheduled topology/profile mutations here, *before* the round's
  /// observation capture and CSR compile. Mutations bump
  /// `net::Topology::version()`, so the round's `CsrCache` lookup recompiles
  /// exactly when the hook changed the graph.
  using PreRoundHook = std::function<void(std::size_t round_index)>;
  /// Installs (or clears) the pre-round hook.
  void set_pre_round_hook(PreRoundHook hook) {
    pre_round_hook_ = std::move(hook);
  }

  /// Attaches a peer-discovery service: selectors explore from per-node
  /// address books, and one gossip exchange runs after each round's updates.
  /// The AddrMan is borrowed and must outlive the runner.
  void set_addrman(net::AddrMan* addrman) { addrman_ = addrman; }

  /// Per-block hook (miner id, broadcast result); used by convergence
  /// tracking and tests. Called before observations are recorded.
  using BlockHook = std::function<void(const BroadcastResult&)>;
  /// Installs (or clears) the per-block hook.
  void set_block_hook(BlockHook hook) { block_hook_ = std::move(hook); }

 private:
  const net::Network* network_;
  net::Topology* topology_;
  std::vector<std::unique_ptr<NeighborSelector>> selectors_;
  int blocks_per_round_;
  mining::AliasSampler sampler_;
  util::Rng miner_rng_;
  util::Rng update_rng_;
  ObservationTable obs_;
  net::CsrCache csr_cache_;         // one compile per round (or fewer)
  std::vector<net::NodeId> miners_; // the round's pre-sampled miner batch
  std::vector<net::NodeId> order_;  // the round's shuffled update order
  Relaxer relaxer_;                 // the engine choice and its arenas
  MultiSourceResult batch_result_;  // SoA stripes, reused across rounds
  BroadcastResult block_result_;    // reused per-block shim for hooks
  std::size_t rounds_run_ = 0;
  runner::ThreadPool* pool_ = nullptr;  // borrowed; null = inline blocks
  BlockHook block_hook_;
  PreRoundHook pre_round_hook_;
  net::AddrMan* addrman_ = nullptr;
};

}  // namespace perigee::sim

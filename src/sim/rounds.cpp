#include "sim/rounds.hpp"

#include <numeric>

#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace perigee::sim {

RoundRunner::RoundRunner(const net::Network& network, net::Topology& topology,
                         std::vector<std::unique_ptr<NeighborSelector>> selectors,
                         int blocks_per_round, std::uint64_t seed)
    : network_(&network),
      topology_(&topology),
      selectors_(std::move(selectors)),
      blocks_per_round_(blocks_per_round),
      sampler_(mining::AliasSampler::from_hash_power(network)),
      miner_rng_(util::Rng(seed).split(0xB10C)),
      update_rng_(util::Rng(seed).split(0x5E1E)) {
  PERIGEE_ASSERT(topology_->size() == network_->size());
  PERIGEE_ASSERT(selectors_.size() == network_->size());
  PERIGEE_ASSERT(blocks_per_round_ > 0);
  for (const auto& s : selectors_) PERIGEE_ASSERT(s != nullptr);
}

void RoundRunner::refresh_hash_power() {
  sampler_ = mining::AliasSampler::from_hash_power(*network_);
}

void RoundRunner::run_round() {
  PERIGEE_TRACE_SPAN_ARGS(round_span, "round",
                          obs::TraceArgs()
                              .arg("round", rounds_run_)
                              .arg("blocks", blocks_per_round_)
                              .json());
  // Scenario mutations (churn joins/leaves) land before the observation
  // capture and the CSR compile, so the whole round sees the mutated graph.
  if (pre_round_hook_) pre_round_hook_(rounds_run_);
  obs_.begin_round(*topology_, static_cast<std::size_t>(blocks_per_round_));
  // One flat-graph refresh for the whole round: the topology only mutates in
  // the update phase below, so the cache replays last round's mutation
  // journal onto the standing snapshot (a full recompile only on mass churn
  // or journal truncation) and is free when nothing rewired at all.
  const net::CsrTopology& csr = csr_cache_.get(*topology_, *network_);
  // Miner sampling is independent of the block simulations, so the whole
  // round's miners are drawn up front (same draw sequence as a per-block
  // loop) and dispatched as one multi-source batch. Hooks and observation
  // recording then replay the stripes in block order, which keeps every
  // downstream byte identical at any worker count.
  miners_.resize(static_cast<std::size_t>(blocks_per_round_));
  for (auto& miner : miners_) {
    miner = static_cast<net::NodeId>(sampler_.sample(miner_rng_));
  }
  relaxer_.batch(csr, *network_, miners_, batch_result_, pool_);
  const bool announce = relaxer_.announces();
  for (std::size_t b = 0; b < miners_.size(); ++b) {
    if (block_hook_) {
      batch_result_.extract(b, block_result_);
      block_hook_(block_result_);
    }
    obs_.record_block(csr, miners_[b], batch_result_.ready_of(b), announce);
  }

  order_.resize(topology_->size());
  std::iota(order_.begin(), order_.end(), 0);
  update_rng_.shuffle(order_);

  RoundContext ctx{obs_,        *topology_,  *network_,
                   update_rng_, rounds_run_, addrman_};
  for (net::NodeId v : order_) {
    selectors_[v]->on_round_end(v, ctx);
  }
  if (addrman_ != nullptr) {
    addrman_->gossip_round(*topology_, update_rng_);
  }
  ++rounds_run_;
}

void RoundRunner::run_rounds(int count) {
  for (int i = 0; i < count; ++i) run_round();
}

}  // namespace perigee::sim

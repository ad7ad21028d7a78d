// Test-only oracle for the paper's §2.1 broadcast relaxation:
//
//   arrival(v) = min over adjacent u of ready(u) + δ(u,v)
//   ready(u)   = arrival(u) + Δu          (the miner skips validation)
//
// computed the slow, obvious way: a binary std::priority_queue walking the
// mutable `net::Topology` link lists and resolving δ per edge visit through
// the `net::Network` — no compiled snapshot, no fixed-point keys, no bucket
// queue. Every production engine (batched, pooled, parallel delta-stepping,
// egress at ∞ rate) runs on a `net::CsrTopology` and is held byte-equal to
// this walker by the parity suites, so it lives here rather than in src/.
//
// `batch_of_one` is the other side of most of those checks: the production
// single-source path, which is the batch driver over a one-element span
// (`egress_batch_of_one` is the same shape for the egress solver).
#pragma once

#include <array>
#include <cmath>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "net/csr.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/batch.hpp"
#include "sim/egress.hpp"
#include "sim/broadcast.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace perigee::oracle {

/// δ of one adjacency link: the infra override or the network's edge delay.
/// `net::CsrTopology::build` resolves the same value into its delay array.
inline double link_delay_ms(const net::Topology::Link& link, net::NodeId from,
                            const net::Network& network) {
  return link.is_infra() ? link.infra_ms
                         : network.edge_delay_ms(from, link.peer);
}

/// One block broadcast from `miner`, walking the live Topology/Network pair.
inline sim::BroadcastResult simulate_broadcast(const net::Topology& topology,
                                               const net::Network& network,
                                               net::NodeId miner) {
  PERIGEE_ASSERT(topology.size() == network.size());
  PERIGEE_ASSERT(miner < network.size());
  const std::size_t n = network.size();

  sim::BroadcastResult result;
  result.miner = miner;
  result.arrival.assign(n, util::kInf);
  result.ready.assign(n, util::kInf);
  result.arrival[miner] = 0.0;
  result.ready[miner] = 0.0;  // the miner does not validate its own block

  using Item = std::pair<double, net::NodeId>;  // (arrival, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
  queue.emplace(0.0, miner);
  std::vector<bool> settled(n, false);

  while (!queue.empty()) {
    const auto [t, u] = queue.top();
    queue.pop();
    if (settled[u]) continue;
    settled[u] = true;
    // A withholding node receives blocks but never relays them; its own
    // blocks still propagate (otherwise mining would be pointless).
    if (!network.profile(u).forwards && u != miner) continue;
    const double ready = result.ready[u];
    for (const auto& link : topology.adjacency(u)) {
      const net::NodeId v = link.peer;
      if (settled[v]) continue;
      const double cand = ready + link_delay_ms(link, u, network);
      if (cand < result.arrival[v]) {
        result.arrival[v] = cand;
        result.ready[v] = cand + network.validation_ms(v);
        queue.emplace(cand, v);
      }
    }
  }
  return result;
}

/// Time at which u's copy of the block reaches v (u = link_from_v.peer,
/// adjacent to v): ready[u] + δ(u,v); +inf if u never got the block or
/// withholds it.
inline double delivery_time(const sim::BroadcastResult& result,
                            const net::Topology::Link& link_from_v,
                            net::NodeId v, const net::Network& network) {
  const net::NodeId u = link_from_v.peer;
  if (!network.profile(u).forwards && u != result.miner) return util::kInf;
  const double ready = result.ready[u];
  if (std::isinf(ready)) return util::kInf;
  // δ is symmetric, so the v-side link entry carries the right cost.
  return ready + link_delay_ms(link_from_v, v, network);
}

/// The production single-source path: `sim::simulate_broadcast_batch` over a
/// one-element span, extracted into the single-source result shape.
inline sim::BroadcastResult batch_of_one(const net::CsrTopology& csr,
                                         net::NodeId miner) {
  const std::array<net::NodeId, 1> source{miner};
  sim::MultiSourceScratch scratch;
  sim::MultiSourceResult batch;
  sim::simulate_broadcast_batch(csr, source, scratch, batch);
  sim::BroadcastResult result;
  batch.extract(0, result);
  return result;
}

/// The production single-source egress path:
/// `sim::simulate_broadcast_egress_batch` over a one-element span, extracted
/// into the single-source result shape.
inline sim::BroadcastResult egress_batch_of_one(
    const net::CsrTopology& csr, const sim::EgressConfig& config,
    const sim::EgressPlan& plan, net::NodeId miner) {
  const std::array<net::NodeId, 1> source{miner};
  sim::EgressScratch scratch;
  sim::MultiSourceResult batch;
  sim::simulate_broadcast_egress_batch(csr, config, plan, source, scratch,
                                       batch);
  sim::BroadcastResult result;
  batch.extract(0, result);
  return result;
}

}  // namespace perigee::oracle

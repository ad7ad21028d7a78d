#include "sim/observations.hpp"

#include <algorithm>
#include <cmath>

#include "sim/gossip.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace perigee::sim {

void ObservationTable::begin_round(const net::Topology& topology,
                                   std::size_t blocks_per_round) {
  PERIGEE_ASSERT(blocks_per_round > 0);
  blocks_per_round_ = blocks_per_round;
  blocks_recorded_ = 0;
  // Per-node storage is reused across rounds: clear() keeps the capacity.
  nodes_.resize(topology.size());
  is_out_.resize(topology.size(), 0);
  for (net::NodeId v = 0; v < topology.size(); ++v) {
    PerNode& pn = nodes_[v];
    const auto& out = topology.out(v);
    for (const net::NodeId u : out) is_out_[u] = 1;
    pn.neighbors.clear();
    pn.outgoing.clear();
    for (const auto& link : topology.adjacency(v)) {
      pn.neighbors.push_back(link.peer);
      pn.outgoing.push_back(is_out_[link.peer]);
    }
    for (const net::NodeId u : out) is_out_[u] = 0;
    pn.rel.assign(pn.neighbors.size() * blocks_per_round_, util::kInf);
  }
}

void ObservationTable::record_block(const net::CsrTopology& csr,
                                    net::NodeId miner,
                                    std::span<const double> ready_times) {
  PERIGEE_ASSERT(blocks_recorded_ < blocks_per_round_);
  PERIGEE_ASSERT(nodes_.size() == csr.size());
  PERIGEE_ASSERT(ready_times.size() == nodes_.size());
  const std::size_t b = blocks_recorded_;
  for (net::NodeId v = 0; v < nodes_.size(); ++v) {
    PerNode& pn = nodes_[v];
    const std::size_t deg = pn.neighbors.size();
    if (deg == 0) continue;
    // Row v of the snapshot is adjacency(v) in capture order, so entry i is
    // δ(v, neighbor i).
    const auto delays = csr.delays(v);
    PERIGEE_ASSERT(delays.size() == deg);
    scratch_.resize(deg);
    double t_min = util::kInf;
    for (std::size_t i = 0; i < deg; ++i) {
      const net::NodeId u = pn.neighbors[i];
      const double ready = ready_times[u];
      const double t = (!csr.forwards(u) && u != miner) || std::isinf(ready)
                           ? util::kInf
                           : ready + delays[i];
      scratch_[i] = t;
      t_min = std::min(t_min, t);
    }
    for (std::size_t i = 0; i < deg; ++i) {
      // Unreached neighbor (or fully unreached v): t̃ stays +inf.
      const double rel = std::isinf(scratch_[i]) || std::isinf(t_min)
                             ? util::kInf
                             : scratch_[i] - t_min;
      pn.rel[i * blocks_per_round_ + b] = rel;
    }
  }
  ++blocks_recorded_;
}

void ObservationTable::record_gossip_block(const GossipResult& result) {
  PERIGEE_ASSERT(blocks_recorded_ < blocks_per_round_);
  PERIGEE_ASSERT_MSG(!result.edge_times.empty() ||
                         result.arrival.size() == nodes_.size(),
                     "gossip result must carry edge times");
  const std::size_t b = blocks_recorded_;
  // Absolute announcement time per (node, neighbor-slot); +inf by default.
  scratch_.assign(0, 0.0);
  std::vector<std::vector<double>> abs(nodes_.size());
  for (std::size_t v = 0; v < nodes_.size(); ++v) {
    abs[v].assign(nodes_[v].neighbors.size(), util::kInf);
  }
  for (const auto& et : result.edge_times) {
    PERIGEE_ASSERT(et.to < nodes_.size());
    auto& pn = nodes_[et.to];
    for (std::size_t i = 0; i < pn.neighbors.size(); ++i) {
      if (pn.neighbors[i] == et.from) {
        abs[et.to][i] = std::min(abs[et.to][i], et.time_ms);
        break;
      }
    }
  }
  for (std::size_t v = 0; v < nodes_.size(); ++v) {
    PerNode& pn = nodes_[v];
    double t_min = util::kInf;
    for (double t : abs[v]) t_min = std::min(t_min, t);
    for (std::size_t i = 0; i < pn.neighbors.size(); ++i) {
      pn.rel[i * blocks_per_round_ + b] =
          std::isinf(abs[v][i]) || std::isinf(t_min) ? util::kInf
                                                     : abs[v][i] - t_min;
    }
  }
  ++blocks_recorded_;
}

std::span<const net::NodeId> ObservationTable::neighbors(net::NodeId v) const {
  PERIGEE_ASSERT(v < nodes_.size());
  return nodes_[v].neighbors;
}

std::size_t ObservationTable::neighbor_count(net::NodeId v) const {
  PERIGEE_ASSERT(v < nodes_.size());
  return nodes_[v].neighbors.size();
}

bool ObservationTable::is_outgoing(net::NodeId v, std::size_t idx) const {
  PERIGEE_ASSERT(v < nodes_.size());
  PERIGEE_ASSERT(idx < nodes_[v].outgoing.size());
  return nodes_[v].outgoing[idx] != 0;
}

std::span<const double> ObservationTable::rel_times(net::NodeId v,
                                                    std::size_t idx) const {
  PERIGEE_ASSERT(v < nodes_.size());
  const PerNode& pn = nodes_[v];
  PERIGEE_ASSERT(idx < pn.neighbors.size());
  return std::span<const double>(pn.rel.data() + idx * blocks_per_round_,
                                 blocks_recorded_);
}

}  // namespace perigee::sim

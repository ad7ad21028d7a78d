/// \file
/// \brief Observation collection (paper §4.1, Eq. 2).
///
/// During a round each node v records, for every neighbor u and block b, the
/// time t(b,u,v) at which u's copy of b reached v. Scores consume the
/// time-normalized values  t̃ = t(b,u,v) − min_u t(b,u,v).
///
/// The neighbor list of each node is captured at round start (the topology is
/// static within a round) and includes outgoing, incoming and infra
/// neighbors; only outgoing neighbors are marked selectable.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/csr.hpp"
#include "net/topology.hpp"

namespace perigee::sim {

/// Per-round matrix of relative block delivery times, indexed by
/// (node, neighbor slot, block).
class ObservationTable {
 public:
  /// Captures neighbor lists and sizes the timestamp matrix for
  /// `blocks_per_round` upcoming blocks.
  void begin_round(const net::Topology& topology,
                   std::size_t blocks_per_round);

  /// Appends one block's delivery times for every (node, neighbor) pair from
  /// one source's ready times (a stripe of a batched result, sim/batch.hpp).
  /// δ(v, neighbor i) is the pre-resolved entry i of the snapshot's row v —
  /// valid because the snapshot preserves `Topology::adjacency` order and the
  /// topology is static within a round. The snapshot must be built from the
  /// same topology captured by begin_round.
  void record_block(const net::CsrTopology& csr, net::NodeId miner,
                    std::span<const double> ready);

  /// Message-level variant: one block's per-edge announcement times from the
  /// gossip engine (run with record_edge_times = true). Neighbors that never
  /// announced stay +inf. The paper's footnote 3: scoring can equally use
  /// the times block advertisements (INVs) were received.
  void record_gossip_block(const struct GossipResult& result);

  /// Blocks recorded so far this round.
  std::size_t blocks_recorded() const { return blocks_recorded_; }
  /// Capacity declared by begin_round.
  std::size_t blocks_capacity() const { return blocks_per_round_; }

  /// Neighbors of v as captured at round start.
  std::span<const net::NodeId> neighbors(net::NodeId v) const;
  /// Number of captured neighbors of v.
  std::size_t neighbor_count(net::NodeId v) const;
  /// True when neighbor `idx` of v is an outgoing (selectable) connection.
  bool is_outgoing(net::NodeId v, std::size_t idx) const;

  /// Relative delivery times t̃ of neighbor `idx` of v, one entry per recorded
  /// block; +inf when the neighbor never delivered.
  std::span<const double> rel_times(net::NodeId v, std::size_t idx) const;

 private:
  struct PerNode {
    std::vector<net::NodeId> neighbors;
    std::vector<std::uint8_t> outgoing;  // parallel to neighbors
    std::vector<double> rel;             // [idx * blocks_per_round + b]
  };

  std::vector<PerNode> nodes_;
  std::size_t blocks_per_round_ = 0;
  std::size_t blocks_recorded_ = 0;
  std::vector<double> scratch_;  // per-neighbor absolute times of one block
  // begin_round's marks: 1 at the out-peers of the node being captured.
  std::vector<std::uint8_t> is_out_;
};

}  // namespace perigee::sim

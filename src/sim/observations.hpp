/// \file
/// \brief Observation collection (paper §4.1, Eq. 2).
///
/// During a round each node v records, for every outgoing neighbor u and
/// block b, the time t(b,u,v) at which u's copy of b reached v. Scores
/// consume the time-normalized values  t̃ = t(b,u,v) − min_u t(b,u,v), where
/// the minimum spans *every* neighbor of v (outgoing, incoming and infra):
/// a block first heard from an incoming peer leaves all of v's out rows
/// above 0.
///
/// Only the out-peers are scored (Algorithm 1 keeps dv of them and explores
/// ev), so only they get a row. At round start the table captures each
/// node's relay adjacency (CSR-style: one offsets array into one peer
/// array, because t_min still spans it) and, per node, the adjacency
/// positions and ids of the entries whose peer is in `Topology::out(v)`.
/// The rows live in one flat arena of Σ|out(v)| × B doubles.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/csr.hpp"
#include "net/topology.hpp"

namespace perigee::sim {

/// Per-round matrix of relative block delivery times, indexed by
/// (node, out-peer slot, block).
class ObservationTable {
 public:
  /// Captures neighbor lists and out-peer rows and sizes the timestamp arena
  /// for `blocks_per_round` upcoming blocks. An adjacency entry gets a row
  /// iff its peer is in `topology.out(v)`; rows keep adjacency order.
  void begin_round(const net::Topology& topology,
                   std::size_t blocks_per_round);

  /// Appends one block's delivery times for every out row from one source's
  /// ready times (a stripe of a batched result, sim/batch.hpp). t_min spans
  /// every captured neighbor; δ(v, neighbor i) is the pre-resolved entry i of
  /// the snapshot's row v — valid because the snapshot preserves
  /// `Topology::adjacency` order and the topology is static within a round.
  /// The snapshot must be built from the same topology captured by
  /// begin_round.
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

  /// Out-peers of v as captured at round start, in adjacency order. Slot k
  /// of this span is the `k` of rel_times.
  std::span<const net::NodeId> out_peers(net::NodeId v) const;

  /// Relative delivery times t̃ of out-peer slot `k` of v, one entry per
  /// recorded block; +inf when the peer never delivered.
  std::span<const double> rel_times(net::NodeId v, std::size_t k) const;

  /// Heap bytes the table holds (capacity, so reuse across rounds counts).
  /// begin_round reports it through the `mem.observations_bytes` gauge.
  std::size_t memory_bytes() const;

 private:
  // Captured adjacency: node v's neighbors are adj_peer_[adj_off_[v] ..
  // adj_off_[v + 1]).
  std::vector<std::size_t> adj_off_;
  std::vector<net::NodeId> adj_peer_;
  // Out rows: node v owns rows out_off_[v] .. out_off_[v + 1]; row r is the
  // peer out_peer_[r] at position out_pos_[r] of v's adjacency. Entries at
  // or past out_off_[n] are capture slack.
  std::vector<std::size_t> out_off_;
  std::vector<std::uint32_t> out_pos_;
  std::vector<net::NodeId> out_peer_;
  std::vector<double> rel_;  // [row * blocks_per_round + b]
  std::size_t blocks_per_round_ = 0;
  std::size_t blocks_recorded_ = 0;
  // Absolute times of one block: one node's neighbors (record_block) or the
  // whole captured adjacency (record_gossip_block).
  std::vector<double> scratch_;
  // begin_round's marks: 1 at the out-peers of the node being captured.
  std::vector<std::uint8_t> is_out_;
};

}  // namespace perigee::sim

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
/// The table keeps the round's inputs, not its outputs. At round start it
/// captures each node's relay adjacency (CSR-style: one offsets array into
/// one peer array, because t_min spans it) and, per node, the adjacency
/// positions and ids of the entries whose peer is in `Topology::out(v)`:
/// only the out-peers are scored (Algorithm 1 keeps dv of them and explores
/// ev), so only they get a row. The first record of a round copies one δ per
/// captured entry; every record copies one stripe of n relay times, the
/// moment each node starts relaying the block (+inf for a node that never
/// does). That is B·n + Σdeg doubles, against Σ|out(v)|·B for materialized
/// rows.
///
/// The rows are computed per node when a selector reads them: the first
/// `rel_times(v, ·)` after a record fills all of v's out rows into one
/// buffer of max|out|·B doubles, t = relay(u) + δ, so the reads of one node
/// cost one pass over its neighbors' stripes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/csr.hpp"
#include "net/topology.hpp"

namespace perigee::sim {

/// Per-round relative block delivery times, indexed by (node, out-peer slot,
/// block) and computed per node on read.
///
/// `rel_times` is const but fills a shared row buffer: reads are not safe to
/// run concurrently, and a returned span stays valid only until a read of
/// another node, the next record or the next begin_round.
class ObservationTable {
 public:
  /// Captures neighbor lists and out-peers for `blocks_per_round` upcoming
  /// blocks. An adjacency entry gets a row iff its peer is in
  /// `topology.out(v)`; rows keep adjacency order.
  void begin_round(const net::Topology& topology,
                   std::size_t blocks_per_round);

  /// Appends one block from one source's ready times (a stripe of a batched
  /// result, sim/batch.hpp). A node relays from its ready time if it
  /// forwards or mined the block. δ(v, neighbor i) is the pre-resolved entry
  /// i of the snapshot's row v — valid because the snapshot preserves
  /// `Topology::adjacency` order and the topology is static within a round.
  /// With `announce` (a stripe of the announce solver) the times are those
  /// of block advertisements, as the paper's footnote 3 allows: the miner
  /// announces at 0 and a forwarding holder at arrival + Δ, and entry (v, u)
  /// takes the control δ of u's row, the one u's INV to v paid. The first
  /// record of a round fixes which δ the round reads. The snapshot must be
  /// built from the same topology captured by begin_round. Nothing of `csr`
  /// or `ready_times` is kept.
  void record_block(const net::CsrTopology& csr, net::NodeId miner,
                    std::span<const double> ready_times,
                    bool announce = false);

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

  /// Heap bytes the table holds (capacity, so reuse across rounds counts):
  /// the captured adjacency and δ, the relay stripes and the row buffer.
  /// Every growth raises the `mem.observations_bytes` gauge.
  std::size_t memory_bytes() const;

 private:
  // Sizes the stripes and copies one δ per captured entry: row v of the
  // snapshot (`control` false) or the control δ of each peer's row.
  void capture_delays(const net::CsrTopology& csr, bool control);
  // Fills rows_ with all of v's out rows over the recorded blocks.
  void compute_rows(net::NodeId v) const;

  // Captured adjacency: node v's neighbors are adj_peer_[adj_off_[v] ..
  // adj_off_[v + 1]), and delay_[e] is the δ entry e's peer delivers over.
  std::vector<std::size_t> adj_off_;
  std::vector<net::NodeId> adj_peer_;
  std::vector<double> delay_;
  // Out rows: node v owns slots out_off_[v] .. out_off_[v + 1]; slot r is
  // the peer out_peer_[r] at position out_pos_[r] of v's adjacency. Entries
  // at or past out_off_[n] are capture slack.
  std::vector<std::size_t> out_off_;
  std::vector<std::uint32_t> out_pos_;
  std::vector<net::NodeId> out_peer_;
  std::size_t max_out_ = 0;  // largest |out(v)| this round
  // relay_[u * blocks_per_round_ + b]: when u starts relaying block b.
  std::vector<double> relay_;
  std::size_t blocks_per_round_ = 0;
  std::size_t blocks_recorded_ = 0;
  // begin_round's marks: 1 at the out-peers of the node being captured.
  std::vector<std::uint8_t> is_out_;
  // The rows of node rows_node_: rows_[k * blocks_recorded_ + b], with
  // t_min_[b] the per-block minimum over all its neighbors.
  mutable std::vector<double> rows_;
  mutable std::vector<double> t_min_;
  mutable net::NodeId rows_node_ = net::kInvalidNode;
};

}  // namespace perigee::sim

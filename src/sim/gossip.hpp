/// \file
/// \brief Message-level gossip engine (paper §1.1.2).
///
/// Simulates the Bitcoin relay handshake event-by-event: a node that has
/// validated a block announces it (INV) to all neighbors; a neighbor lacking
/// the block requests it (GETDATA) from the first announcer; the block is then
/// transferred. In Push mode the handshake is skipped and blocks are pushed
/// directly — in that mode arrival times coincide exactly with the fast
/// delay engines' (sim/batch.hpp), which the test suite asserts.
///
/// Control messages (INV/GETDATA) travel at the link's propagation latency;
/// the block transfer pays the full edge delay (propagation + transmission).
/// Both delay kinds are pre-resolved into the `net::CsrTopology` the event
/// loop runs on; the Topology-based overload compiles a throwaway snapshot
/// and delegates, while the round loop hands in its per-round snapshot.
#pragma once

#include <vector>

#include "net/csr.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"

namespace perigee::sim {

/// Gossip engine knobs.
struct GossipConfig {
  /// Relay protocol variant.
  enum class Mode {
    Push,        ///< validated block is pushed to all neighbors directly
    InvGetdata,  ///< full INV -> GETDATA -> BLOCK handshake
  };
  Mode mode = Mode::InvGetdata;
  /// Record per-edge announcement times (one entry per INV/push received).
  bool record_edge_times = false;
};

/// One announcement (INV or pushed copy) as received on an edge.
struct GossipEdgeTime {
  net::NodeId to;    ///< receiving node v
  net::NodeId from;  ///< announcing neighbor u
  double time_ms;    ///< when the announcement (or pushed copy) reached v
};

/// Outcome of one message-level broadcast.
struct GossipResult {
  net::NodeId miner = net::kInvalidNode;  ///< the mining node
  std::vector<double> arrival;        ///< block in hand; +inf if unreachable
  std::vector<double> first_announce; ///< first INV/push heard; +inf if none
  std::vector<GossipEdgeTime> edge_times;  ///< per-edge announcements, if on
  std::size_t messages_processed = 0;      ///< total events drained
};

/// Event loop over a compiled snapshot (delays read from the CSR arrays).
GossipResult simulate_gossip(const net::CsrTopology& csr, net::NodeId miner,
                             const GossipConfig& config = {});

/// Convenience overload: compiles a snapshot of `topology` and delegates.
/// Bit-identical to running on the snapshot directly.
GossipResult simulate_gossip(const net::Topology& topology,
                             const net::Network& network, net::NodeId miner,
                             const GossipConfig& config = {});

}  // namespace perigee::sim

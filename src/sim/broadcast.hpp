/// \file
/// \brief Per-block broadcast result (paper §2.1 dynamics).
///
/// When a node u mines or finishes validating a block it immediately starts
/// relaying to every adjacent node v, the copy arriving after δ(u,v). Arrival
/// times therefore satisfy
///   arrival(v)  = min over adjacent u of ready(u) + δ(u,v)
///   ready(u)    = arrival(u) + Δu          (the miner skips validation)
/// which a Dijkstra-style relaxation computes exactly in O(E log V).
///
/// Every engine that computes that relaxation runs on a compiled
/// `net::CsrTopology` snapshot:
///  - the batched multi-source engine (sim/batch.hpp): all sources of a
///    round or a λ evaluation over one compile, a monotone bucket queue with
///    `relax_heap` as its one heap fallback, SoA per-source result stripes
///    and optional source-level `runner::ThreadPool` parallelism. A caller
///    with one source passes a one-element span and, when it wants this
///    header's shape, copies the stripe out with `MultiSourceResult::extract`;
///  - the parallel delta-stepping engine (sim/parallel.hpp), one source
///    across a worker team;
///  - the egress queuing engine (sim/egress.hpp), which reproduces the
///    delay-only arrivals at unlimited rate and zero message size.
/// Their outputs are bit-identical — arrival is the exact minimum over
/// identical per-path sums, independent of relaxation order — and the parity
/// suites (`tests/sim_engine_diff_test.cpp`, `tests/sim_csr_parity_test.cpp`)
/// hold each of them byte for byte to a test-only Topology-walking oracle
/// (`tests/broadcast_oracle.hpp`).
#pragma once

#include <vector>

#include "net/types.hpp"

namespace perigee::sim {

/// Outcome of one block broadcast.
struct BroadcastResult {
  net::NodeId miner = net::kInvalidNode;  ///< the mining node
  /// Time (ms after mining) each node first holds the block; +inf if
  /// unreachable; arrival[miner] == 0.
  std::vector<double> arrival;
  /// Time each node starts relaying: arrival + validation (miner: 0).
  std::vector<double> ready;
};

}  // namespace perigee::sim

/// \file
/// \brief Event-driven egress transmission engine: token-bucket rate limits
/// + a pfifo_fast-style priority-band scheduler per sender.
///
/// The delay-only engines charge every edge a fixed propagation delay δ and
/// let a node relay to all neighbors simultaneously. Real gossip contends
/// for finite uplink capacity: messages serialize one at a time through the
/// sender's NIC and queue behind each other. This engine adds that axis on
/// top of the same compiled `net::CsrTopology` snapshot:
///
///  - each node has an egress rate (bytes/ms, derived from its
///    `net::NodeProfile::bandwidth_mbps` by `EgressPlan`) and a token bucket
///    of depth `EgressConfig::burst_bytes` refilled at that rate;
///  - when a node becomes ready it enqueues one control message (INV/header
///    chatter) and one block payload per CSR neighbor, in adjacency order;
///    messages drain through a three-band priority FIFO (pfifo_fast's
///    band map: lower band drains fully before a higher band sends) one at
///    a time, each occupying the uplink for size/rate ms (minus whatever
///    the bucket absorbs);
///  - a payload that finishes serializing at time f arrives at the peer at
///    f + δ(u,v) — serialization + queue wait stack on top of the same
///    per-edge propagation the delay-only engines charge;
///  - control messages consume egress bandwidth but never deliver the
///    block, and a payload whose receiver already holds the block is
///    suppressed at dequeue time (compact-relay semantics) — suppression is
///    provably lossless because the receiver settled at an earlier event.
///
/// Determinism: the simulation is a single-threaded discrete-event loop per
/// source whose events pop in (time, sequence) order — ties in time break
/// FIFO by schedule order, so one source's outcome is a pure function of
/// (snapshot, config, plan, source). Event times never run backwards, so
/// the events ride the same monotone fixed-point `BucketQueue` as the delay
/// solver (sim/bucket_queue.hpp), ordered by (qkey, time bits, seq); each
/// batch derives the queue's plan from the snapshot's δ and Δv bounds and
/// the plan's rates, and a batch no plan fits (a zero-δ link, a zero-rate
/// sender whose finish is +inf, a rate so small one payload outruns the
/// ring budget) keeps the 4-ary heap of sim/dary_heap.hpp (counter
/// `egress.heap_sources`). Both pop in the same order, so the outcome does
/// not depend on which one ran. A sender's serializing controls run
/// inline, with one queued event per run instead of one per message; a run
/// end that ties another event at its time re-runs the source per message
/// (counter `egress.reruns`), so the outcome is exactly the per-message
/// loop's (docs/TRANSMISSION_MODEL.md, "Control runs"). That per-source
/// loop is the egress solver; everything around it — the lane arena, the
/// fan-out across an optional `runner::ThreadPool` and the materializing
/// and observing bodies — is the batch driver of sim/batch.hpp, shared with
/// the delay solver, so output is byte-identical at any worker count.
/// `sim::Relaxer` (sim/relaxer.hpp) picks this solver when a transmission
/// regime is set.
///
/// Parity bar (enforced by tests/sim_engine_diff_test.cpp): with
/// `unlimited_rate` (or all-zero message sizes) every send completes at its
/// dequeue instant with no floating-point work, each candidate arrival is
/// the identical single `ready_u + δ` addition the delay-only relaxation
/// performs, and the engine's arrival/ready bytes equal the batched
/// engine's and the test oracle's exactly. See docs/TRANSMISSION_MODEL.md
/// for the full model semantics.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/csr.hpp"
#include "net/network.hpp"
#include "net/types.hpp"
#include "sim/batch.hpp"

namespace perigee::runner {
class ThreadPool;
}  // namespace perigee::runner

namespace perigee::sim {

/// Message sizes, band assignment and rate shaping for the egress engine.
/// All sizes are bytes and all rates derive from node bandwidth profiles
/// (`EgressPlan`); the scenario layer owns the KB-denominated user-facing
/// mirror (`scenario::TransmissionRegime`) and converts.
struct EgressConfig {
  /// Block payload size in bytes (Bitcoin-like default: 200 KB).
  double block_bytes = 200'000.0;
  /// Control-plane message size in bytes (INV/headers chatter) charged per
  /// neighbor per broadcast. Controls consume egress bandwidth but never
  /// deliver the block — the propagation δ already folds the request round
  /// trip (`net::NetworkOptions::handshake_factor`).
  double control_bytes = 0.0;
  /// True routes the payload through the compact-block band of `band_map`
  /// instead of the full-block band. Pair with a smaller `block_bytes` to
  /// model compact-block relay.
  bool compact_blocks = false;
  /// Multiplier applied to every node's profile-derived rate; 1.0 uses
  /// `bandwidth_mbps` as-is.
  double rate_scale = 1.0;
  /// Token-bucket depth in bytes. 0 (default) disables bursting: every
  /// message serializes for exactly size/rate ms. A bucket larger than a
  /// sender's whole backlog makes that sender effectively delay-only.
  double burst_bytes = 0.0;
  /// True short-circuits all rate/token arithmetic: every send completes at
  /// its dequeue instant. This is the delay-only parity configuration.
  bool unlimited_rate = false;
  /// pfifo_fast-style priority→band map: `band_map[0]` is the band of
  /// control messages, `[1]` compact-block payloads, `[2]` full-block
  /// payloads. Lower bands drain strictly first; within a band messages
  /// are FIFO in enqueue order (controls before payloads, each in CSR
  /// adjacency order).
  std::array<std::uint8_t, 3> band_map = {0, 1, 2};

  /// Band the control messages ride.
  std::uint8_t control_band() const { return band_map[0]; }
  /// Band the block payload rides (honoring `compact_blocks`).
  std::uint8_t payload_band() const { return band_map[compact_blocks ? 1 : 2]; }
};

/// Per-node egress rates compiled from a network's profiles:
/// `rate = bandwidth_mbps * 125 bytes/ms * rate_scale` (consistent with the
/// analytic `block_size_kb * 8 / mbps` ms transmission term of
/// `net::Network::edge_delay_from_link_ms`, which must stay disabled when
/// this engine runs — see `scenario::adjust_network_options`). Rebuild when
/// `net::Network::profile_version()` moves; `EgressPlanCache` automates
/// that.
class EgressPlan {
 public:
  /// Compiles per-node rates from `network`'s current profiles.
  static EgressPlan build(const net::Network& network,
                          const EgressConfig& config);

  /// Egress rate of node `v` in bytes/ms.
  double rate(net::NodeId v) const { return rates_[v]; }
  /// Number of nodes the plan covers.
  std::size_t size() const { return rates_.size(); }
  /// `profile_version()` of the network the plan was built from.
  std::uint64_t profile_version() const { return profile_version_; }

 private:
  std::vector<double> rates_;
  std::uint64_t profile_version_ = 0;
};

/// Rebuilds an `EgressPlan` only when its inputs actually changed: the
/// network's profiles (churn rejoin, hetero tier edits — the same
/// version-counter pattern `net::CsrCache` uses for snapshots) or the
/// config's `rate_scale`.
class EgressPlanCache {
 public:
  /// Cached plan for `network`'s current profiles under `config`; rebuilds
  /// on a `profile_version()`, size or `rate_scale` mismatch.
  const EgressPlan& get(const net::Network& network,
                        const EgressConfig& config);

 private:
  EgressPlan plan_;
  double rate_scale_ = 0.0;
  bool valid_ = false;
};

/// The egress solver's scratch is the batch driver's lane arena: one
/// `SourceLane` type carries both solvers' state.
using EgressScratch = MultiSourceScratch;

/// Batch form mirroring `simulate_broadcast_batch`: all sources over one
/// snapshot into per-source stripes of `out`, through the batch driver's
/// materializing body — byte-identical at any worker count. A one-element
/// span is the single-source path.
void simulate_broadcast_egress_batch(const net::CsrTopology& csr,
                                     const EgressConfig& config,
                                     const EgressPlan& plan,
                                     std::span<const net::NodeId> sources,
                                     EgressScratch& scratch,
                                     MultiSourceResult& out,
                                     runner::ThreadPool* pool = nullptr);

/// λ shape mirroring `coverage_batch`: every entry of `sources` runs until
/// the highest coverage of `targets` is reached, through the batch driver's
/// observing body (`observe_batch`). The source counts at t=0.
void coverage_egress_batch(const net::CsrTopology& csr,
                           const EgressConfig& config, const EgressPlan& plan,
                           std::span<const net::NodeId> sources,
                           EgressScratch& scratch,
                           const CoverageTargets& targets,
                           CoverageTimes& times,
                           runner::ThreadPool* pool = nullptr);

}  // namespace perigee::sim

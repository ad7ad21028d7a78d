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
/// source over a (time, sequence) min-heap — ties in time break FIFO by
/// schedule order, so one source's outcome is a pure function of
/// (snapshot, config, plan, source). Batches fan sources across an optional
/// `runner::ThreadPool` with pre-assigned result stripes exactly like
/// `sim/batch.hpp`, so output is byte-identical at any worker count.
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
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "net/csr.hpp"
#include "net/network.hpp"
#include "net/types.hpp"
#include "sim/batch.hpp"
#include "sim/broadcast.hpp"

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

/// Rebuilds an `EgressPlan` only when the network's profiles actually
/// changed (churn rejoin, hetero tier edits) — the same version-counter
/// pattern `net::CsrCache` uses for snapshots.
class EgressPlanCache {
 public:
  /// Cached plan for `network`'s current profiles; rebuilds on
  /// `profile_version()` or size mismatch.
  const EgressPlan& get(const net::Network& network,
                        const EgressConfig& config);

 private:
  EgressPlan plan_;
  bool valid_ = false;
};

/// Reusable arena of per-worker scratch lanes for the egress engine,
/// mirroring `MultiSourceScratch`: lanes grow on demand, survive across
/// batches, and each concurrent worker owns exactly one.
class EgressScratch {
 public:
  EgressScratch();
  ~EgressScratch();
  EgressScratch(EgressScratch&&) noexcept;
  EgressScratch& operator=(EgressScratch&&) noexcept;

  struct Lane;
  /// Lane `i`, valid until the next `ensure_lanes`.
  Lane& lane(std::size_t i);
  /// Lanes currently allocated.
  std::size_t lanes() const;
  /// Grows the pool to at least `count` lanes.
  void ensure_lanes(std::size_t count);
  /// Heap bytes across all lanes (reported through the
  /// `mem.egress_scratch_bytes` obs gauge after each batch).
  std::size_t memory_bytes() const;

 private:
  std::vector<std::unique_ptr<Lane>> lanes_;
};

/// One discrete event: (time, schedule sequence) orders the heap — equal
/// times break FIFO by `seq`, which is the engine's deterministic tie-break
/// rule (documented in docs/TRANSMISSION_MODEL.md).
struct EgressEvent {
  double time = 0.0;       ///< event timestamp, ms
  std::uint64_t seq = 0;   ///< monotone schedule order, breaks time ties
  net::NodeId node = 0;    ///< subject node
  std::uint8_t kind = 0;   ///< EgressEventKind
  bool operator<(const EgressEvent& other) const {
    if (time != other.time) return time < other.time;
    return seq < other.seq;
  }
};

/// Per-worker scratch: the event heap, arrival state, per-sender scheduler
/// state, and the same caller-usable λ sort buffers `MultiSourceScratch`
/// lanes carry (so `metrics::eval_all_sources` stays allocation-free over
/// this engine too).
struct EgressScratch::Lane {
  std::vector<EgressEvent> events;      ///< 4-ary event heap storage
  std::vector<std::uint8_t> settled;    ///< per-node "holds the block" flag
  std::vector<std::uint8_t> segment;    ///< per-sender dequeue segment index
  std::vector<std::uint32_t> edge;      ///< per-sender index into its CSR row
  std::vector<double> tokens;           ///< per-sender bucket fill, bytes
  std::vector<double> refill_time;      ///< per-sender last bucket refill, ms
  std::vector<double> arrival;          ///< streaming-form stripe
  std::vector<double> ready;            ///< streaming-form stripe
  /// (arrival, hash power) pairs for the λ coverage accumulation.
  std::vector<std::pair<double, double>> by_arrival;
  /// Ping-pong buffer for the radix sort of `by_arrival`.
  std::vector<std::pair<double, double>> sort_scratch;
};

/// Simulates one broadcast from `source` under the queuing model, writing
/// into `result` (vectors resized as needed). Deterministic: repeated calls
/// with identical inputs produce identical bytes.
void simulate_broadcast_egress(const net::CsrTopology& csr,
                               const EgressConfig& config,
                               const EgressPlan& plan, net::NodeId source,
                               EgressScratch& scratch,
                               BroadcastResult& result);

/// Batch form mirroring `simulate_broadcast_batch`: all sources over one
/// snapshot into per-source stripes of `out`, fanned across `pool` as
/// contiguous pre-assigned ranges — byte-identical at any worker count.
void simulate_broadcast_egress_batch(const net::CsrTopology& csr,
                                     const EgressConfig& config,
                                     const EgressPlan& plan,
                                     std::span<const net::NodeId> sources,
                                     EgressScratch& scratch,
                                     MultiSourceResult& out,
                                     runner::ThreadPool* pool = nullptr);

/// Streaming form mirroring `for_each_source_broadcast` (λ evaluation: n
/// sources must not materialize O(n²) doubles). `sink(lane, s, arrival,
/// ready)` may run concurrently for distinct `s` and must write only
/// s-indexed slots; with `need_ready` false the ready fill is skipped and
/// the sink receives an empty ready span.
void for_each_source_broadcast_egress(const net::CsrTopology& csr,
                                      const EgressConfig& config,
                                      const EgressPlan& plan,
                                      std::span<const net::NodeId> sources,
                                      EgressScratch& scratch,
                                      const SourceSink& sink,
                                      runner::ThreadPool* pool = nullptr,
                                      bool need_ready = true);

}  // namespace perigee::sim

/// \file
/// \brief Compiled flat-graph (compressed sparse row) view of a Topology,
/// with an incremental patch path driven by the Topology's mutation journal.
///
/// `Topology` is the *mutable* graph the protocol rewires between rounds; its
/// per-node link lists are the right shape for connect/disconnect but the
/// wrong shape for the broadcast hot loop, which visits every directed link of
/// the graph once per simulated block and pays a virtual `LatencyModel` call
/// per edge. `CsrTopology` is the immutable-per-round compiled form: one
/// contiguous offsets/peers/delay triplet with every per-edge δ(u,v)
/// pre-resolved (infra override or `Network::edge_delay_ms`), so the engine's
/// inner loop is a single array read per edge. Per-node attributes the
/// engines consult (validation delay Δv, the forwards flag) are cached
/// alongside.
///
/// A snapshot is refreshed once per round — the topology is static within a
/// round (paper §4.1). Refreshing no longer means recompiling: the learning
/// loop typically replaces a few of each node's ≤ dout out-edges per round,
/// and `apply_deltas` replays the Topology's journaled `EdgeDelta`s onto the
/// existing snapshot in place. Rows are laid out as fixed-capacity slabs
/// (sized to the degree caps), so an out-edge swap is an ordered slot
/// erase/append plus one latency-model resolution for the new edge — the
/// patched arrays are *identical* to what a fresh compile would produce,
/// entry for entry, because `Topology` mutations preserve adjacency order
/// (`adj_add` appends, `adj_remove` erases in place) and the patch mirrors
/// them. `CsrCache` picks patch vs. full rebuild by delta volume and handles
/// profile/latency staleness through the Network's version counters.
/// `tests/sim_engine_diff_test.cpp` holds patched snapshots byte-equal to
/// fresh compiles (and both to the test oracle) across every regime.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/network.hpp"
#include "net/topology.hpp"
#include "net/types.hpp"

namespace perigee::net {

/// Compressed-sparse-row snapshot of a `Topology` over a `Network`.
///
/// Row `v` lists the full relay adjacency of `v` (outgoing + incoming +
/// infra) in exactly `Topology::adjacency(v)` order, so index `i` of row `v`
/// corresponds to `adjacency(v)[i]` — consumers that captured neighbor lists
/// from the Topology (e.g. `ObservationTable`) can index CSR rows directly.
/// The order survives `apply_deltas`, which mirrors the Topology's own
/// ordered insert/erase.
class CsrTopology {
 public:
  /// Row allocation strategy for `build`.
  enum class Layout {
    /// Rows packed back to back (no slack). Smallest footprint; in-place
    /// additions do not fit, so `apply_deltas` accepts only Disconnect
    /// deltas. The default for one-shot compiles (static topologies, tests).
    Packed,
    /// Every row is a fixed-capacity slab sized to the degree caps
    /// (`out_cap + in_cap` plus the node's infra links at build time), so
    /// any p2p delta the Topology can legally produce patches in place.
    /// Used by `CsrCache` for the round loop.
    Patchable,
  };

  /// Compiles a snapshot. O(E) `edge_delay_ms`/`link_ms` evaluations; every
  /// later traversal is pure array reads. The snapshot records
  /// `topology.version()` plus the network's profile/latency versions, which
  /// `CsrCache` compares to refresh it incrementally.
  static CsrTopology build(const Topology& topology, const Network& network,
                           Layout layout = Layout::Packed);

  /// Number of nodes.
  std::size_t size() const { return offsets_.size() - 1; }
  /// Number of live directed link entries (2x undirected edge count; slab
  /// slack is not counted).
  std::size_t num_links() const { return num_links_; }
  /// `Topology::version()` the snapshot currently reflects (build version
  /// advanced by every applied delta).
  std::uint64_t built_from_version() const { return version_; }
  /// `Network::profile_version()` the cached per-node attributes reflect.
  std::uint64_t built_from_profile_version() const { return profile_version_; }
  /// `Network::latency_version()` the pre-resolved delays were frozen under.
  std::uint64_t built_from_latency_version() const { return latency_version_; }

  /// Neighbors of `v`, in `Topology::adjacency(v)` order.
  std::span<const NodeId> peers(NodeId v) const {
    return {peer_.data() + offsets_[v], row_end_[v] - offsets_[v]};
  }
  /// Block delay δ(v, peer) per neighbor of `v` (infra override or
  /// propagation + transmission), parallel to `peers(v)`.
  std::span<const double> delays(NodeId v) const {
    return {delay_ms_.data() + offsets_[v], row_end_[v] - offsets_[v]};
  }
  /// Control-message delay per neighbor of `v`: infra override or pure
  /// propagation latency (no handshake factor, no transmission term). Used by
  /// the INV/GETDATA announce solver (sim/batch.hpp).
  std::span<const double> control_delays(NodeId v) const {
    return {control_ms_.data() + offsets_[v], row_end_[v] - offsets_[v]};
  }

  /// Cached `NodeProfile::forwards` (withholding nodes relay nothing).
  bool forwards(NodeId v) const { return forwards_[v] != 0; }
  /// Cached per-node validation delay Δv in ms.
  double validation_ms(NodeId v) const { return validation_ms_[v]; }

  /// Lower bound on the smallest block δ over all live link entries (+inf
  /// when there are none). Exact after a fresh compile; after patches it is
  /// maintained conservatively — tightened by every added edge, left in
  /// place by removals, and re-derived exactly on a periodic refresh — so it
  /// never exceeds the true minimum. The batched engine derives its
  /// bucket-queue width from this; a non-positive value (a zero-latency
  /// infra edge) routes it to the heap fallback instead.
  double min_delay_ms() const { return min_delay_ms_; }
  /// Upper bound on the largest block δ over all live link entries (0 when
  /// there are none); conservative under patching like `min_delay_ms`. NaN
  /// once any entry's δ is NaN.
  double max_delay_ms() const { return max_delay_ms_; }
  /// Upper bound on the largest per-node validation delay Δv (0 for an empty
  /// graph; NaN once any Δv is NaN). Together with `max_delay_ms` this
  /// bounds how far one Dijkstra relaxation can reach past the key being
  /// settled.
  double max_validation_ms() const { return max_validation_ms_; }
  /// Lower bound on the smallest per-node validation delay Δv (0 for an
  /// empty graph); conservative under profile refreshes like
  /// `min_delay_ms`. The delay solvers refuse a snapshot whose bound is
  /// negative: a relay must not become ready before its block arrives.
  double min_validation_ms() const { return min_validation_ms_; }

  /// Raw arrays for the engine hot loop: row `v` spans
  /// `offsets()[v] .. row_ends()[v]` of `peer_data()` / `delay_data()`.
  /// (`offsets()[v + 1]` is the row's slab capacity bound, not its length —
  /// patchable layouts keep slack there for in-place edge additions.)
  const std::size_t* offsets() const { return offsets_.data(); }
  const std::size_t* row_ends() const { return row_end_.data(); }
  const NodeId* peer_data() const { return peer_.data(); }
  const double* delay_data() const { return delay_ms_.data(); }

  /// Block delay of the (adjacent) pair — O(deg(u)) row scan. Both delay
  /// kinds are symmetric, so the u-side row answers for either direction.
  double block_delay(NodeId u, NodeId v) const;
  /// Control-message delay of the (adjacent) pair — O(deg(u)) row scan.
  double control_delay(NodeId u, NodeId v) const;

  /// Replays journaled topology mutations onto the snapshot in place:
  /// Disconnect erases the two mirrored row entries (ordered, like
  /// `Topology::adj_remove`), Connect/InfraAdd append them with one
  /// latency-model resolution per new edge. Returns false when a delta does
  /// not fit (row slab full — a Packed snapshot, or an infra install beyond
  /// the build-time slack) or does not match the rows (journal from a
  /// different graph); the snapshot is then partially patched garbage and
  /// must be discarded for a rebuild, which `CsrCache` does. On success the
  /// snapshot is entry-for-entry identical to a fresh compile of the mutated
  /// topology (modulo the conservative δ bounds) and `built_from_version()`
  /// has advanced by `deltas.size()`.
  bool apply_deltas(std::span<const Topology::EdgeDelta> deltas,
                    const Network& network);

  /// Re-syncs the cached per-node attributes (forwards, Δv) with the
  /// network's live profiles after a `profile_version()` bump. Returns false
  /// when a profile field that feeds *per-edge* delays changed (region,
  /// coordinates, access latency, bandwidth) — those invalidate the
  /// pre-resolved δ arrays and require a rebuild. Changes confined to
  /// forwards / validation / hash power patch in place.
  bool refresh_profiles(const Network& network);

  /// Recomputes min/max δ and max Δv exactly from the live entries (pure
  /// array scan, no latency-model calls). `apply_deltas` invokes it
  /// periodically to keep the conservative bounds from drifting far below
  /// the truth after many removals.
  void refresh_bounds();

  /// Heap bytes behind this snapshot (arrays incl. slab slack; excludes the
  /// object header). `build` reports it through the `mem.csr_bytes` obs
  /// gauge so scale runs can audit their memory budget.
  std::size_t memory_bytes() const;

 private:
  CsrTopology() = default;

  bool append_entry(NodeId u, NodeId v, double delay, double control);
  bool remove_entry(NodeId u, NodeId v, std::uint32_t slot);

  /// Per-node copy of the profile fields that feed per-edge delay
  /// resolution; `refresh_profiles` compares against the live profiles to
  /// decide patch vs. rebuild.
  struct EdgeInputs {
    Region region;
    std::array<double, kMaxEmbedDim> coords;
    double access_ms;
    double bandwidth_mbps;
    bool operator==(const EdgeInputs&) const = default;
  };
  static EdgeInputs edge_inputs_of(const NodeProfile& profile);

  std::uint64_t version_ = 0;
  std::uint64_t profile_version_ = 0;
  std::uint64_t latency_version_ = 0;
  std::vector<std::size_t> offsets_;      ///< n+1 row slab boundaries
  std::vector<std::size_t> row_end_;      ///< per-row live end (absolute)
  std::vector<NodeId> peer_;              ///< flattened adjacency (+ slack)
  std::vector<double> delay_ms_;          ///< pre-resolved block δ per entry
  std::vector<double> control_ms_;        ///< pre-resolved control δ per entry
  std::vector<std::uint8_t> forwards_;    ///< per-node relay flag
  std::vector<double> validation_ms_;     ///< per-node Δv
  std::vector<EdgeInputs> edge_inputs_;   ///< per-node delay-input fingerprint
  std::size_t num_links_ = 0;             ///< live entries across all rows
  double min_delay_ms_ = 0.0;             ///< conservative min block δ
  double max_delay_ms_ = 0.0;             ///< conservative max block δ
  double max_validation_ms_ = 0.0;        ///< conservative max Δv
  double min_validation_ms_ = 0.0;        ///< conservative min Δv
  std::size_t removals_since_refresh_ = 0;  ///< staleness of the δ bounds
};

/// Refresh-on-demand cache: hands out a `CsrTopology` snapshot current for
/// the topology's mutation counter and the network's profile/latency
/// versions. The round loop calls `get` once per round: within a round every
/// version is stable, so K blocks share one snapshot; across rounds the
/// selectors' rewiring is absorbed by replaying the Topology's mutation
/// journal onto the snapshot (`apply_deltas`) instead of recompiling —
/// an O(changed edges) patch instead of O(n + m) latency-model calls.
///
/// `get` falls back to a full rebuild when patching cannot reproduce a fresh
/// compile or would not pay for itself: the journal no longer reaches back to
/// the snapshot's version, the delta volume exceeds `patch budget` (mass
/// join/leave churn epochs), the latency model was swapped, or a profile
/// edit touched per-edge delay inputs (bandwidth tiers, coordinates). All of
/// these are detected automatically through the version counters — no manual
/// `invalidate()` call is needed for latency-model or bandwidth edits.
class CsrCache {
 public:
  /// Returns a snapshot current for `topology.version()` and the network's
  /// live profile/latency versions, patching or rebuilding as needed. The
  /// reference stays valid until the next `get`/`invalidate`.
  const CsrTopology& get(const Topology& topology, const Network& network);

  /// Drops the snapshot; the next `get` rebuilds unconditionally. The
  /// version counters make every known staleness source automatic, so this
  /// is only a belt-and-braces escape hatch for exotic out-of-band mutation.
  void invalidate() { csr_.reset(); }

  /// Disables (or re-enables) the journal patch path: with `enabled` false
  /// every version change forces a full recompile, exactly the pre-journal
  /// behavior. The differential tests and the incremental-CSR benchmark use
  /// this to A/B the two paths on identical mutation sequences.
  void set_patching(bool enabled) { patching_ = enabled; }

  /// Full compiles performed so far (introspection for tests/benches).
  std::size_t rebuilds() const { return rebuilds_; }
  /// Journal patch applications performed so far.
  std::size_t patches() const { return patches_; }

 private:
  std::optional<CsrTopology> csr_;
  bool patching_ = true;
  std::size_t rebuilds_ = 0;
  std::size_t patches_ = 0;
};

}  // namespace perigee::net

/// \file
/// \brief Network: the immutable-per-experiment substrate of nodes + latency
/// model.
///
/// A Network owns the node profiles (region, Δv, bandwidth, hash power) and a
/// LatencyModel, and exposes the per-edge block delay
///   δ(u,v) = link_ms(u,v) + transmission_ms(u,v)
/// of the paper's §2.1 model. Topologies are separate objects
/// (net/topology.hpp) so many topologies can be evaluated over one Network.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/latency.hpp"
#include "net/profile.hpp"
#include "net/types.hpp"

namespace perigee::net {

/// Everything Network::build needs to sample a network deterministically.
struct NetworkOptions {
  /// Which latency substrate backs link_ms.
  enum class LatencyKind { Geo, Euclidean };

  std::size_t n = 1000;        ///< number of nodes
  std::uint64_t seed = 1;      ///< master sampling seed

  LatencyKind latency = LatencyKind::Geo;  ///< latency substrate selector

  // Geo model parameters.
  /// Per-pair multiplicative jitter: real measured paths (iPlane) scatter
  /// widely around the regional mean, and that scatter is the structure a
  /// learning protocol exploits beyond coarse geography.
  double jitter_frac = 0.4;
  double access_min_ms = 1.0;  ///< per-node access delay lower bound
  double access_max_ms = 6.0;  ///< per-node access delay upper bound

  // Euclidean model parameters (used when latency == Euclidean).
  int embed_dim = 2;               ///< embedding dimension d
  double embed_scale_ms = 100.0;   ///< ms per unit of embedded distance

  /// Block validation Δv ~ Uniform[mean*(1-spread), mean*(1+spread)] * scale.
  /// The paper's default is mean 50 ms; `validation_scale` implements the
  /// 0.1x/0.5x/5x/10x sweep of Figure 4(a).
  double validation_mean_ms = kDefaultValidationMs;
  double validation_spread = 0.2;   ///< relative half-width of the Δv draw
  double validation_scale = 1.0;    ///< Figure 4(a) sweep multiplier

  /// Per-hop protocol overhead. The paper's δ(u,v) "includes ... and
  /// protocol-specific message exchange overheads (e.g., inv, getdata
  /// exchange)" (§2.1): relaying a block over a TCP connection costs the
  /// INV -> GETDATA -> BLOCK round trips, i.e. about three one-way link
  /// traversals. edge_delay_ms multiplies the propagation latency by this
  /// factor; link_ms stays the pure one-way latency (used by the theory
  /// experiments and the explicit-handshake announce solver).
  double handshake_factor = 3.0;

  /// Transmission model. The paper's default assumes blocks are small
  /// relative to bandwidth (block_size_kb = 0 disables the term). The
  /// bandwidth heterogeneity ablation draws per-node bandwidth log-uniformly
  /// from [bandwidth_min_mbps, bandwidth_max_mbps] (Croman et al.:
  /// 3-186 Mbit/s).
  double block_size_kb = 0.0;
  bool heterogeneous_bandwidth = false;  ///< draw per-node bandwidth if true
  double bandwidth_min_mbps = 3.0;       ///< log-uniform draw lower bound
  double bandwidth_max_mbps = 186.0;     ///< log-uniform draw upper bound
  double bandwidth_default_mbps = 33.0;  ///< homogeneous bandwidth value
};

/// The sampled substrate: profiles + latency model + options echo.
class Network {
 public:
  /// Builds a network of options.n nodes: regions sampled from the bitnodes
  /// mix (or coordinates embedded uniformly), validation/bandwidth drawn per
  /// node, hash power initialized uniform. Deterministic in options.seed.
  static Network build(const NetworkOptions& options);

  /// Deep copy: fresh profile storage plus the latency model cloned and
  /// re-pointed at it. The clone returns bit-identical link/edge delays and
  /// carries the version counters over, so it is indistinguishable from the
  /// original to snapshot caches — the sweep runner clones one scenario
  /// build across cells that share every topology axis (runner/sweep.hpp).
  Network clone() const;

  /// Number of nodes.
  std::size_t size() const { return profiles_->size(); }
  /// Profile of node v.
  const NodeProfile& profile(NodeId v) const { return (*profiles_)[v]; }
  /// All profiles, indexed by NodeId.
  const std::vector<NodeProfile>& profiles() const { return *profiles_; }
  /// Mutable access for hash-power assignment and scenario setup. Every call
  /// bumps `profile_version()`, so snapshot caches (net::CsrCache) notice
  /// profile edits automatically; mutate through a fresh call per logical
  /// update rather than a long-held reference.
  std::vector<NodeProfile>& mutable_profiles() {
    ++profile_version_;
    return *profiles_;
  }

  /// Monotone counter bumped by every `mutable_profiles()` access.
  /// `CsrCache` compares it to decide whether a compiled snapshot's cached
  /// per-node attributes (forwards, Δv) and per-edge delays (which fold in
  /// access latency and, with a transmission term, bandwidth) may be stale.
  std::uint64_t profile_version() const { return profile_version_; }

  /// Monotone counter bumped by every `set_latency_model()` swap. A snapshot
  /// compiled under an older latency model froze the old per-edge delays and
  /// must be rebuilt; `CsrCache` does so automatically.
  std::uint64_t latency_version() const { return latency_version_; }

  /// One-way propagation latency of the (u, v) link in ms.
  double link_ms(NodeId u, NodeId v) const { return latency_->link_ms(u, v); }

  /// Full per-edge block delay: propagation (times the handshake factor) +
  /// transmission (0 when block size is 0 or bandwidth infinite). Symmetric.
  double edge_delay_ms(NodeId u, NodeId v) const;

  /// edge_delay_ms with the propagation latency already resolved: callers
  /// that need both link_ms and the block delay of the same pair (the CSR
  /// compile) pay the latency model once. Bit-identical to edge_delay_ms
  /// when `link_ms` is this network's link_ms(u, v).
  double edge_delay_from_link_ms(double link_ms, NodeId u, NodeId v) const;

  /// Block validation delay Δv of node v in ms.
  double validation_ms(NodeId v) const { return (*profiles_)[v].validation_ms; }

  /// The options this network was built from.
  const NetworkOptions& options() const { return options_; }
  /// The live latency model.
  const LatencyModel& latency_model() const { return *latency_; }

  /// Replaces the latency model, e.g. wrapping it in PairClassScaledModel for
  /// the Figure 4(b) mining-pool scenario. The replacement must be built over
  /// this network's profiles. Bumps `latency_version()`, so `CsrCache`
  /// rebuilds snapshots compiled before the swap automatically (they froze
  /// the old per-edge delays).
  void set_latency_model(std::unique_ptr<LatencyModel> model);

  /// Convenience for decorators: a GeoLatencyModel over this network's
  /// profiles with this network's seed/jitter.
  std::unique_ptr<LatencyModel> make_geo_model() const;

 private:
  Network(std::shared_ptr<std::vector<NodeProfile>> profiles,
          std::unique_ptr<LatencyModel> latency, NetworkOptions options);

  // shared_ptr keeps the profile storage at a stable address so latency
  // models can hold a raw pointer across Network moves.
  std::shared_ptr<std::vector<NodeProfile>> profiles_;
  std::unique_ptr<LatencyModel> latency_;
  NetworkOptions options_;
  std::uint64_t profile_version_ = 0;
  std::uint64_t latency_version_ = 0;
};

}  // namespace perigee::net

/// \file
/// \brief Declarative scenario layer: composable regimes (churn,
/// heterogeneity, geographic clustering, adversarial withholding, queued
/// transmission) applied on top of any `core::ExperimentConfig`.
///
/// The paper evaluates Perigee on static, homogeneous, honest networks and
/// leaves churn / limited views / incentives to §6. A `ScenarioSpec` makes
/// those conditions first-class experiment inputs: static regimes mutate the
/// sampled `net::Network` once after construction (bandwidth/validation
/// tiers, region concentration, withholding fraction), while the dynamic
/// churn regime is driven between rounds by `scenario::ChurnDriver`
/// (scenario/driver.hpp). Every regime draws from its own
/// `util::Rng::split` stream of the experiment seed, so scenarios preserve
/// the sweep runner's bit-identical `--jobs N` contract.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "net/geo.hpp"
#include "net/network.hpp"
#include "util/rng.hpp"

namespace perigee::scenario {

/// Node churn (paper §6): every round at or after `start_round`, a seeded
/// `rate` fraction of nodes leaves the network. With `downtime_rounds == 0` a
/// leaver rejoins immediately as a fresh node (edges torn down, out_cap
/// random redials, address book re-bootstrapped, selector state reset) — the
/// "reset churn" model. With `downtime_rounds > 0` the node stays dark for
/// that many rounds first: its hash power is stashed and zeroed, and
/// connections dialed at it while dark are torn down again (dead IP).
/// All three fields are in *update-epoch* units: one epoch is one
/// connection-update round of the |B|=100 methods. UCB spreads an epoch over
/// blocks_per_round single-block rounds, and the driver lands churn only on
/// epoch boundaries, so every algorithm in a grid endures the same schedule.
struct ChurnRegime {
  double rate = 0.0;        ///< fraction of nodes churned per epoch
  int start_round = 1;      ///< first 0-based epoch churn applies to
  int downtime_rounds = 0;  ///< epochs a leaver stays dark before rejoining
  /// True when this regime does anything.
  bool enabled() const { return rate > 0.0; }
};

/// Named heterogeneity mixes (cf. "Blockchain Nodes are Heterogeneous and
/// Your P2P Overlay Should be Too"): which per-node attributes the tier
/// split applies to.
enum class HeteroProfile {
  Off,         ///< regime disabled
  Bandwidth,   ///< fast/slow access-bandwidth tiers (transmission term on)
  Validation,  ///< fast/slow block-validation tiers
  Datacenter,  ///< bandwidth + validation tiers, hash power concentrated on
               ///< the fast tier
};

/// Two-tier node heterogeneity: a seeded `fast_fraction` of nodes gets
/// datacenter-class attributes, the rest residential-class ones.
struct HeteroRegime {
  HeteroProfile profile = HeteroProfile::Off;  ///< which attributes to tier
  double fast_fraction = 0.2;           ///< fraction of fast-tier nodes
  double fast_bandwidth_mbps = 500.0;   ///< fast-tier access bandwidth
  double slow_bandwidth_mbps = 5.0;     ///< slow-tier access bandwidth
  double fast_validation_scale = 0.25;  ///< multiplier on fast-tier Δv
  double slow_validation_scale = 2.0;   ///< multiplier on slow-tier Δv
  /// Datacenter profile only: share of total hash power held (equally) by
  /// the fast tier; the slow tier splits the remainder.
  double fast_hash_share = 0.8;
  /// Block size forced into `NetworkOptions` when bandwidth tiers are active
  /// (the default 0 KB would make bandwidth irrelevant).
  double block_size_kb = 200.0;
  /// True when this regime does anything.
  bool enabled() const { return profile != HeteroProfile::Off; }
  /// True when the mix includes bandwidth tiers.
  bool tiers_bandwidth() const {
    return profile == HeteroProfile::Bandwidth ||
           profile == HeteroProfile::Datacenter;
  }
  /// True when the mix includes validation tiers.
  bool tiers_validation() const {
    return profile == HeteroProfile::Validation ||
           profile == HeteroProfile::Datacenter;
  }
};

/// "bandwidth" / "validation" / "datacenter" / "off" (sweep labels, CLI).
std::string_view hetero_profile_name(HeteroProfile profile);
/// Inverse of hetero_profile_name; nullopt for unknown names.
std::optional<HeteroProfile> hetero_profile_from_name(std::string_view name);

/// Geographic clustering: a seeded `concentration` fraction of all nodes is
/// moved into the `hub` region (overriding the bitnodes-like mix), modelling
/// mining concentration in one geography. Latency models read regions live,
/// so the move changes link_ms without rebuilding the network.
struct GeoClusterRegime {
  double concentration = 0.0;  ///< fraction of nodes moved into `hub`
  net::Region hub = net::Region::Asia;  ///< destination region
  /// True when this regime does anything.
  bool enabled() const { return concentration > 0.0; }
};

/// Adversarial withholding (paper §1's protocol-deviation discussion): a
/// seeded `withhold_fraction` of nodes accepts blocks but never relays them
/// (`NodeProfile::forwards = false`). Perigee's scoring should route around
/// and disconnect them; static baselines cannot.
struct AdversaryRegime {
  double withhold_fraction = 0.0;  ///< fraction of withholding nodes
  /// When true (default), withholders also hold no hash power and the
  /// honest remainder is renormalized to sum to 1.
  bool zero_hash = true;
  /// True when this regime does anything.
  bool enabled() const { return withhold_fraction > 0.0; }
};

/// Which transmission model broadcasts run under — a result axis, unlike
/// the wall-clock-only `--incremental-csr` knob.
enum class TransmissionModel {
  /// Pure propagation: every edge costs its fixed δ, senders relay to all
  /// neighbors simultaneously. The default and the parity oracle.
  Delay,
  /// Event-driven egress queuing (`sim/egress.{hpp,cpp}`): per-node
  /// token-bucket rate limits derived from bandwidth profiles plus a
  /// three-band priority FIFO per sender; serialization + queue wait stack
  /// on top of δ. See docs/TRANSMISSION_MODEL.md.
  Queue,
};

/// Queued-transmission regime: the user-facing (KB-denominated) mirror of
/// `sim::EgressConfig`, carried on `ScenarioSpec` and swept through the
/// `--transmission` axis. Inert by default (`model == Delay`); the
/// experiment layer converts KB fields to bytes (×1000) when dispatching to
/// the egress engine.
struct TransmissionRegime {
  TransmissionModel model = TransmissionModel::Delay;  ///< which engine
  double block_kb = 200.0;   ///< block payload size, KB (Bitcoin-like)
  double control_kb = 1.0;   ///< per-neighbor INV/header chatter, KB
  /// Route the payload through the compact-block band (pair with a smaller
  /// `block_kb` to model compact-block relay).
  bool compact_blocks = false;
  double rate_scale = 1.0;  ///< multiplier on profile-derived egress rates
  double burst_kb = 0.0;    ///< token-bucket depth, KB (0 = pure serialize)
  /// True when the queuing engine is active.
  bool enabled() const { return model == TransmissionModel::Queue; }
};

/// "delay" / "queue" (sweep labels, CLI).
std::string_view transmission_model_name(TransmissionModel model);
/// Inverse of transmission_model_name; nullopt for unknown names.
std::optional<TransmissionModel> transmission_model_from_name(
    std::string_view name);

/// A composable scenario: any subset of the five regimes may be active.
/// Default-constructed specs are inert — experiments without scenarios are
/// bit-identical to builds that predate this layer.
struct ScenarioSpec {
  ChurnRegime churn;          ///< dynamic regime (between rounds)
  HeteroRegime hetero;        ///< static regime (applied at build)
  GeoClusterRegime geo;       ///< static regime (applied at build)
  AdversaryRegime adversary;  ///< static regime (applied at build)
  /// Engine regime (selects the broadcast transmission model per round and
  /// per λ evaluation); mutates neither topology nor profiles.
  TransmissionRegime transmission;

  /// True when any regime is active.
  bool any() const {
    return churn.enabled() || hetero.enabled() || geo.enabled() ||
           adversary.enabled() || transmission.enabled();
  }
  /// True when a regime that mutates the built Network is active.
  bool has_static() const {
    return hetero.enabled() || geo.enabled() || adversary.enabled();
  }
};

/// Pre-build adjustment: regimes that need different `NetworkOptions` (the
/// bandwidth tiers require a non-zero block size for the transmission term)
/// patch the options before `net::Network::build`. No-op for inert specs.
/// Under the queued transmission regime the bandwidth-tier block-size patch
/// is skipped entirely: the egress engine charges serialization explicitly,
/// and folding `block_size_kb` into the analytic per-edge δ as well would
/// double-count the transmission term.
void adjust_network_options(net::NetworkOptions& options,
                            const ScenarioSpec& spec);

/// Applies the static regimes (geo clustering, then heterogeneity tiers,
/// then adversarial withholding) to a freshly built network whose hash power
/// is already assigned. Deterministic in `seed`; regimes draw from disjoint
/// split streams, so enabling one never perturbs another's draws. Inert
/// specs leave the network untouched (and consume no randomness).
void apply_static_regimes(net::Network& network, const ScenarioSpec& spec,
                          std::uint64_t seed);

}  // namespace perigee::scenario

// The validity table of ExperimentConfig: every domain rule of a config
// field, with its predicate and its error text. validate(), the sweep axes,
// expand_grid and the benches' flags read it and nothing else.
#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/experiment.hpp"

namespace perigee::core {
namespace {

std::string spell(auto v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

// A domain that needs no other field. Comparisons fail for NaN.
struct Domain {
  bool (*ok)(double);
  const char* want;
};
constexpr Domain kUnit{[](double x) { return x >= 0 && x <= 1; }, "[0, 1]"};
constexpr Domain kBelow1{[](double x) { return x >= 0 && x < 1; }, "[0, 1)"};
constexpr Domain kOpen1{[](double x) { return x > 0 && x < 1; }, "(0, 1)"};
constexpr Domain kShare{[](double x) { return x > 0 && x <= 1; }, "(0, 1]"};
constexpr Domain kPositive{[](double x) { return x > 0; }, "> 0"};
constexpr Domain kFinite{[](double x) { return std::isfinite(x) && x >= 0; },
                         "a finite number >= 0"};
constexpr Domain kCount{[](double x) { return x >= 0; }, "an integer >= 0"};
constexpr Domain kSize{[](double x) { return x >= 1; }, "an integer >= 1"};

}  // namespace

std::string config_error(const ExperimentConfig& c, std::string_view only) {
  std::string error;
  // Keeps the text of the first broken rule among those `only` selects.
  const auto rule = [&](std::string_view key, bool ok, const auto& text) {
    if (!ok && error.empty() && (only.empty() || key == only)) error = text();
  };
  // One field's rule, spelled "bad <key> value '<v>' (want <want>)".
  const auto field = [&](std::string_view key, bool ok, auto value,
                         std::string_view want) {
    rule(key, ok, [&] {
      return "bad " + std::string(key) + " value '" + spell(value) +
             "' (want " + std::string(want) + ")";
    });
  };
  const auto in = [&](std::string_view key, auto value, Domain domain) {
    field(key, domain.ok(static_cast<double>(value)), value, domain.want);
  };
  const net::NetworkOptions& net = c.net;
  const scenario::ScenarioSpec& s = c.scenario;
  const int dout = c.limits.out_cap;
  constexpr std::int64_t kMaxRounds = std::numeric_limits<int>::max();

  // The table. Rules are keyed by their perigee_sweep flag where one exists
  // (first, in axis order) and by their field path otherwise.
  field("--nodes", net.n >= 2, net.n, "an integer >= 2");
  in("--rounds", c.rounds, kCount);
  rule("--rounds", learning_rounds(c) <= kMaxRounds, [&] {
    return "UCB runs rounds x |B| = " + spell(c.rounds) + " x " +
           spell(c.blocks_per_round) + " single-block rounds (want <= " +
           spell(kMaxRounds) + ")";
  });
  in("--vscales", net.validation_scale, kFinite);
  rule("--relay", !c.relay || c.relay_config.members <= net.n, [&] {
    return "the relay overlay needs n >= " + spell(c.relay_config.members) +
           " (got n=" + spell(net.n) + ")";
  });
  in("--churn", s.churn.rate, kUnit);
  in("--withhold", s.adversary.withhold_fraction, kBelow1);
  in("--ucb-c", c.params.ucb_c, kPositive);
  field("--explore", c.params.keep >= 0 && c.params.keep <= dout,
        std::int64_t{dout} - c.params.keep,
        "an integer in [0, dout]: params.keep = dout - explore");
  in("--blocks", c.blocks_per_round, kSize);
  rule("--learning", !c.message_level || !s.transmission.enabled(), [] {
    return std::string("gossip learning does not support transmission=queue");
  });
  field("--addrman", !c.partial_view || c.addrman_capacity >= 1,
        c.addrman_capacity, "full or an integer >= 1");
  in("--coverage", c.coverage, kShare);

  in("params.percentile", c.params.percentile, kUnit);
  in("params.ucb_window", c.params.ucb_window, kSize);
  in("limits.out_cap", dout, kSize);
  in("limits.in_cap", c.limits.in_cap, kCount);
  in("checkpoints", c.checkpoints, kCount);
  const bool geo = net.latency == net::NetworkOptions::LatencyKind::Geo;
  field("pool_latency_scale",
        std::isfinite(c.pool_latency_scale) && c.pool_latency_scale > 0 &&
            (geo || c.pool_latency_scale == 1),
        c.pool_latency_scale, "finite and > 0, and 1 unless latency is geo");
  in("pools.pool_fraction", c.pools.pool_fraction, kOpen1);
  in("pools.pool_share", c.pools.pool_share, kShare);
  field("relay_config.members", c.relay_config.members >= 2,
        c.relay_config.members, "an integer >= 2");
  in("relay_config.fanout", c.relay_config.fanout, kSize);
  field("addrman_bootstrap",
        !c.partial_view || c.addrman_bootstrap <= c.addrman_capacity,
        c.addrman_bootstrap, "<= addrman_capacity");
  in("net.jitter_frac", net.jitter_frac, kBelow1);
  in("net.access_min_ms", net.access_min_ms, kFinite);
  field("net.access_max_ms",
        std::isfinite(net.access_max_ms) &&
            net.access_max_ms >= net.access_min_ms,
        net.access_max_ms, "finite and >= access_min_ms");
  in("net.validation_mean_ms", net.validation_mean_ms, kFinite);
  in("net.validation_spread", net.validation_spread, kUnit);
  in("net.handshake_factor", net.handshake_factor, kFinite);
  in("net.block_size_kb", net.block_size_kb, kFinite);
  field("net.embed_dim",
        net.embed_dim >= 1 && net.embed_dim <= net::kMaxEmbedDim,
        net.embed_dim, "an integer in [1, net::kMaxEmbedDim]");
  in("net.embed_scale_ms", net.embed_scale_ms, kPositive);
  in("net.bandwidth_min_mbps", net.bandwidth_min_mbps, kPositive);
  field("net.bandwidth_max_mbps",
        net.bandwidth_max_mbps >= net.bandwidth_min_mbps,
        net.bandwidth_max_mbps, ">= bandwidth_min_mbps");
  in("net.bandwidth_default_mbps", net.bandwidth_default_mbps, kPositive);
  in("scenario.churn.downtime_rounds", s.churn.downtime_rounds, kCount);
  in("scenario.hetero.fast_fraction", s.hetero.fast_fraction, kUnit);
  in("scenario.geo.concentration", s.geo.concentration, kUnit);
  return error;
}

void ExperimentConfig::validate() const {
  if (std::string error = config_error(*this); !error.empty()) {
    throw std::invalid_argument(error);
  }
}

}  // namespace perigee::core

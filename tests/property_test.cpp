// Parameterized property suites: invariants that must hold across network
// sizes, seeds, topology policies and scoring algorithms.
#include <gtest/gtest.h>

#include <cmath>
#include <queue>
#include <tuple>

#include "broadcast_oracle.hpp"
#include "core/experiment.hpp"
#include "core/perigee.hpp"
#include "metrics/eval.hpp"
#include "sim/rounds.hpp"
#include "topo/builders.hpp"
#include "util/stats.hpp"

namespace perigee {
namespace {

// ---------------------------------------------------------------------------
// Broadcast invariants across (n, seed).

class BroadcastProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
 protected:
  void SetUp() override {
    const auto [n, seed] = GetParam();
    net::NetworkOptions options;
    options.n = n;
    options.seed = seed;
    network_.emplace(net::Network::build(options));
    topology_.emplace(n);
    util::Rng rng(seed);
    topo::build_random(*topology_, rng);
  }

  std::optional<net::Network> network_;
  std::optional<net::Topology> topology_;
};

TEST_P(BroadcastProperty, ArrivalsNonNegativeAndMinerZero) {
  const auto miner = static_cast<net::NodeId>(network_->size() / 2);
  const auto result = oracle::simulate_broadcast(*topology_, *network_, miner);
  EXPECT_DOUBLE_EQ(result.arrival[miner], 0.0);
  for (double a : result.arrival) EXPECT_GE(a, 0.0);
}

TEST_P(BroadcastProperty, ArrivalBoundedByLatencyDiameterPath) {
  // Any arrival must be at least the direct link's edge delay / at most the
  // sum over the heaviest possible path — sanity-band the extremes.
  const auto result = oracle::simulate_broadcast(*topology_, *network_, 0);
  for (net::NodeId v = 1; v < network_->size(); ++v) {
    if (std::isinf(result.arrival[v])) continue;
    // Cannot beat the best single hop from the miner.
    EXPECT_GE(result.arrival[v] + 1e-9,
              std::min(network_->edge_delay_ms(0, v),
                       3.0 * net::min_region_latency_ms() * 0.8));
  }
}

TEST_P(BroadcastProperty, EverybodyReachedOnRandomTopology) {
  const auto result = oracle::simulate_broadcast(*topology_, *network_, 1);
  for (net::NodeId v = 0; v < network_->size(); ++v) {
    EXPECT_TRUE(std::isfinite(result.arrival[v]));
  }
}

TEST_P(BroadcastProperty, AnnounceSolverMatchesReferenceAndNeverBeatsPush) {
  // The message-level relay on every parameterized topology: the announce
  // solver equals its event-loop reference to the bit, and at
  // handshake_factor 1 (one link delay per pushed hop) the handshake never
  // delivers earlier than the delay solver's push.
  net::NetworkOptions options = network_->options();
  options.handshake_factor = 1.0;
  const auto flat = net::Network::build(options);
  const auto csr = net::CsrTopology::build(*topology_, flat);
  const auto got = oracle::announce_batch_of_one(csr, 2);
  const auto want = oracle::gossip_reference(csr, 2).result;
  const auto push = oracle::simulate_broadcast(*topology_, flat, 2);
  for (net::NodeId v = 0; v < flat.size(); ++v) {
    EXPECT_EQ(got.arrival[v], want.arrival[v]) << "node " << v;
    EXPECT_EQ(got.ready[v], want.ready[v]) << "node " << v;
    EXPECT_GE(got.arrival[v] + 1e-9, push.arrival[v]) << "node " << v;
  }
}

TEST_P(BroadcastProperty, LambdaMonotoneInCoverage) {
  const auto result = oracle::simulate_broadcast(*topology_, *network_, 3);
  double prev = 0;
  for (double coverage : {0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
    const double l = metrics::lambda_for_broadcast(result, *network_, coverage);
    EXPECT_GE(l + 1e-9, prev);
    prev = l;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BroadcastProperty,
    ::testing::Combine(::testing::Values(64u, 200u, 500u),
                       ::testing::Values(1u, 7u, 1234u)));

// ---------------------------------------------------------------------------
// Topology-policy invariants: every builder yields a cap-respecting,
// connected-enough overlay.

class BuilderProperty
    : public ::testing::TestWithParam<std::tuple<core::Algorithm, std::uint64_t>> {};

TEST_P(BuilderProperty, InitialTopologyRespectsCapsAndConnectivity) {
  const auto [algorithm, seed] = GetParam();
  core::ExperimentConfig config;
  config.net.n = 300;
  config.seed = seed;
  config.algorithm = algorithm;
  core::Scenario scenario = core::build_scenario(config);
  core::build_initial_topology(config, scenario);
  scenario.topology.validate();

  // Connectivity via BFS on the union adjacency.
  std::vector<bool> seen(scenario.topology.size(), false);
  std::queue<net::NodeId> queue;
  queue.push(0);
  seen[0] = true;
  std::size_t reached = 0;
  while (!queue.empty()) {
    const net::NodeId u = queue.front();
    queue.pop();
    ++reached;
    for (const auto& link : scenario.topology.adjacency(u)) {
      if (!seen[link.peer]) {
        seen[link.peer] = true;
        queue.push(link.peer);
      }
    }
  }
  EXPECT_EQ(reached, scenario.topology.size());
}

INSTANTIATE_TEST_SUITE_P(
    Policies, BuilderProperty,
    ::testing::Combine(::testing::Values(core::Algorithm::Random,
                                         core::Algorithm::Geographic,
                                         core::Algorithm::Kademlia,
                                         core::Algorithm::KNearestOracle),
                       ::testing::Values(11u, 22u)));

// ---------------------------------------------------------------------------
// Selector invariants: after many rounds of any adaptive policy the
// structure is intact, deterministic, and no worse than the random start.

class SelectorProperty
    : public ::testing::TestWithParam<std::tuple<core::Algorithm, std::uint64_t>> {};

TEST_P(SelectorProperty, LearningPreservesInvariantsAndHelps) {
  const auto [algorithm, seed] = GetParam();
  core::ExperimentConfig config;
  config.net.n = 250;
  config.rounds = 12;
  config.blocks_per_round = 50;
  config.seed = seed;
  config.algorithm = algorithm;

  core::Scenario scenario = core::build_scenario(config);
  core::build_initial_topology(config, scenario);
  const double before = util::mean(
      metrics::eval_all_sources(scenario.topology, scenario.network, 0.9));

  const bool ucb = algorithm == core::Algorithm::PerigeeUcb;
  sim::RoundRunner runner(
      scenario.network, scenario.topology,
      core::make_selectors(scenario.network.size(), algorithm, config.params),
      ucb ? 1 : config.blocks_per_round, config.seed);
  runner.run_rounds(ucb ? config.rounds * config.blocks_per_round
                        : config.rounds);

  scenario.topology.validate();
  for (net::NodeId v = 0; v < scenario.topology.size(); ++v) {
    EXPECT_LE(scenario.topology.out_count(v),
              scenario.topology.limits().out_cap);
    EXPECT_GE(scenario.topology.out_count(v), 1);  // never starves
    EXPECT_LE(scenario.topology.in_count(v), scenario.topology.limits().in_cap);
  }
  const double after = util::mean(
      metrics::eval_all_sources(scenario.topology, scenario.network, 0.9));
  EXPECT_LT(after, before * 1.03);  // never meaningfully worse
}

TEST_P(SelectorProperty, RunsAreDeterministic) {
  const auto [algorithm, seed] = GetParam();
  core::ExperimentConfig config;
  config.net.n = 150;
  config.rounds = 4;
  config.blocks_per_round = 30;
  config.seed = seed;
  config.algorithm = algorithm;
  const auto a = core::run_experiment(config);
  const auto b = core::run_experiment(config);
  EXPECT_EQ(a.lambda, b.lambda);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, SelectorProperty,
    ::testing::Combine(::testing::Values(core::Algorithm::PerigeeVanilla,
                                         core::Algorithm::PerigeeUcb,
                                         core::Algorithm::PerigeeSubset),
                       ::testing::Values(3u, 77u)));

// ---------------------------------------------------------------------------
// Percentile properties across quantiles and sizes.

class PercentileProperty
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(PercentileProperty, BoundedMonotoneAndTranslationInvariant) {
  const auto [q, n] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(n) * 31 + 7);
  std::vector<double> sample;
  for (int i = 0; i < n; ++i) sample.push_back(rng.uniform(-50, 50));

  const double p = util::percentile(sample, q);
  const auto [lo, hi] = std::minmax_element(sample.begin(), sample.end());
  EXPECT_GE(p, *lo);
  EXPECT_LE(p, *hi);

  // Monotone in q.
  EXPECT_LE(util::percentile(sample, q * 0.5), p + 1e-9);

  // Translation equivariance.
  std::vector<double> shifted = sample;
  for (double& x : shifted) x += 123.0;
  EXPECT_NEAR(util::percentile(shifted, q), p + 123.0, 1e-9);

  // Scale equivariance.
  std::vector<double> scaled = sample;
  for (double& x : scaled) x *= 3.0;
  EXPECT_NEAR(util::percentile(scaled, q), p * 3.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Quantiles, PercentileProperty,
    ::testing::Combine(::testing::Values(0.1, 0.5, 0.9, 0.99),
                       ::testing::Values(1, 2, 10, 101, 1000)));

}  // namespace
}  // namespace perigee

#include "broadcast_oracle.hpp"
#include "metrics/eval.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "net/csr.hpp"
#include "runner/thread_pool.hpp"
#include "sim/egress.hpp"
#include "sim/relaxer.hpp"
#include "topo/builders.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perigee::metrics {
namespace {

net::Network make_line_network(const std::vector<double>& xs,
                               double validation_ms = 0.0) {
  net::NetworkOptions options;
  options.n = xs.size();
  options.latency = net::NetworkOptions::LatencyKind::Euclidean;
  options.embed_dim = 1;
  options.embed_scale_ms = 1.0;
  options.handshake_factor = 1.0;
  options.validation_mean_ms = validation_ms;
  options.validation_spread = 0.0;
  net::Network network = net::Network::build(options);
  auto& profiles = network.mutable_profiles();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    profiles[i].coords = {xs[i], 0, 0, 0, 0};
  }
  return network;
}

TEST(Lambda, CoverageAccumulatesHashPower) {
  // Chain 0-1-2-3 at x = 0, 10, 20, 30; uniform power (0.25 each).
  auto network = make_line_network({0.0, 10.0, 20.0, 30.0});
  net::Topology t(4);
  t.connect(0, 1);
  t.connect(1, 2);
  t.connect(2, 3);
  const auto result = oracle::simulate_broadcast(t, network, 0);
  // Arrivals: 0, 10, 20, 30. Cumulative power 0.25/0.5/0.75/1.0.
  EXPECT_DOUBLE_EQ(lambda_for_broadcast(result, network, 0.25), 0.0);
  EXPECT_DOUBLE_EQ(lambda_for_broadcast(result, network, 0.50), 10.0);
  EXPECT_DOUBLE_EQ(lambda_for_broadcast(result, network, 0.75), 20.0);
  EXPECT_DOUBLE_EQ(lambda_for_broadcast(result, network, 0.90), 30.0);
  EXPECT_DOUBLE_EQ(lambda_for_broadcast(result, network, 1.00), 30.0);
}

TEST(Lambda, MinerPowerCountsImmediately) {
  auto network = make_line_network({0.0, 10.0});
  network.mutable_profiles()[0].hash_power = 0.9;
  network.mutable_profiles()[1].hash_power = 0.1;
  net::Topology t(2);
  t.connect(0, 1);
  const auto result = oracle::simulate_broadcast(t, network, 0);
  // The miner alone already covers 90%.
  EXPECT_DOUBLE_EQ(lambda_for_broadcast(result, network, 0.90), 0.0);
  EXPECT_DOUBLE_EQ(lambda_for_broadcast(result, network, 0.95), 10.0);
}

TEST(Lambda, UnreachableCoverageIsInfinite) {
  auto network = make_line_network({0.0, 10.0, 20.0});
  net::Topology t(3);
  t.connect(0, 1);  // node 2 isolated
  const auto result = oracle::simulate_broadcast(t, network, 0);
  EXPECT_TRUE(std::isfinite(lambda_for_broadcast(result, network, 0.66)));
  EXPECT_TRUE(std::isinf(lambda_for_broadcast(result, network, 0.90)));
}

TEST(EvalAllSources, MatchesPerSourceBroadcast) {
  net::NetworkOptions options;
  options.n = 60;
  options.seed = 21;
  const auto network = net::Network::build(options);
  net::Topology t(60);
  util::Rng rng(21);
  topo::build_random(t, rng);
  const auto lambda = eval_all_sources(t, network, 0.9);
  ASSERT_EQ(lambda.size(), 60u);
  for (net::NodeId v : {net::NodeId{0}, net::NodeId{30}, net::NodeId{59}}) {
    const auto result = oracle::simulate_broadcast(t, network, v);
    EXPECT_DOUBLE_EQ(lambda[v], lambda_for_broadcast(result, network, 0.9));
  }
}

// The multi-coverage forms serve every coverage from one broadcast pass per
// source; each of their vectors must be the single-coverage call, bit for
// bit, in input order. The network withholds at a fifth of its nodes and
// leaves one node isolated, so coverage 1.0 is +inf for every source and
// some lower thresholds go unreachable too.
class MultiCoverageParity : public ::testing::TestWithParam<bool> {
 protected:
  static constexpr std::size_t kNodes = 70;

  static net::Network make_network(bool bandwidth_tiers) {
    net::NetworkOptions options;
    options.n = kNodes;
    options.seed = 31;
    options.heterogeneous_bandwidth = bandwidth_tiers;
    net::Network network = net::Network::build(options);
    for (net::NodeId v = 0; v < kNodes; v += 5) {
      network.mutable_profiles()[v].forwards = false;
    }
    return network;
  }

  static net::Topology make_topology() {
    net::Topology t(kNodes);
    util::Rng rng(31);
    topo::build_random(t, rng);
    t.disconnect_all(kNodes - 1);
    return t;
  }

  static std::vector<std::vector<double>> coverage_orders() {
    return {{0.9, 0.5, 1.0}, {1.0, 0.5, 0.9}};
  }

  // Checks `multi` against `single(coverage)` for every coverage, and that
  // the +inf corner is really exercised.
  template <typename Single>
  static void expect_parity(const std::vector<double>& coverages,
                            const std::vector<std::vector<double>>& multi,
                            const Single& single) {
    ASSERT_EQ(multi.size(), coverages.size());
    for (std::size_t k = 0; k < coverages.size(); ++k) {
      const auto expected = single(coverages[k]);
      ASSERT_EQ(multi[k].size(), expected.size());
      for (std::size_t v = 0; v < expected.size(); ++v) {
        EXPECT_EQ(multi[k][v], expected[v])
            << "coverage " << coverages[k] << " source " << v;
      }
      if (coverages[k] == 1.0) {
        for (const double l : multi[k]) EXPECT_TRUE(std::isinf(l));
      }
    }
  }
};

TEST_P(MultiCoverageParity, DelayEngineMatchesSingleCoverage) {
  const bool pooled = GetParam();
  const auto network = make_network(/*bandwidth_tiers=*/false);
  const auto csr = net::CsrTopology::build(make_topology(), network);
  runner::ThreadPool pool(3);
  runner::ThreadPool* workers = pooled ? &pool : nullptr;
  for (const auto& coverages : coverage_orders()) {
    sim::Relaxer relaxer;
    const auto multi =
        eval_all_sources_multi(csr, network, coverages, relaxer, workers);
    expect_parity(coverages, multi, [&](double coverage) {
      return eval_all_sources(csr, network, coverage, nullptr, workers);
    });
  }
}

TEST_P(MultiCoverageParity, EgressEngineMatchesSingleCoverage) {
  const bool pooled = GetParam();
  runner::ThreadPool pool(3);
  runner::ThreadPool* workers = pooled ? &pool : nullptr;
  for (const bool bandwidth_tiers : {false, true}) {
    const auto network = make_network(bandwidth_tiers);
    const auto csr = net::CsrTopology::build(make_topology(), network);
    sim::EgressConfig config;
    // Without tiers every rate is unlimited (the delay-engine corner); with
    // them, serialization and queueing shape the arrivals.
    config.unlimited_rate = !bandwidth_tiers;
    const auto plan = sim::EgressPlan::build(network, config);
    for (const auto& coverages : coverage_orders()) {
      sim::Relaxer relaxer(config);
      const auto multi =
          eval_all_sources_multi(csr, network, coverages, relaxer, workers);
      expect_parity(coverages, multi, [&](double coverage) {
        return eval_all_sources_egress(csr, network, config, plan, coverage,
                                       nullptr, workers);
      });
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Pool, MultiCoverageParity, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "ThreeWorkers" : "NoPool";
                         });

TEST(EvalIdeal, MatchesMaterializedClique) {
  // The analytic ideal must equal an actually materialized fully-connected
  // topology (the direct-delivery model has no multi-hop shortcuts when the
  // triangle inequality holds, which Euclidean latencies guarantee and the
  // +validation term only strengthens).
  net::NetworkOptions options;
  options.n = 40;
  options.seed = 22;
  options.latency = net::NetworkOptions::LatencyKind::Euclidean;
  options.embed_dim = 2;
  options.embed_scale_ms = 100.0;
  const auto network = net::Network::build(options);

  net::Topology clique(40, {.out_cap = 40, .in_cap = 40});
  for (net::NodeId u = 0; u < 40; ++u) {
    for (net::NodeId v = u + 1; v < 40; ++v) clique.connect(u, v);
  }
  const auto analytic = eval_ideal(network, 0.9);
  const auto simulated = eval_all_sources(clique, network, 0.9);
  for (net::NodeId v = 0; v < 40; ++v) {
    EXPECT_NEAR(analytic[v], simulated[v], 1e-9);
  }
}

TEST(EvalIdeal, LowerBoundsEveryTopology) {
  net::NetworkOptions options;
  options.n = 80;
  options.seed = 23;
  const auto network = net::Network::build(options);
  net::Topology t(80);
  util::Rng rng(23);
  topo::build_random(t, rng);
  const auto sparse = eval_all_sources(t, network, 0.9);
  const auto ideal = eval_ideal(network, 0.9);
  for (net::NodeId v = 0; v < 80; ++v) {
    EXPECT_LE(ideal[v], sparse[v] + 1e-9);
  }
}

TEST(EvalIdeal, HigherCoverageNeverFaster) {
  net::NetworkOptions options;
  options.n = 50;
  options.seed = 24;
  const auto network = net::Network::build(options);
  const auto l50 = eval_ideal(network, 0.5);
  const auto l90 = eval_ideal(network, 0.9);
  for (net::NodeId v = 0; v < 50; ++v) {
    EXPECT_LE(l50[v], l90[v] + 1e-9);
  }
}

TEST(Lambda, ExponentialPowerShiftsCoverage) {
  // Nodes: source plus two others, one with almost all remaining power far
  // away. λ at 90% must wait for the heavy node.
  auto network = make_line_network({0.0, 10.0, 500.0});
  network.mutable_profiles()[0].hash_power = 0.05;
  network.mutable_profiles()[1].hash_power = 0.05;
  network.mutable_profiles()[2].hash_power = 0.90;
  net::Topology t(3);
  t.connect(0, 1);
  t.connect(0, 2);
  const auto result = oracle::simulate_broadcast(t, network, 0);
  EXPECT_DOUBLE_EQ(lambda_for_broadcast(result, network, 0.9), 500.0);
}

}  // namespace
}  // namespace perigee::metrics

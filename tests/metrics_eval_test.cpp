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

// The settle-order λ (a sim::CoverageObserver fed by each solver's pops,
// stopping at the highest coverage) against the sorted scan of
// lambda_for_broadcast over the full broadcast, on hand-built corners:
// through the delay solver (bucket and heap walks), the egress solver (at
// unlimited and at finite rates) and the ideal bound's dense walk.
class SettleOrderLambda : public ::testing::TestWithParam<bool> {
 protected:
  runner::ThreadPool* workers() { return GetParam() ? &pool_ : nullptr; }

  // λ of every source at every coverage, read by lambda_for_broadcast off
  // `broadcast(v)`, the full broadcast from v.
  template <typename Broadcast>
  static std::vector<std::vector<double>> reference(
      const net::Network& network, const std::vector<double>& coverages,
      const Broadcast& broadcast) {
    std::vector<std::vector<double>> lambda(
        coverages.size(), std::vector<double>(network.size()));
    for (net::NodeId v = 0; v < network.size(); ++v) {
      const sim::BroadcastResult result = broadcast(v);
      for (std::size_t k = 0; k < coverages.size(); ++k) {
        lambda[k][v] = lambda_for_broadcast(result, network, coverages[k]);
      }
    }
    return lambda;
  }

  static void expect_same(const std::vector<std::vector<double>>& got,
                          const std::vector<std::vector<double>>& want,
                          const char* engine) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
      ASSERT_EQ(got[k].size(), want[k].size());
      for (std::size_t v = 0; v < want[k].size(); ++v) {
        EXPECT_EQ(got[k][v], want[k][v])
            << engine << ": coverage #" << k << " source " << v;
      }
    }
  }

  // Checks the delay solver and the egress solver at unlimited and at
  // finite rates against the reference; returns the delay solver's λ and
  // the finite-rate egress λ.
  std::pair<std::vector<std::vector<double>>, std::vector<std::vector<double>>>
  expect_sparse_parity(const net::Network& network,
                       const net::Topology& topology,
                       const std::vector<double>& coverages) {
    const auto csr = net::CsrTopology::build(topology, network);
    const auto delay_want = reference(network, coverages, [&](net::NodeId v) {
      return oracle::simulate_broadcast(topology, network, v);
    });
    sim::Relaxer delay;
    auto delay_got =
        eval_all_sources_multi(csr, network, coverages, delay, workers());
    expect_same(delay_got, delay_want, "delay");

    sim::EgressConfig unlimited;
    unlimited.unlimited_rate = true;
    sim::Relaxer unlimited_relaxer(unlimited);
    expect_same(eval_all_sources_multi(csr, network, coverages,
                                       unlimited_relaxer, workers()),
                delay_want, "egress (unlimited rate)");

    const sim::EgressConfig finite;
    const auto plan = sim::EgressPlan::build(network, finite);
    const auto egress_want = reference(network, coverages, [&](net::NodeId v) {
      return oracle::egress_batch_of_one(csr, finite, plan, v);
    });
    sim::Relaxer finite_relaxer(finite);
    auto egress_got = eval_all_sources_multi(csr, network, coverages,
                                             finite_relaxer, workers());
    expect_same(egress_got, egress_want, "egress (finite rate)");
    return {std::move(delay_got), std::move(egress_got)};
  }

  // eval_ideal_multi against the reference over a materialized clique.
  static std::vector<std::vector<double>> expect_ideal_parity(
      const net::Network& network, const std::vector<double>& coverages) {
    const std::size_t n = network.size();
    const int cap = static_cast<int>(n);
    net::Topology clique(n, {.out_cap = cap, .in_cap = cap});
    for (net::NodeId u = 0; u < n; ++u) {
      for (net::NodeId v = u + 1; v < n; ++v) clique.connect(u, v);
    }
    auto got = eval_ideal_multi(network, coverages);
    expect_same(got, reference(network, coverages,
                               [&](net::NodeId v) {
                                 return oracle::simulate_broadcast(
                                     clique, network, v);
                               }),
                "ideal");
    return got;
  }

 private:
  runner::ThreadPool pool_{3};
};

TEST_P(SettleOrderLambda, EqualArrivalGroupAddsInPowerOrder) {
  // Nodes 1-3 share x = 10, so a broadcast from 0 reaches them at exactly
  // the same time, in node-id order. Their powers are out of that order: in
  // id order the two 2^-52 slivers round away against the accumulated 2.0,
  // in ascending order they survive. `mid` is the coverage whose threshold
  // lies between the two sums — 10 ms only in the sorted order, 20 ms (node
  // 4) otherwise.
  auto network = make_line_network({0.0, 10.0, 10.0, 10.0, 20.0});
  const double sliver = std::ldexp(1.0, -52);
  const std::vector<double> powers = {1.0, 1.0, sliver, sliver, 1.0};
  double total = 0;
  for (net::NodeId v = 0; v < powers.size(); ++v) {
    network.mutable_profiles()[v].hash_power = powers[v];
    total += powers[v];
  }
  const double id_order_sum = ((1.0 + 1.0) + sliver) + sliver;
  const double sorted_sum = ((1.0 + sliver) + sliver) + 1.0;
  double mid = (id_order_sum + 1e-12) / total;
  while (mid * total - 1e-12 > id_order_sum) mid = std::nextafter(mid, 0.0);
  while (mid * total - 1e-12 <= id_order_sum) mid = std::nextafter(mid, 1.0);
  ASSERT_GE(sorted_sum, mid * total - 1e-12);
  // Highest coverage first: a pass that stopped at the lowest one would
  // leave the other two unread.
  const std::vector<double> coverages = {1.0, mid, 0.3};

  net::Topology star(5);
  star.connect(0, 1);
  star.connect(0, 2);
  star.connect(0, 3);
  star.connect(1, 4);
  const auto [delay, egress] = expect_sparse_parity(network, star, coverages);
  EXPECT_EQ(delay[1][0], 10.0);
  EXPECT_EQ(delay[0][0], 20.0);
  EXPECT_EQ(delay[2][0], 0.0);

  // A zero-delay link between co-located nodes sends the delay solver to
  // its heap walk; the group must still add in power order there.
  net::Topology linked = star;
  linked.connect(1, 2);
  const auto [heap_delay, heap_egress] =
      expect_sparse_parity(network, linked, coverages);
  EXPECT_EQ(heap_delay[1][0], 10.0);

  const auto ideal = expect_ideal_parity(network, coverages);
  EXPECT_EQ(ideal[1][0], 10.0);
}

TEST_P(SettleOrderLambda, MinerShareAboveCoverageIsZero) {
  // The miner alone holds 60%: λ at 50% is 0 on every engine — the egress
  // solver settles its source without an arrival event and must still
  // count it at t = 0.
  auto network = make_line_network({0.0, 10.0, 20.0, 30.0});
  const std::vector<double> powers = {0.6, 0.1, 0.2, 0.1};
  for (net::NodeId v = 0; v < powers.size(); ++v) {
    network.mutable_profiles()[v].hash_power = powers[v];
  }
  net::Topology chain(4);
  chain.connect(0, 1);
  chain.connect(1, 2);
  chain.connect(2, 3);
  const std::vector<double> coverages = {0.9, 0.5};
  const auto [delay, egress] = expect_sparse_parity(network, chain, coverages);
  EXPECT_EQ(delay[1][0], 0.0);
  EXPECT_EQ(egress[1][0], 0.0);
  EXPECT_GT(egress[0][0], 0.0);
  EXPECT_EQ(expect_ideal_parity(network, coverages)[1][0], 0.0);
}

TEST_P(SettleOrderLambda, IsolatedNodeMakesFullCoverageInfinite) {
  auto network = make_line_network({0.0, 10.0, 20.0, 30.0, 40.0});
  net::Topology t(5);
  t.connect(0, 1);
  t.connect(1, 2);
  t.connect(2, 3);  // node 4 isolated
  const std::vector<double> coverages = {0.5, 1.0};
  const auto [delay, egress] = expect_sparse_parity(network, t, coverages);
  for (net::NodeId v = 0; v < 5; ++v) {
    EXPECT_TRUE(std::isinf(delay[1][v])) << "source " << v;
    EXPECT_TRUE(std::isinf(egress[1][v])) << "source " << v;
  }
  EXPECT_TRUE(std::isfinite(delay[0][0]));
}

TEST_P(SettleOrderLambda, WithholderCountsTowardCoverage) {
  // Node 1 withholds: it receives at 10 ms and its half of the power
  // counts, but node 2 behind it never receives.
  auto network = make_line_network({0.0, 10.0, 20.0, 5.0});
  const std::vector<double> powers = {0.25, 0.5, 0.1, 0.15};
  for (net::NodeId v = 0; v < powers.size(); ++v) {
    network.mutable_profiles()[v].hash_power = powers[v];
  }
  network.mutable_profiles()[1].forwards = false;
  net::Topology t(4);
  t.connect(0, 1);
  t.connect(1, 2);
  t.connect(0, 3);
  const std::vector<double> coverages = {0.7, 0.95};
  const auto [delay, egress] = expect_sparse_parity(network, t, coverages);
  EXPECT_EQ(delay[0][0], 10.0);
  EXPECT_TRUE(std::isinf(delay[1][0]));
  EXPECT_TRUE(std::isfinite(egress[0][0]));
}

INSTANTIATE_TEST_SUITE_P(Pool, SettleOrderLambda, ::testing::Bool(),
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

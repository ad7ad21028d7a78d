// End-to-end parity between the fast analytic engine and the message-level
// gossip engine as *learning substrates*: Perigee trained on INV timestamps
// must reach conclusions equivalent to Perigee trained on the fast engine's
// delivery times.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "sim/gossip.hpp"
#include "sim/rounds.hpp"
#include "topo/builders.hpp"
#include "util/stats.hpp"

namespace perigee {
namespace {

// Bitwise oracle of the message-level record path: each out row equals the
// earliest announcement on that edge minus the earliest announcement over
// every neighbor of v (incoming and infra included), both read straight
// from GossipResult::edge_times; +inf where either is missing.
TEST(EngineParity, GossipObservationsMatchEdgeTimeOracle) {
  net::NetworkOptions options;
  options.n = 80;
  options.seed = 3;
  auto network = net::Network::build(options);
  // A withholder announces nothing; a withholding miner still announces its
  // own block.
  network.mutable_profiles()[9].forwards = false;
  network.mutable_profiles()[50].forwards = false;
  net::Topology t(80);
  util::Rng rng(3);
  topo::build_random(t, rng);
  t.add_infra_edge(7, 61, 0.5);

  sim::GossipConfig config;
  config.record_edge_times = true;
  const std::vector<sim::GossipResult> results = {
      sim::simulate_gossip(t, network, 5, config),
      sim::simulate_gossip(t, network, 50, config)};
  sim::ObservationTable obs;
  obs.begin_round(t, results.size());
  for (const auto& result : results) {
    obs.record_gossip_block(net::CsrTopology::build(t, network), result);
  }

  std::size_t finite_above_zero = 0;
  for (std::size_t b = 0; b < results.size(); ++b) {
    // first[(to, from)]: the earliest announcement from `from` at `to`.
    std::map<std::pair<net::NodeId, net::NodeId>, double> first;
    for (const auto& et : results[b].edge_times) {
      auto [it, fresh] = first.emplace(std::pair{et.to, et.from}, et.time_ms);
      if (!fresh) it->second = std::min(it->second, et.time_ms);
    }
    const auto heard = [&](net::NodeId v, net::NodeId u) {
      const auto it = first.find({v, u});
      return it == first.end() ? util::kInf : it->second;
    };
    for (net::NodeId v = 0; v < t.size(); ++v) {
      double t_min = util::kInf;
      for (const auto& link : t.adjacency(v)) {
        t_min = std::min(t_min, heard(v, link.peer));
      }
      const auto peers = obs.out_peers(v);
      std::size_t k = 0;
      for (const auto& link : t.adjacency(v)) {
        if (!t.has_out(v, link.peer)) continue;
        ASSERT_LT(k, peers.size());
        ASSERT_EQ(peers[k], link.peer);
        const double at = heard(v, link.peer);
        const double want =
            std::isinf(at) || std::isinf(t_min) ? util::kInf : at - t_min;
        const double got = obs.rel_times(v, k)[b];
        EXPECT_TRUE(std::memcmp(&got, &want, sizeof(double)) == 0)
            << "node " << v << " peer " << link.peer << " block " << b
            << ": " << got << " vs " << want;
        finite_above_zero += std::isfinite(want) && want > 0.0;
        ++k;
      }
      ASSERT_EQ(k, peers.size()) << "node " << v;
    }
  }
  // The oracle is not vacuous: most out rows carry a positive finite time.
  EXPECT_GT(finite_above_zero, t.size());
}

TEST(EngineParity, GossipTrainedPerigeeBeatsRandom) {
  core::ExperimentConfig config;
  config.net.n = 200;
  config.rounds = 20;
  config.blocks_per_round = 60;
  config.seed = 4;
  config.message_level = true;

  config.algorithm = core::Algorithm::Random;
  const double random = util::mean(core::run_experiment(config).lambda);
  config.algorithm = core::Algorithm::PerigeeSubset;
  const double subset = util::mean(core::run_experiment(config).lambda);
  EXPECT_LT(subset, random * 0.94);
}

TEST(EngineParity, EnginesAgreeOnLearnedQuality) {
  // Train with each engine, evaluate both topologies with the same fast
  // metric: the message-level run must land within a modest band of the
  // fast run (the engines rank neighbors by the same signal).
  core::ExperimentConfig config;
  config.net.n = 200;
  config.rounds = 12;
  config.blocks_per_round = 40;
  config.seed = 5;
  config.algorithm = core::Algorithm::PerigeeSubset;

  config.message_level = false;
  const double fast = util::mean(core::run_experiment(config).lambda);
  config.message_level = true;
  const double gossip = util::mean(core::run_experiment(config).lambda);
  EXPECT_NEAR(gossip / fast, 1.0, 0.12);
}

TEST(EngineParity, BlockHookShimReportsFiniteArrivals) {
  net::NetworkOptions options;
  options.n = 60;
  options.seed = 6;
  const auto network = net::Network::build(options);
  net::Topology t(60);
  util::Rng rng(6);
  topo::build_random(t, rng);
  std::vector<std::unique_ptr<sim::NeighborSelector>> selectors;
  for (int i = 0; i < 60; ++i) {
    selectors.push_back(std::make_unique<sim::StaticSelector>());
  }
  sim::RoundRunner runner(network, t, std::move(selectors), 5, 6,
                          sim::RoundRunner::Engine::Gossip);
  int blocks = 0;
  runner.set_block_hook([&](const sim::BroadcastResult& result) {
    ++blocks;
    EXPECT_DOUBLE_EQ(result.arrival[result.miner], 0.0);
    for (net::NodeId v = 0; v < 60; ++v) {
      EXPECT_TRUE(std::isfinite(result.arrival[v]));
      EXPECT_GE(result.ready[v], result.arrival[v]);
    }
  });
  runner.run_round();
  EXPECT_EQ(blocks, 5);
}

}  // namespace
}  // namespace perigee

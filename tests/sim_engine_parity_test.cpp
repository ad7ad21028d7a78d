// End-to-end parity between delivery learning and message-level learning
// (the announce solver, sim/batch.hpp) as *learning substrates*: Perigee
// trained on INV timestamps must reach conclusions equivalent to Perigee
// trained on the delay solver's delivery times. Message-level rounds run in
// lanes on the experiment's pool, byte-identical at any worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "broadcast_oracle.hpp"
#include "core/experiment.hpp"
#include "sim/batch.hpp"
#include "sim/rounds.hpp"
#include "topo/builders.hpp"
#include "util/stats.hpp"

namespace perigee {
namespace {

// Bitwise oracle of the message-level record path: each out row equals the
// earliest announcement on that edge minus the earliest announcement over
// every neighbor of v (incoming and infra included), both read straight
// from the reference's INVs; +inf where either is missing. The rows are
// recorded from the announce solver's stripes.
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

  const auto csr = net::CsrTopology::build(t, network);
  const std::vector<net::NodeId> miners = {5, 50};
  sim::MultiSourceScratch scratch;
  sim::MultiSourceResult batch;
  sim::simulate_announce_batch(csr, miners, scratch, batch);
  sim::ObservationTable obs;
  obs.begin_round(t, miners.size());
  for (std::size_t b = 0; b < miners.size(); ++b) {
    obs.record_block(csr, miners[b], batch.ready_of(b), /*announce=*/true);
  }

  std::size_t finite_above_zero = 0;
  for (std::size_t b = 0; b < miners.size(); ++b) {
    // first[(to, from)]: the earliest announcement from `from` at `to`.
    std::map<std::pair<net::NodeId, net::NodeId>, double> first;
    for (const auto& inv :
         oracle::gossip_reference(csr, miners[b]).announcements) {
      auto [it, fresh] = first.emplace(std::pair{inv.to, inv.from},
                                       inv.time_ms);
      if (!fresh) it->second = std::min(it->second, inv.time_ms);
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

// Message-level rounds run on the experiment's pool: λ and every checkpoint
// are byte-identical at any engine worker count.
TEST(EngineParity, PooledGossipLearningIsByteIdentical) {
  core::ExperimentConfig config;
  config.net.n = 120;
  config.rounds = 4;
  config.blocks_per_round = 20;
  config.checkpoints = 2;
  config.seed = 7;
  config.message_level = true;
  const auto run = [&](int jobs) {
    config.engine_jobs = jobs;
    return core::run_experiment(config);
  };
  const core::ExperimentResult inline_run = run(1);
  ASSERT_EQ(inline_run.checkpoints.size(), 3u);
  for (const int jobs : {2, 4}) {
    SCOPED_TRACE(::testing::Message() << "engine_jobs=" << jobs);
    const core::ExperimentResult pooled = run(jobs);
    ASSERT_EQ(pooled.lambda.size(), inline_run.lambda.size());
    EXPECT_EQ(std::memcmp(pooled.lambda.data(), inline_run.lambda.data(),
                          pooled.lambda.size() * sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(pooled.lambda50.data(), inline_run.lambda50.data(),
                          pooled.lambda50.size() * sizeof(double)),
              0);
    ASSERT_EQ(pooled.checkpoints.size(), inline_run.checkpoints.size());
    for (std::size_t i = 0; i < pooled.checkpoints.size(); ++i) {
      const auto& a = pooled.checkpoints[i];
      const auto& b = inline_run.checkpoints[i];
      EXPECT_EQ(a.blocks_mined, b.blocks_mined);
      EXPECT_EQ(std::memcmp(&a.mean_lambda, &b.mean_lambda, sizeof(double)),
                0);
      EXPECT_EQ(
          std::memcmp(&a.median_lambda, &b.median_lambda, sizeof(double)), 0);
      EXPECT_EQ(
          std::memcmp(&a.mean_lambda50, &b.mean_lambda50, sizeof(double)), 0);
    }
  }
}

// Block hooks see the announce solver's stripes: the reference's arrivals
// and relay times, extracted per block.
TEST(EngineParity, BlockHookSeesAnnounceStripes) {
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
  sim::RoundRunner runner(network, t, std::move(selectors), 5, 6);
  runner.set_relaxer(
      sim::Relaxer(std::nullopt, sim::Relaxer::Learning::Announce));
  const auto csr = net::CsrTopology::build(t, network);
  int blocks = 0;
  runner.set_block_hook([&](const sim::BroadcastResult& result) {
    ++blocks;
    const auto want = oracle::gossip_reference(csr, result.miner).result;
    ASSERT_EQ(result.arrival.size(), want.arrival.size());
    EXPECT_EQ(std::memcmp(result.arrival.data(), want.arrival.data(),
                          want.arrival.size() * sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(result.ready.data(), want.ready.data(),
                          want.ready.size() * sizeof(double)),
              0);
    for (net::NodeId v = 0; v < 60; ++v) {
      EXPECT_TRUE(std::isfinite(result.arrival[v]));
    }
  });
  runner.run_round();
  EXPECT_EQ(blocks, 5);
}

}  // namespace
}  // namespace perigee

// Adversarial and incentive scenarios from the paper's §1 and §6 discussion:
// withholding nodes get disconnected (incentive compatibility), and random
// exploration limits eclipse-style neighborhood capture.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "broadcast_oracle.hpp"
#include "core/perigee.hpp"
#include "metrics/eval.hpp"
#include "sim/rounds.hpp"
#include "topo/builders.hpp"
#include "util/stats.hpp"

namespace perigee {
namespace {

net::Network make_network(std::size_t n, std::uint64_t seed) {
  net::NetworkOptions options;
  options.n = n;
  options.seed = seed;
  return net::Network::build(options);
}

TEST(Withholding, BlocksDoNotFlowThroughWithholder) {
  auto network = make_network(5, 1);
  network.mutable_profiles()[1].forwards = false;
  net::Topology t(5);
  // Chain 0 - 1 - 2; plus honest path 0 - 3 - 4.
  t.connect(0, 1);
  t.connect(1, 2);
  t.connect(0, 3);
  t.connect(3, 4);
  const auto result = oracle::simulate_broadcast(t, network, 0);
  EXPECT_TRUE(std::isfinite(result.arrival[1]));  // receives fine
  EXPECT_TRUE(std::isinf(result.arrival[2]));     // but never relays
  EXPECT_TRUE(std::isfinite(result.arrival[4]));
}

TEST(Withholding, MinedBlocksStillPropagate) {
  auto network = make_network(3, 2);
  network.mutable_profiles()[0].forwards = false;
  net::Topology t(3);
  t.connect(0, 1);
  t.connect(1, 2);
  const auto result = oracle::simulate_broadcast(t, network, 0);
  EXPECT_TRUE(std::isfinite(result.arrival[1]));
  EXPECT_TRUE(std::isfinite(result.arrival[2]));
}

TEST(Withholding, GossipEngineAgrees) {
  auto network = make_network(4, 3);
  network.mutable_profiles()[1].forwards = false;
  net::Topology t(4);
  t.connect(0, 1);
  t.connect(1, 2);
  t.connect(2, 3);
  const auto csr = net::CsrTopology::build(t, network);
  for (const auto& result : {oracle::announce_batch_of_one(csr, 0),
                             oracle::gossip_reference(csr, 0).result}) {
    EXPECT_TRUE(std::isfinite(result.arrival[1]));
    EXPECT_TRUE(std::isinf(result.arrival[2]));
    EXPECT_TRUE(std::isinf(result.arrival[3]));
  }
}

TEST(Incentives, PerigeeDisconnectsWithholdingNeighbor) {
  // §1: "if a node deviates from protocol (e.g., stops relaying blocks) ...
  // its neighbors will penalize the node by disconnecting from it".
  const std::size_t n = 150;
  auto network = make_network(n, 4);
  const net::NodeId freeloader = 42;
  network.mutable_profiles()[freeloader].forwards = false;

  net::Topology t(n);
  util::Rng rng(4);
  topo::build_random(t, rng);
  const int dialers_before = t.in_count(freeloader);
  ASSERT_GT(dialers_before, 0);

  sim::RoundRunner runner(network, t,
                          core::make_selectors(n, core::Algorithm::PerigeeSubset),
                          50, 4);
  runner.run_rounds(6);

  // Every honest node that had the freeloader as an outgoing neighbor has
  // dropped it by now: its relative delivery times are all +inf, the worst
  // possible score. Only the current round's exploration dials (in
  // expectation n * ev / (n-1) ~ 2 network-wide, but seed-dependent) may
  // still point at it.
  int dialers_after = 0;
  for (net::NodeId v = 0; v < n; ++v) {
    if (t.has_out(v, freeloader)) ++dialers_after;
  }
  EXPECT_LE(dialers_after, 6);
  // And none of them are score-retained connections: one more round with no
  // further exploration would drop them too. Verify the freeloader's
  // connection count did not rebound to its initial level.
  EXPECT_LT(dialers_after, dialers_before);
}

TEST(Incentives, HonestNodesKeepFullService) {
  // The withholder hurts itself, not the network: honest nodes still reach
  // 90% coverage quickly because scoring routes around the dead end.
  const std::size_t n = 150;
  auto network = make_network(n, 5);
  for (net::NodeId v : {net::NodeId{10}, net::NodeId{20}, net::NodeId{30}}) {
    network.mutable_profiles()[v].forwards = false;
  }
  // Withholders also hold no hash power (they never broadcast anything
  // useful).
  for (net::NodeId v : {net::NodeId{10}, net::NodeId{20}, net::NodeId{30}}) {
    network.mutable_profiles()[v].hash_power = 0.0;
  }

  net::Topology t(n);
  util::Rng rng(5);
  topo::build_random(t, rng);
  sim::RoundRunner runner(network, t,
                          core::make_selectors(n, core::Algorithm::PerigeeSubset),
                          50, 5);
  runner.run_rounds(6);

  const auto lambda = metrics::eval_all_sources(t, network, 0.9);
  for (net::NodeId v = 0; v < n; ++v) {
    if (!network.profile(v).forwards) continue;
    EXPECT_TRUE(std::isfinite(lambda[v])) << "node " << v;
  }
}

TEST(Eclipse, ExplorationLimitsNeighborhoodCapture) {
  // An eclipse-style adversary with artificially perfect connectivity (zero
  // validation, pinned low latency) could capture a victim's entire
  // neighborhood under pure exploitation. Algorithm 1's ev random dials per
  // round keep re-introducing honest strangers, so with ev > 0 the victim's
  // outgoing set can never permanently consist of adversary nodes only.
  const std::size_t n = 100;
  auto network = make_network(n, 6);
  // Adversary nodes 0..4: instant validation, making them consistently the
  // fastest deliverers.
  for (net::NodeId v = 0; v < 5; ++v) {
    network.mutable_profiles()[v].validation_ms = 0.0;
  }

  net::Topology t(n);
  util::Rng rng(6);
  topo::build_random(t, rng);

  core::PerigeeParams params;  // keep = 6, explore = 2
  sim::RoundRunner runner(
      network, t,
      core::make_selectors(n, core::Algorithm::PerigeeSubset, params), 30, 6);

  const net::NodeId victim = 50;
  int rounds_with_honest_neighbor = 0;
  const int total_rounds = 10;
  for (int r = 0; r < total_rounds; ++r) {
    runner.run_round();
    int honest = 0;
    for (net::NodeId u : t.out(victim)) {
      if (u >= 5) ++honest;
    }
    if (honest > 0) ++rounds_with_honest_neighbor;
  }
  // Exploration keeps honest outgoing links present every single round.
  EXPECT_EQ(rounds_with_honest_neighbor, total_rounds);
}

TEST(Churn, DisconnectAllIsolatesNode) {
  net::Topology t(20);
  util::Rng rng(7);
  topo::build_random(t, rng);
  ASSERT_GT(t.out_count(3) + t.in_count(3), 0);
  t.disconnect_all(3);
  EXPECT_EQ(t.out_count(3), 0);
  EXPECT_EQ(t.in_count(3), 0);
  EXPECT_TRUE(t.adjacency(3).empty());
  t.validate();
}

TEST(Churn, DisconnectAllKeepsInfra) {
  net::Topology t(10);
  t.add_infra_edge(0, 1, 5.0);
  t.connect(0, 2);
  t.connect(3, 0);
  t.disconnect_all(0);
  EXPECT_TRUE(t.infra_latency(0, 1).has_value());
  EXPECT_EQ(t.out_count(0), 0);
  EXPECT_EQ(t.in_count(0), 0);
  t.validate();
}

}  // namespace
}  // namespace perigee

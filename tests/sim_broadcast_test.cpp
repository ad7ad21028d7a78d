#include "broadcast_oracle.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/batch.hpp"
#include "sim/coverage.hpp"
#include "sim/egress.hpp"
#include "topo/builders.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perigee::sim {
namespace {

// A network whose link delays and validation times are fully controlled:
// Euclidean latency over hand-placed coordinates, fixed validation.
net::Network make_line_network(const std::vector<double>& xs,
                               double validation_ms) {
  net::NetworkOptions options;
  options.n = xs.size();
  options.latency = net::NetworkOptions::LatencyKind::Euclidean;
  options.embed_dim = 1;
  options.embed_scale_ms = 1.0;
  options.handshake_factor = 1.0;  // tests reason about raw link delays
  options.validation_spread = 0.0;
  options.validation_mean_ms = validation_ms;
  net::Network network = net::Network::build(options);
  auto& profiles = network.mutable_profiles();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    profiles[i].coords = {xs[i], 0, 0, 0, 0};
  }
  return network;
}

// §2.1 semantics pinned on two implementations at once: every hand-computed
// case below runs the oracle and the production single-source path (a
// batch of one over a compiled snapshot), which must agree byte for byte.
BroadcastResult broadcast(const net::Topology& t, const net::Network& network,
                          net::NodeId miner) {
  BroadcastResult want = oracle::simulate_broadcast(t, network, miner);
  const BroadcastResult got =
      oracle::batch_of_one(net::CsrTopology::build(t, network), miner);
  EXPECT_EQ(got.miner, want.miner);
  EXPECT_EQ(std::memcmp(got.arrival.data(), want.arrival.data(),
                        want.arrival.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(got.ready.data(), want.ready.data(),
                        want.ready.size() * sizeof(double)),
            0);
  return want;
}

TEST(Broadcast, ChainArrivalTimes) {
  // Nodes at x = 0, 10, 30: chain 0-1-2. Validation 5 ms.
  auto network = make_line_network({0.0, 10.0, 30.0}, 5.0);
  net::Topology t(3);
  ASSERT_TRUE(t.connect(0, 1));
  ASSERT_TRUE(t.connect(1, 2));

  const auto result = broadcast(t, network, 0);
  EXPECT_DOUBLE_EQ(result.arrival[0], 0.0);
  EXPECT_DOUBLE_EQ(result.ready[0], 0.0);  // miner skips validation
  EXPECT_DOUBLE_EQ(result.arrival[1], 10.0);
  EXPECT_DOUBLE_EQ(result.ready[1], 15.0);
  EXPECT_DOUBLE_EQ(result.arrival[2], 35.0);  // 15 + |30-10|
  EXPECT_DOUBLE_EQ(result.ready[2], 40.0);
}

TEST(Broadcast, MinerInMiddleOfChain) {
  auto network = make_line_network({0.0, 10.0, 30.0}, 5.0);
  net::Topology t(3);
  ASSERT_TRUE(t.connect(0, 1));
  ASSERT_TRUE(t.connect(1, 2));
  const auto result = broadcast(t, network, 1);
  EXPECT_DOUBLE_EQ(result.arrival[1], 0.0);
  EXPECT_DOUBLE_EQ(result.arrival[0], 10.0);
  EXPECT_DOUBLE_EQ(result.arrival[2], 20.0);
}

TEST(Broadcast, PicksFasterOfTwoPaths) {
  // Square: 0 at x=0, 1 at x=100, 2 at x=40. Edges 0-1 direct, 0-2, 2-1.
  // Direct: 100. Via 2: 40 + validation 5 + 60 = 105 -> direct wins.
  auto network = make_line_network({0.0, 100.0, 40.0}, 5.0);
  net::Topology t(3);
  ASSERT_TRUE(t.connect(0, 1));
  ASSERT_TRUE(t.connect(0, 2));
  ASSERT_TRUE(t.connect(2, 1));
  const auto result = broadcast(t, network, 0);
  EXPECT_DOUBLE_EQ(result.arrival[1], 100.0);

  // Larger validation makes the indirect path even worse; smaller validation
  // (0 ms) makes it the winner: 40 + 0 + 60 = 100 ties direct.
  auto fast_net = make_line_network({0.0, 100.0, 40.0}, 0.0);
  const auto result2 = broadcast(t, fast_net, 0);
  EXPECT_DOUBLE_EQ(result2.arrival[1], 100.0);
}

TEST(Broadcast, ValidationDelaysRelayNotReception) {
  auto network = make_line_network({0.0, 10.0, 20.0}, 100.0);
  net::Topology t(3);
  ASSERT_TRUE(t.connect(0, 1));
  ASSERT_TRUE(t.connect(1, 2));
  const auto result = broadcast(t, network, 0);
  // Node 1 receives at 10 (no validation on receive), relays at 110.
  EXPECT_DOUBLE_EQ(result.arrival[1], 10.0);
  EXPECT_DOUBLE_EQ(result.arrival[2], 120.0);
}

TEST(Broadcast, UnreachableNodesAreInfinite) {
  auto network = make_line_network({0.0, 1.0, 2.0, 50.0}, 1.0);
  net::Topology t(4);
  ASSERT_TRUE(t.connect(0, 1));
  ASSERT_TRUE(t.connect(1, 2));
  // Node 3 is isolated.
  const auto result = broadcast(t, network, 0);
  EXPECT_TRUE(std::isinf(result.arrival[3]));
  EXPECT_TRUE(std::isinf(result.ready[3]));
}

TEST(Broadcast, InfraEdgeUsesOverrideLatency) {
  auto network = make_line_network({0.0, 1000.0}, 0.0);
  net::Topology t(2);
  ASSERT_TRUE(t.add_infra_edge(0, 1, 5.0));
  const auto result = broadcast(t, network, 0);
  EXPECT_DOUBLE_EQ(result.arrival[1], 5.0);  // not the 1000 ms geo distance
}

TEST(Broadcast, CommunicationIsBidirectional) {
  // Edge dialed 0 -> 1, but a block mined at 1 must still reach 0.
  auto network = make_line_network({0.0, 10.0}, 2.0);
  net::Topology t(2);
  ASSERT_TRUE(t.connect(0, 1));
  const auto result = broadcast(t, network, 1);
  EXPECT_DOUBLE_EQ(result.arrival[0], 10.0);
}

TEST(Broadcast, DeliveryTimeMatchesReadyPlusDelta) {
  auto network = make_line_network({0.0, 10.0, 30.0}, 5.0);
  net::Topology t(3);
  ASSERT_TRUE(t.connect(0, 1));
  ASSERT_TRUE(t.connect(1, 2));
  ASSERT_TRUE(t.connect(0, 2));  // also a direct slow link 0-2
  const auto result = broadcast(t, network, 0);
  // From node 2's perspective: neighbor 1's copy arrives at ready(1)+20=35,
  // neighbor 0's copy at 0+30=30.
  for (const auto& link : t.adjacency(2)) {
    const double dt = oracle::delivery_time(result, link, 2, network);
    if (link.peer == 1) { EXPECT_DOUBLE_EQ(dt, 35.0); }
    if (link.peer == 0) { EXPECT_DOUBLE_EQ(dt, 30.0); }
  }
  // arrival(2) is the min over neighbor deliveries.
  EXPECT_DOUBLE_EQ(result.arrival[2], 30.0);
}

TEST(Broadcast, ArrivalIsMinOverNeighborDeliveries) {
  // Property: on a random topology, arrival(v) == min_u delivery(u -> v) for
  // every non-miner v; the miner's arrival is 0.
  net::NetworkOptions options;
  options.n = 120;
  options.seed = 5;
  auto network = net::Network::build(options);
  net::Topology t(120);
  util::Rng rng(5);
  topo::build_random(t, rng);
  const auto result = broadcast(t, network, 7);
  for (net::NodeId v = 0; v < t.size(); ++v) {
    if (v == 7) {
      EXPECT_DOUBLE_EQ(result.arrival[v], 0.0);
      continue;
    }
    double min_delivery = util::kInf;
    for (const auto& link : t.adjacency(v)) {
      min_delivery = std::min(min_delivery,
                              oracle::delivery_time(result, link, v, network));
    }
    EXPECT_NEAR(result.arrival[v], min_delivery, 1e-9);
  }
}

TEST(Broadcast, ReadyEqualsArrivalPlusValidation) {
  net::NetworkOptions options;
  options.n = 80;
  options.seed = 6;
  auto network = net::Network::build(options);
  net::Topology t(80);
  util::Rng rng(6);
  topo::build_random(t, rng);
  const auto result = broadcast(t, network, 0);
  for (net::NodeId v = 1; v < t.size(); ++v) {
    EXPECT_NEAR(result.ready[v],
                result.arrival[v] + network.validation_ms(v), 1e-9);
  }
}

TEST(Broadcast, TransmissionTermSlowsRelay) {
  net::NetworkOptions options;
  options.n = 40;
  options.seed = 7;
  auto base_net = net::Network::build(options);
  options.block_size_kb = 1000.0;
  options.bandwidth_default_mbps = 10.0;
  auto slow_net = net::Network::build(options);

  net::Topology t(40);
  util::Rng rng(7);
  topo::build_random(t, rng);
  const auto fast = broadcast(t, base_net, 0);
  const auto slow = broadcast(t, slow_net, 0);
  for (net::NodeId v = 1; v < t.size(); ++v) {
    EXPECT_GT(slow.arrival[v], fast.arrival[v]);
  }
}

// Negative Δv lets a relay forward before its block arrives: no Dijkstra
// order exists. Both delay solvers must refuse the snapshot up front (the
// bucket grid once aborted on its span at -100 and spun forever at -1), and
// must not hand it to the heap, which assumes nonnegative weights as well.
// The egress solver's event loop needs the same order: it once returned
// negative arrival times (-164,399 ms at -100) instead of refusing. A NaN Δv
// has no order either; std::min/max once skipped it in the cached bounds.
// The announce solver relays at arrival + Δv too and refuses alike.
void expect_refused(double validation_mean_ms, double validation_scale) {
  net::NetworkOptions options;
  options.n = 40;
  options.seed = 7;
  options.validation_mean_ms = validation_mean_ms;
  options.validation_scale = validation_scale;
  const auto network = net::Network::build(options);
  net::Topology t(40);
  util::Rng rng(7);
  topo::build_random(t, rng);
  const auto csr = net::CsrTopology::build(t, network);

  const std::vector<net::NodeId> sources = {0};
  MultiSourceScratch scratch;
  MultiSourceResult result;
  EXPECT_THROW(simulate_broadcast_batch(csr, sources, scratch, result),
               std::invalid_argument);
  EXPECT_THROW(simulate_announce_batch(csr, sources, scratch, result),
               std::invalid_argument);
  const std::vector<double> coverages = {0.9};
  const CoverageTargets targets(network, coverages);
  CoverageTimes times;
  EXPECT_THROW(coverage_batch(csr, sources, scratch, targets, times),
               std::invalid_argument);

  const EgressConfig config;
  const EgressPlan plan = EgressPlan::build(network, config);
  EXPECT_THROW(simulate_broadcast_egress_batch(csr, config, plan, sources,
                                               scratch, result),
               std::invalid_argument);
  EXPECT_THROW(coverage_egress_batch(csr, config, plan, sources, scratch,
                                     targets, times),
               std::invalid_argument);
}

TEST(Broadcast, RefusesLargeNegativeValidation) {
  expect_refused(net::kDefaultValidationMs, -100.0);
}

TEST(Broadcast, RefusesSmallNegativeValidation) {
  expect_refused(net::kDefaultValidationMs, -1.0);
}

TEST(Broadcast, RefusesNanValidation) {
  expect_refused(net::kDefaultValidationMs,
                 std::numeric_limits<double>::quiet_NaN());
  // inf x 0 is NaN too.
  expect_refused(std::numeric_limits<double>::infinity(), 0.0);
}

}  // namespace
}  // namespace perigee::sim

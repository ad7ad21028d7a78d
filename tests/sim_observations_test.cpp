#include "sim/observations.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "broadcast_oracle.hpp"
#include "topo/builders.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perigee::sim {
namespace {

net::Network make_line_network(const std::vector<double>& xs,
                               double validation_ms) {
  net::NetworkOptions options;
  options.n = xs.size();
  options.latency = net::NetworkOptions::LatencyKind::Euclidean;
  options.embed_dim = 1;
  options.embed_scale_ms = 1.0;
  options.handshake_factor = 1.0;
  options.validation_spread = 0.0;
  options.validation_mean_ms = validation_ms;
  net::Network network = net::Network::build(options);
  auto& profiles = network.mutable_profiles();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    profiles[i].coords = {xs[i], 0, 0, 0, 0};
  }
  return network;
}

// Records one block mined by `miner`: the oracle's ready times, with δ read
// from a snapshot of the topology begin_round captured.
void record(ObservationTable& obs, const net::Topology& t,
            const net::Network& network, net::NodeId miner) {
  const auto csr = net::CsrTopology::build(t, network);
  obs.record_block(csr, miner,
                   oracle::simulate_broadcast(t, network, miner).ready);
}

TEST(Observations, CapturesNeighborsAtRoundStart) {
  net::Topology t(4);
  t.connect(0, 1);
  t.connect(2, 0);
  ObservationTable obs;
  obs.begin_round(t, 5);
  // Node 0 sees both its outgoing (1) and incoming (2) neighbor.
  EXPECT_EQ(obs.neighbor_count(0), 2u);
  bool saw_out = false, saw_in = false;
  for (std::size_t i = 0; i < obs.neighbor_count(0); ++i) {
    if (obs.neighbors(0)[i] == 1) {
      saw_out = true;
      EXPECT_TRUE(obs.is_outgoing(0, i));
    }
    if (obs.neighbors(0)[i] == 2) {
      saw_in = true;
      EXPECT_FALSE(obs.is_outgoing(0, i));
    }
  }
  EXPECT_TRUE(saw_out);
  EXPECT_TRUE(saw_in);
}

TEST(Observations, RelativeTimesNormalizedPerBlock) {
  // Line: 0 --10-- 1 --20-- 2, validation 5ms. Node 2 has neighbors 1 and 0
  // (direct long link 40ms).
  auto network = make_line_network({0.0, 10.0, 30.0}, 5.0);
  net::Topology t(3);
  t.connect(0, 1);
  t.connect(1, 2);
  t.connect(2, 0);  // long direct link 0-2, dialed by 2

  ObservationTable obs;
  obs.begin_round(t, 1);
  record(obs, t, network, 0);

  // Deliveries to node 2: from 1 at ready(1)+20 = 35; from 0 at 0+30 = 30.
  // Normalized: from 0 -> 0.0, from 1 -> 5.0.
  for (std::size_t i = 0; i < obs.neighbor_count(2); ++i) {
    const double rel = obs.rel_times(2, i)[0];
    if (obs.neighbors(2)[i] == 0) { EXPECT_DOUBLE_EQ(rel, 0.0); }
    if (obs.neighbors(2)[i] == 1) { EXPECT_DOUBLE_EQ(rel, 5.0); }
  }
}

TEST(Observations, MinRelTimeIsZeroForEveryNodeAndBlock) {
  net::NetworkOptions options;
  options.n = 100;
  options.seed = 3;
  const auto network = net::Network::build(options);
  net::Topology t(100);
  util::Rng rng(3);
  topo::build_random(t, rng);

  ObservationTable obs;
  obs.begin_round(t, 3);
  util::Rng miner_rng(4);
  for (int b = 0; b < 3; ++b) {
    const auto miner = static_cast<net::NodeId>(miner_rng.uniform_index(100));
    record(obs, t, network, miner);
  }
  EXPECT_EQ(obs.blocks_recorded(), 3u);
  for (net::NodeId v = 0; v < 100; ++v) {
    for (std::size_t b = 0; b < 3; ++b) {
      double min_rel = util::kInf;
      for (std::size_t i = 0; i < obs.neighbor_count(v); ++i) {
        min_rel = std::min(min_rel, obs.rel_times(v, i)[b]);
      }
      EXPECT_DOUBLE_EQ(min_rel, 0.0) << "node " << v << " block " << b;
    }
  }
}

TEST(Observations, UnreachedNeighborIsInfinite) {
  auto network = make_line_network({0.0, 10.0, 1000.0, 1010.0}, 1.0);
  net::Topology t(4);
  t.connect(0, 1);
  t.connect(2, 3);
  t.connect(1, 2);  // bridge
  // Disconnect the bridge after capture to simulate an isolated island:
  // instead, build without the bridge.
  net::Topology island(4);
  island.connect(0, 1);
  island.connect(2, 3);
  ObservationTable obs;
  obs.begin_round(island, 1);
  record(obs, island, network, 0);
  // Node 2's only neighbor (3) never delivers: rel time stays +inf.
  EXPECT_EQ(obs.neighbor_count(2), 1u);
  EXPECT_TRUE(std::isinf(obs.rel_times(2, 0)[0]));
}

TEST(Observations, RelTimesLengthTracksRecordedBlocks) {
  auto network = make_line_network({0.0, 10.0}, 1.0);
  net::Topology t(2);
  t.connect(0, 1);
  ObservationTable obs;
  obs.begin_round(t, 10);
  EXPECT_EQ(obs.blocks_capacity(), 10u);
  EXPECT_EQ(obs.rel_times(0, 0).size(), 0u);
  record(obs, t, network, 0);
  EXPECT_EQ(obs.rel_times(0, 0).size(), 1u);
  record(obs, t, network, 1);
  EXPECT_EQ(obs.rel_times(0, 0).size(), 2u);
}

TEST(Observations, MinerSideObservationsEcho) {
  // Even the miner records deliveries from its neighbors (echoes of its own
  // block), normalized among themselves.
  auto network = make_line_network({0.0, 10.0, 20.0}, 5.0);
  net::Topology t(3);
  t.connect(0, 1);
  t.connect(0, 2);
  ObservationTable obs;
  obs.begin_round(t, 1);
  record(obs, t, network, 0);
  // Echo from 1: ready(1)+10 = 25. Echo from 2: ready(2)+20 = 45.
  // Normalized: 0 and 20.
  for (std::size_t i = 0; i < obs.neighbor_count(0); ++i) {
    const double rel = obs.rel_times(0, i)[0];
    if (obs.neighbors(0)[i] == 1) { EXPECT_DOUBLE_EQ(rel, 0.0); }
    if (obs.neighbors(0)[i] == 2) { EXPECT_DOUBLE_EQ(rel, 20.0); }
  }
}

TEST(Observations, InfraNeighborsIncludedButNotOutgoing) {
  auto network = make_line_network({0.0, 10.0, 20.0}, 1.0);
  net::Topology t(3);
  t.add_infra_edge(0, 1, 2.0);
  t.connect(0, 2);
  ObservationTable obs;
  obs.begin_round(t, 1);
  EXPECT_EQ(obs.neighbor_count(0), 2u);
  for (std::size_t i = 0; i < obs.neighbor_count(0); ++i) {
    if (obs.neighbors(0)[i] == 1) { EXPECT_FALSE(obs.is_outgoing(0, i)); }
    if (obs.neighbors(0)[i] == 2) { EXPECT_TRUE(obs.is_outgoing(0, i)); }
  }
}

}  // namespace
}  // namespace perigee::sim

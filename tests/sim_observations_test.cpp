#include "sim/observations.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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

// Position of `peer` among v's out-peers; fails the test when absent.
std::size_t slot_of(const ObservationTable& obs, net::NodeId v,
                    net::NodeId peer) {
  const auto peers = obs.out_peers(v);
  const auto it = std::find(peers.begin(), peers.end(), peer);
  EXPECT_NE(it, peers.end()) << "peer " << peer << " is not an out-peer of "
                             << v;
  return static_cast<std::size_t>(it - peers.begin());
}

TEST(Observations, CapturesOutPeersAtRoundStart) {
  net::Topology t(4);
  t.connect(0, 1);
  t.connect(2, 0);
  ObservationTable obs;
  obs.begin_round(t, 5);
  // Node 0's outgoing neighbor 1 gets a row; its incoming neighbor 2 does
  // not. Node 2 scores its own outgoing link to 0.
  ASSERT_EQ(obs.out_peers(0).size(), 1u);
  EXPECT_EQ(obs.out_peers(0)[0], 1u);
  EXPECT_TRUE(obs.out_peers(1).empty());
  ASSERT_EQ(obs.out_peers(2).size(), 1u);
  EXPECT_EQ(obs.out_peers(2)[0], 0u);
  EXPECT_TRUE(obs.out_peers(3).empty());
}

TEST(Observations, RelativeTimesNormalizedPerBlock) {
  // Line: 0 --10-- 1 --20-- 2, validation 5ms. Node 2 dials both 1 and 0
  // (direct long link 30ms).
  auto network = make_line_network({0.0, 10.0, 30.0}, 5.0);
  net::Topology t(3);
  t.connect(0, 1);
  t.connect(2, 1);
  t.connect(2, 0);  // long direct link 0-2, dialed by 2

  ObservationTable obs;
  obs.begin_round(t, 1);
  record(obs, t, network, 0);

  // Deliveries to node 2: from 1 at ready(1)+20 = 35; from 0 at 0+30 = 30.
  // Normalized: from 0 -> 0.0, from 1 -> 5.0.
  ASSERT_EQ(obs.out_peers(2).size(), 2u);
  EXPECT_DOUBLE_EQ(obs.rel_times(2, slot_of(obs, 2, 0))[0], 0.0);
  EXPECT_DOUBLE_EQ(obs.rel_times(2, slot_of(obs, 2, 1))[0], 5.0);
}

TEST(Observations, OutRowsAreDeliveryMinusMinOverAllNeighbors) {
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
  std::vector<BroadcastResult> results;
  for (int b = 0; b < 3; ++b) {
    const auto miner = static_cast<net::NodeId>(miner_rng.uniform_index(100));
    record(obs, t, network, miner);
    results.push_back(oracle::simulate_broadcast(t, network, miner));
  }
  EXPECT_EQ(obs.blocks_recorded(), 3u);
  for (net::NodeId v = 0; v < 100; ++v) {
    const auto& adj = t.adjacency(v);
    for (std::size_t b = 0; b < 3; ++b) {
      // t_min spans every neighbor, incoming ones included.
      double t_min = util::kInf;
      for (const auto& link : adj) {
        t_min = std::min(t_min, oracle::delivery_time(results[b], link, v,
                                                      network));
      }
      ASSERT_TRUE(std::isfinite(t_min)) << "node " << v << " block " << b;
      std::size_t k = 0;
      for (const auto& link : adj) {
        if (!t.has_out(v, link.peer)) continue;
        ASSERT_LT(k, obs.out_peers(v).size());
        EXPECT_EQ(obs.out_peers(v)[k], link.peer);
        const double want =
            oracle::delivery_time(results[b], link, v, network) - t_min;
        EXPECT_EQ(obs.rel_times(v, k)[b], want)
            << "node " << v << " peer " << link.peer << " block " << b;
        ++k;
      }
      EXPECT_EQ(k, obs.out_peers(v).size()) << "node " << v;
    }
  }
}

TEST(Observations, EarlierIncomingOrInfraNeighborLiftsOutRows) {
  // Line 0 --10-- 1 --20-- 2 --5-- 3, validation 5ms, miner 0. Node 2's
  // incoming neighbor 1 delivers at ready(1)+20 = 35; its out-peer 3 echoes
  // at ready(3)+5 = 45 (3 hears the block straight from 0 at 35).
  auto network = make_line_network({0.0, 10.0, 30.0, 35.0}, 5.0);
  net::Topology t(4);
  t.connect(1, 0);
  t.connect(1, 2);
  t.connect(2, 3);
  t.connect(3, 0);
  ObservationTable obs;
  obs.begin_round(t, 1);
  record(obs, t, network, 0);
  ASSERT_EQ(obs.out_peers(2).size(), 1u);
  EXPECT_EQ(obs.out_peers(2)[0], 3u);
  EXPECT_DOUBLE_EQ(obs.rel_times(2, 0)[0], 10.0);

  // Infra: 0 reaches 2 over a 3ms relay link, so 2's out-peer 1
  // (ready(1)+20 = 35) sits 32ms above the infra delivery at 3.
  auto line = make_line_network({0.0, 10.0, 30.0}, 5.0);
  net::Topology infra(3);
  infra.connect(0, 1);
  infra.connect(2, 1);
  infra.add_infra_edge(0, 2, 3.0);
  obs.begin_round(infra, 1);
  record(obs, infra, line, 0);
  ASSERT_EQ(obs.out_peers(2).size(), 1u);
  EXPECT_EQ(obs.out_peers(2)[0], 1u);
  EXPECT_DOUBLE_EQ(obs.rel_times(2, 0)[0], 32.0);
}

TEST(Observations, UnreachedNeighborIsInfinite) {
  auto network = make_line_network({0.0, 10.0, 1000.0, 1010.0}, 1.0);
  // An isolated island: no bridge between {0, 1} and {2, 3}.
  net::Topology island(4);
  island.connect(0, 1);
  island.connect(2, 3);
  ObservationTable obs;
  obs.begin_round(island, 1);
  record(obs, island, network, 0);
  // Node 2's only neighbor (3) never delivers: rel time stays +inf.
  ASSERT_EQ(obs.out_peers(2).size(), 1u);
  EXPECT_EQ(obs.out_peers(2)[0], 3u);
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
  // block), normalized among themselves. Both are its out-peers.
  auto network = make_line_network({0.0, 10.0, 20.0}, 5.0);
  net::Topology t(3);
  t.connect(0, 1);
  t.connect(0, 2);
  ObservationTable obs;
  obs.begin_round(t, 1);
  record(obs, t, network, 0);
  // Echo from 1: ready(1)+10 = 25. Echo from 2: ready(2)+20 = 45.
  // Normalized: 0 and 20.
  ASSERT_EQ(obs.out_peers(0).size(), 2u);
  EXPECT_DOUBLE_EQ(obs.rel_times(0, slot_of(obs, 0, 1))[0], 0.0);
  EXPECT_DOUBLE_EQ(obs.rel_times(0, slot_of(obs, 0, 2))[0], 20.0);
}

TEST(Observations, InfraNeighborsGetNoRow) {
  auto network = make_line_network({0.0, 10.0, 20.0}, 1.0);
  net::Topology t(3);
  t.add_infra_edge(0, 1, 2.0);
  t.connect(0, 2);
  ObservationTable obs;
  obs.begin_round(t, 1);
  ASSERT_EQ(obs.out_peers(0).size(), 1u);
  EXPECT_EQ(obs.out_peers(0)[0], 2u);
  EXPECT_TRUE(obs.out_peers(1).empty());
}

// The rel arena holds Σ|out(v)| × B doubles and nothing else grows with B,
// so two fresh tables over the same topology differ by exactly the rows.
TEST(Observations, MemoryBytesRelPartIsOutRowsTimesBlocks) {
  net::Topology t(120);
  util::Rng rng(8);
  topo::build_random(t, rng);
  t.add_infra_edge(4, 90, 1.0);
  std::size_t out_rows = 0;
  std::size_t adjacency = 0;
  for (net::NodeId v = 0; v < t.size(); ++v) {
    out_rows += t.out(v).size();
    adjacency += t.adjacency(v).size();
  }
  ASSERT_LT(out_rows, adjacency);
  ObservationTable one;
  one.begin_round(t, 1);
  ObservationTable many;
  many.begin_round(t, 100);
  std::size_t listed = 0;
  for (net::NodeId v = 0; v < t.size(); ++v) {
    listed += many.out_peers(v).size();
  }
  EXPECT_EQ(listed, out_rows);
  EXPECT_EQ(many.memory_bytes() - one.memory_bytes(),
            out_rows * 99 * sizeof(double));
  EXPECT_GE(many.memory_bytes(), out_rows * 100 * sizeof(double));
}

}  // namespace
}  // namespace perigee::sim

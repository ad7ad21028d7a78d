#include "sim/observations.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

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

// The oracle's t̃ rows of v's out-peers, in slot order, over `results`:
// delivery minus the per-block minimum over every neighbor; +inf where the
// peer never delivered.
std::vector<std::vector<double>> oracle_rows(
    const net::Topology& t, const net::Network& network,
    const std::vector<BroadcastResult>& results, net::NodeId v) {
  const auto& adj = t.adjacency(v);
  std::vector<std::vector<double>> rows;
  for (const auto& link : adj) {
    if (t.has_out(v, link.peer)) rows.emplace_back();
  }
  for (const auto& result : results) {
    double t_min = util::kInf;
    for (const auto& link : adj) {
      t_min = std::min(t_min, oracle::delivery_time(result, link, v, network));
    }
    std::size_t k = 0;
    for (const auto& link : adj) {
      if (!t.has_out(v, link.peer)) continue;
      const double at = oracle::delivery_time(result, link, v, network);
      rows[k++].push_back(std::isinf(at) ? util::kInf : at - t_min);
    }
  }
  return rows;
}

// Reads every out row of v and compares it bitwise with the oracle.
void expect_rows_match(const ObservationTable& obs, const net::Topology& t,
                       const net::Network& network,
                       const std::vector<BroadcastResult>& results,
                       net::NodeId v) {
  const auto want = oracle_rows(t, network, results, v);
  ASSERT_EQ(obs.out_peers(v).size(), want.size()) << "node " << v;
  for (std::size_t k = 0; k < want.size(); ++k) {
    const auto got = obs.rel_times(v, k);
    ASSERT_EQ(got.size(), want[k].size()) << "node " << v << " slot " << k;
    for (std::size_t b = 0; b < got.size(); ++b) {
      EXPECT_TRUE(std::memcmp(&got[b], &want[k][b], sizeof(double)) == 0)
          << "node " << v << " slot " << k << " block " << b << ": "
          << got[b] << " vs " << want[k][b];
    }
  }
}

// A random topology with a withholding node and an infra edge, so rows carry
// +inf entries and t_min sees a non-p2p neighbor.
struct RowFixture {
  net::Network network;
  net::Topology t;
  std::vector<net::NodeId> miners = {4, 17, 60, 5};

  RowFixture() : network(make_network()), t(80) {
    util::Rng rng(21);
    topo::build_random(t, rng);
    t.add_infra_edge(2, 50, 0.5);
  }
  static net::Network make_network() {
    net::NetworkOptions options;
    options.n = 80;
    options.seed = 21;
    auto network = net::Network::build(options);
    network.mutable_profiles()[5].forwards = false;
    return network;
  }
  // Records miners[0 .. count) into a fresh round of capacity |miners|.
  std::vector<BroadcastResult> record_first(ObservationTable& obs,
                                            std::size_t count) const {
    obs.begin_round(t, miners.size());
    std::vector<BroadcastResult> results;
    for (std::size_t b = 0; b < count; ++b) record_next(obs, results);
    return results;
  }
  void record_next(ObservationTable& obs,
                   std::vector<BroadcastResult>& results) const {
    const net::NodeId miner = miners[results.size()];
    record(obs, t, network, miner);
    results.push_back(oracle::simulate_broadcast(t, network, miner));
  }
  // A node with out-peers other than `skip`.
  net::NodeId scored_node(net::NodeId skip) const {
    for (net::NodeId v = 0; v < t.size(); ++v) {
      if (v != skip && !t.out(v).empty()) return v;
    }
    return net::kInvalidNode;
  }
};

// Rows are computed per node on read into one buffer: reading w between two
// reads of v must not leave v's second read with w's values.
TEST(Observations, RowsReadInOrderVWVMatchOracle) {
  const RowFixture f;
  ObservationTable obs;
  const auto results = f.record_first(obs, f.miners.size());
  const net::NodeId v = f.scored_node(net::kInvalidNode);
  const net::NodeId w = f.scored_node(v);
  ASSERT_NE(w, net::kInvalidNode);
  expect_rows_match(obs, f.t, f.network, results, v);
  expect_rows_match(obs, f.t, f.network, results, w);
  expect_rows_match(obs, f.t, f.network, results, v);
  // The withheld node's deliveries are +inf in some row.
  bool saw_inf = false;
  for (net::NodeId u = 0; u < f.t.size(); ++u) {
    for (std::size_t k = 0; k < obs.out_peers(u).size(); ++k) {
      for (double x : obs.rel_times(u, k)) saw_inf |= std::isinf(x);
    }
    expect_rows_match(obs, f.t, f.network, results, u);
  }
  EXPECT_TRUE(saw_inf);
}

// A read, one more record, and a read again: the second read covers the new
// block, and the first blocks keep their values.
TEST(Observations, ReadRecordReadMatchesOracle) {
  const RowFixture f;
  ObservationTable obs;
  auto results = f.record_first(obs, 2);
  const net::NodeId v = f.scored_node(net::kInvalidNode);
  expect_rows_match(obs, f.t, f.network, results, v);
  EXPECT_EQ(obs.rel_times(v, 0).size(), 2u);
  f.record_next(obs, results);
  expect_rows_match(obs, f.t, f.network, results, v);
  EXPECT_EQ(obs.rel_times(v, 0).size(), 3u);
  f.record_next(obs, results);
  for (net::NodeId u = 0; u < f.t.size(); ++u) {
    expect_rows_match(obs, f.t, f.network, results, u);
  }
}

// The table keeps B·n relay times, a max|out|·B row buffer and a B-long
// t_min scratch; nothing else grows with B. Two fresh tables over the same
// topology, each with every block recorded and every row read, differ by
// exactly those parts. The row buffer appears with the first read.
TEST(Observations, MemoryBytesGrowWithBlocksByStripesAndRowBuffer) {
  net::NetworkOptions options;
  options.n = 120;
  options.seed = 8;
  const auto network = net::Network::build(options);
  net::Topology t(120);
  util::Rng rng(8);
  topo::build_random(t, rng);
  t.add_infra_edge(4, 90, 1.0);
  std::size_t max_out = 0;
  for (net::NodeId v = 0; v < t.size(); ++v) {
    max_out = std::max(max_out, t.out(v).size());
  }
  const auto filled = [&](std::size_t blocks, std::size_t& before_read) {
    ObservationTable obs;
    obs.begin_round(t, blocks);
    for (std::size_t b = 0; b < blocks; ++b) {
      record(obs, t, network, static_cast<net::NodeId>(b % t.size()));
    }
    before_read = obs.memory_bytes();
    for (net::NodeId v = 0; v < t.size(); ++v) {
      for (std::size_t k = 0; k < obs.out_peers(v).size(); ++k) {
        EXPECT_EQ(obs.rel_times(v, k).size(), blocks);
      }
    }
    return obs.memory_bytes();
  };
  std::size_t one_before = 0;
  std::size_t many_before = 0;
  const std::size_t one = filled(1, one_before);
  const std::size_t many = filled(100, many_before);
  EXPECT_EQ(one - one_before, (max_out + 1) * 1 * sizeof(double));
  EXPECT_EQ(many - many_before, (max_out + 1) * 100 * sizeof(double));
  EXPECT_EQ(many_before - one_before, t.size() * 99 * sizeof(double));
  EXPECT_EQ(many - one, (t.size() + max_out + 1) * 99 * sizeof(double));
}

}  // namespace
}  // namespace perigee::sim

// CSR snapshot parity: the single-source delay path — the batched engine
// over a one-element span — run on compiled, patched and rebuilt snapshots
// must reproduce the Topology-walking oracle (tests/broadcast_oracle.hpp)
// *byte for byte* — same arrival and ready vectors, down to the bit pattern
// of every double — across random topologies, infra-override links,
// unreachable nodes and withholding nodes. Observation recording over the
// snapshot must reproduce the t̃ the oracle's ready times and per-link
// delivery times imply.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <memory>

#include "broadcast_oracle.hpp"
#include "metrics/eval.hpp"
#include "net/csr.hpp"
#include "sim/batch.hpp"
#include "sim/observations.hpp"
#include "sim/rounds.hpp"
#include "topo/builders.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perigee {
namespace {

// Bitwise equality of double vectors: catches even -0.0 vs 0.0 or differing
// NaN payloads, which EXPECT_DOUBLE_EQ would miss.
::testing::AssertionResult bytes_equal(const std::vector<double>& a,
                                       const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  }
  if (!a.empty() &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
        return ::testing::AssertionFailure()
               << "first mismatch at index " << i << ": " << a[i] << " vs "
               << b[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

void expect_parity(const net::Topology& topology, const net::Network& network,
                   sim::MultiSourceScratch& scratch) {
  const net::CsrTopology csr = net::CsrTopology::build(topology, network);
  sim::MultiSourceResult batch;
  sim::BroadcastResult fast;
  for (net::NodeId miner = 0; miner < topology.size();
       miner += std::max<std::size_t>(1, topology.size() / 16)) {
    const sim::BroadcastResult want =
        oracle::simulate_broadcast(topology, network, miner);
    const std::array<net::NodeId, 1> source{miner};
    sim::simulate_broadcast_batch(csr, source, scratch, batch);
    batch.extract(0, fast);
    EXPECT_EQ(fast.miner, want.miner);
    EXPECT_TRUE(bytes_equal(fast.arrival, want.arrival)) << "miner " << miner;
    EXPECT_TRUE(bytes_equal(fast.ready, want.ready)) << "miner " << miner;
  }
}

TEST(CsrParity, RandomTopologiesAcrossSeeds) {
  sim::MultiSourceScratch scratch;  // deliberately shared across all cases
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    net::NetworkOptions options;
    options.n = 120 + 30 * seed;
    options.seed = seed;
    const auto network = net::Network::build(options);
    net::Topology topology(options.n);
    util::Rng rng(seed);
    topo::build_random(topology, rng);
    expect_parity(topology, network, scratch);
  }
}

TEST(CsrParity, InfraOverrideLinks) {
  net::NetworkOptions options;
  options.n = 150;
  options.seed = 9;
  const auto network = net::Network::build(options);
  net::Topology topology(options.n);
  util::Rng rng(9);
  topo::build_random(topology, rng);
  // A fast star overlay: infra links with sub-propagation latency must win
  // identically in both engines.
  for (net::NodeId v = 10; v < 60; v += 7) {
    ASSERT_TRUE(topology.add_infra_edge(0, v, 0.5));
  }
  sim::MultiSourceScratch scratch;
  expect_parity(topology, network, scratch);
}

TEST(CsrParity, UnreachableNodesStayInfinite) {
  net::NetworkOptions options;
  options.n = 100;
  options.seed = 11;
  const auto network = net::Network::build(options);
  net::Topology topology(options.n);
  util::Rng rng(11);
  topo::build_random(topology, rng);
  // Isolate a handful of nodes entirely.
  for (net::NodeId v = 90; v < 100; ++v) topology.disconnect_all(v);

  const net::CsrTopology csr = net::CsrTopology::build(topology, network);
  const auto want = oracle::simulate_broadcast(topology, network, 0);
  const auto fast = oracle::batch_of_one(csr, 0);
  EXPECT_TRUE(bytes_equal(fast.arrival, want.arrival));
  EXPECT_TRUE(bytes_equal(fast.ready, want.ready));
  for (net::NodeId v = 90; v < 100; ++v) {
    EXPECT_TRUE(std::isinf(fast.arrival[v]));
    EXPECT_TRUE(std::isinf(fast.ready[v]));
  }
  // Broadcasting *from* an isolated node: everyone else unreachable.
  const auto want95 = oracle::simulate_broadcast(topology, network, 95);
  const auto fast95 = oracle::batch_of_one(csr, 95);
  EXPECT_TRUE(bytes_equal(fast95.arrival, want95.arrival));
  EXPECT_DOUBLE_EQ(fast95.arrival[95], 0.0);
  EXPECT_TRUE(std::isinf(fast95.arrival[0]));
}

TEST(CsrParity, WithholdingNodesMatchOracle) {
  net::NetworkOptions options;
  options.n = 130;
  options.seed = 13;
  auto network = net::Network::build(options);
  for (net::NodeId v = 0; v < 130; v += 9) {
    network.mutable_profiles()[v].forwards = false;
  }
  net::Topology topology(options.n);
  util::Rng rng(13);
  topo::build_random(topology, rng);
  sim::MultiSourceScratch scratch;
  expect_parity(topology, network, scratch);
}

// The one delay record_block, over a snapshot and a batched stripe, against
// t̃ computed from first principles: the oracle's ready times plus
// oracle::delivery_time per captured link, normalized by the per-block
// minimum over every neighbor exactly as ObservationTable documents, and
// compared on the out rows (the only rows the table keeps).
TEST(CsrParity, ObservationRecordingMatchesOracle) {
  net::NetworkOptions options;
  options.n = 90;
  options.seed = 17;
  auto network = net::Network::build(options);
  // Withholding neighbors deliver nothing: their t̃ must be +inf.
  network.mutable_profiles()[5].forwards = false;
  net::Topology topology(options.n);
  util::Rng rng(17);
  topo::build_random(topology, rng);
  topology.add_infra_edge(3, 60, 0.5);
  const net::CsrTopology csr = net::CsrTopology::build(topology, network);

  const std::vector<net::NodeId> miners = {3, 40, 77};
  sim::MultiSourceScratch scratch;
  sim::MultiSourceResult batch;
  sim::simulate_broadcast_batch(csr, miners, scratch, batch);
  sim::ObservationTable obs;
  obs.begin_round(topology, miners.size());
  for (std::size_t b = 0; b < miners.size(); ++b) {
    obs.record_block(csr, miners[b], batch.ready_of(b));
  }

  for (std::size_t b = 0; b < miners.size(); ++b) {
    const auto result = oracle::simulate_broadcast(topology, network,
                                                   miners[b]);
    for (net::NodeId v = 0; v < topology.size(); ++v) {
      const auto& adj = topology.adjacency(v);
      std::vector<double> t(adj.size());
      double t_min = util::kInf;
      for (std::size_t i = 0; i < adj.size(); ++i) {
        t[i] = oracle::delivery_time(result, adj[i], v, network);
        t_min = std::min(t_min, t[i]);
      }
      // Only out-peers have rows, in adjacency order; t_min spans all.
      const auto peers = obs.out_peers(v);
      std::size_t k = 0;
      for (std::size_t i = 0; i < adj.size(); ++i) {
        if (!topology.has_out(v, adj[i].peer)) continue;
        ASSERT_LT(k, peers.size());
        ASSERT_EQ(peers[k], adj[i].peer);
        const double want = std::isinf(t[i]) || std::isinf(t_min)
                                ? util::kInf
                                : t[i] - t_min;
        const double got = obs.rel_times(v, k)[b];
        EXPECT_TRUE(std::memcmp(&got, &want, sizeof(double)) == 0)
            << "node " << v << " neighbor " << i << " block " << b << ": "
            << got << " vs " << want;
        ++k;
      }
      ASSERT_EQ(k, peers.size()) << "node " << v;
    }
  }
}

// First-principles check of the compile itself: every CSR entry must equal
// the delay the reference helpers resolve through the Topology/Network pair.
// This is what keeps the announce test below meaningful — the announce
// solver and its reference run on arrays this test pins to the ground truth.
TEST(CsrParity, CompiledDelaysMatchNetworkResolution) {
  net::NetworkOptions options;
  options.n = 100;
  options.seed = 31;
  // Exercise the transmission term too, so edge_delay != handshake * link.
  options.block_size_kb = 200.0;
  options.heterogeneous_bandwidth = true;
  const auto network = net::Network::build(options);
  net::Topology topology(options.n);
  util::Rng rng(31);
  topo::build_random(topology, rng);
  topology.add_infra_edge(2, 50, 0.75);

  const net::CsrTopology csr = net::CsrTopology::build(topology, network);
  EXPECT_EQ(csr.size(), topology.size());
  for (net::NodeId v = 0; v < topology.size(); ++v) {
    const auto& adj = topology.adjacency(v);
    const auto peers = csr.peers(v);
    const auto delays = csr.delays(v);
    const auto controls = csr.control_delays(v);
    ASSERT_EQ(peers.size(), adj.size());
    for (std::size_t i = 0; i < adj.size(); ++i) {
      EXPECT_EQ(peers[i], adj[i].peer);
      // Block delay: exactly what the broadcast oracle resolves per link.
      const double want_block = oracle::link_delay_ms(adj[i], v, network);
      EXPECT_TRUE(std::memcmp(&delays[i], &want_block, sizeof(double)) == 0)
          << "node " << v << " link " << i;
      // Control delay: infra override or pure propagation latency.
      const auto infra = topology.infra_latency(v, adj[i].peer);
      const double want_control =
          infra ? *infra : network.link_ms(v, adj[i].peer);
      EXPECT_TRUE(std::memcmp(&controls[i], &want_control, sizeof(double)) ==
                  0)
          << "node " << v << " link " << i;
    }
    EXPECT_EQ(csr.forwards(v), network.profile(v).forwards);
    EXPECT_DOUBLE_EQ(csr.validation_ms(v), network.validation_ms(v));
  }
}

// Mid-run profile mutation with a never-rewiring selector: the round loop's
// cache must pick up a node turning withholding even though the topology
// version never moves (the eclipse_attack example's flip).
TEST(CsrParity, RoundRunnerSeesMidRunForwardsFlip) {
  net::NetworkOptions options;
  options.n = 50;
  options.seed = 37;
  auto network = net::Network::build(options);
  net::Topology topology(options.n);
  util::Rng rng(37);
  topo::build_random(topology, rng);

  std::vector<std::unique_ptr<sim::NeighborSelector>> selectors;
  for (std::size_t i = 0; i < topology.size(); ++i) {
    selectors.push_back(std::make_unique<sim::StaticSelector>());
  }
  sim::RoundRunner runner(network, topology, std::move(selectors), 4, 37);
  sim::BroadcastResult last;
  runner.set_block_hook([&](const sim::BroadcastResult& r) { last = r; });

  runner.run_round();
  const std::uint64_t version_before = topology.version();

  // Flip a hub to withholding between rounds; StaticSelector never rewires,
  // so only the profile recheck can trigger the rebuild.
  net::NodeId hub = 0;
  for (net::NodeId v = 1; v < topology.size(); ++v) {
    if (topology.adjacency(v).size() > topology.adjacency(hub).size()) hub = v;
  }
  network.mutable_profiles()[hub].forwards = false;
  runner.run_round();
  EXPECT_EQ(topology.version(), version_before);

  // Every block of the new round must match the oracle, which reads
  // the live Network: the flipped node received but never relayed.
  const auto want = oracle::simulate_broadcast(topology, network, last.miner);
  ASSERT_EQ(last.arrival.size(), want.arrival.size());
  for (std::size_t v = 0; v < want.arrival.size(); ++v) {
    EXPECT_TRUE(
        std::memcmp(&last.arrival[v], &want.arrival[v], sizeof(double)) == 0)
        << "node " << v;
  }
}

// The announce solver reads control and block δ out of the snapshot, so a
// journal-patched snapshot must give it the bytes the event-loop reference
// gets from a fresh compile of the rewired topology.
TEST(CsrParity, AnnounceOverPatchedCsrMatchesReference) {
  net::NetworkOptions options;
  options.n = 80;
  options.seed = 19;
  const auto network = net::Network::build(options);
  net::Topology topology(options.n);
  util::Rng rng(19);
  topo::build_random(topology, rng);
  topology.add_infra_edge(1, 70, 0.25);

  net::CsrCache cache;
  cache.get(topology, network);
  for (net::NodeId v = 0; v < options.n; v += 7) {
    const auto& out = topology.out(v);
    if (!out.empty()) topology.disconnect(v, out.front());
    topo::dial_random_peers(topology, v, 1, rng);
  }
  const net::CsrTopology& patched = cache.get(topology, network);
  EXPECT_EQ(cache.patches(), 1u);
  const net::CsrTopology fresh = net::CsrTopology::build(topology, network);
  for (const net::NodeId miner : {net::NodeId{5}, net::NodeId{70}}) {
    const auto got = oracle::announce_batch_of_one(patched, miner);
    const auto want = oracle::gossip_reference(fresh, miner).result;
    EXPECT_TRUE(bytes_equal(got.arrival, want.arrival)) << "miner " << miner;
    EXPECT_TRUE(bytes_equal(got.ready, want.ready)) << "miner " << miner;
  }
}

TEST(CsrParity, CacheRebuildsOnRewireOnly) {
  net::NetworkOptions options;
  options.n = 60;
  options.seed = 23;
  const auto network = net::Network::build(options);
  net::Topology topology(options.n);
  util::Rng rng(23);
  topo::build_random(topology, rng);

  net::CsrCache cache;
  const net::CsrTopology* first = &cache.get(topology, network);
  const std::uint64_t v0 = topology.version();
  EXPECT_EQ(first->built_from_version(), v0);
  // No mutation: same snapshot object, no rebuild.
  EXPECT_EQ(&cache.get(topology, network), first);

  // A rewire bumps the version and forces a refresh (journal patch or
  // rebuild) that reflects the new adjacency.
  const net::NodeId dialer = 0;
  ASSERT_FALSE(topology.out(dialer).empty());
  const net::NodeId old_peer = topology.out(dialer).front();
  topology.disconnect(dialer, old_peer);
  EXPECT_GT(topology.version(), v0);
  const net::CsrTopology& rebuilt = cache.get(topology, network);
  EXPECT_EQ(rebuilt.built_from_version(), topology.version());
  for (const net::NodeId peer : rebuilt.peers(dialer)) {
    EXPECT_NE(peer, old_peer);
  }
  // The rebuilt snapshot again tracks the oracle exactly.
  const auto want = oracle::simulate_broadcast(topology, network, 7);
  const auto fast = oracle::batch_of_one(rebuilt, 7);
  EXPECT_TRUE(bytes_equal(fast.arrival, want.arrival));
  EXPECT_TRUE(bytes_equal(fast.ready, want.ready));
}

// Regression for the old staleness footgun: a latency-model swap under an
// unchanged topology used to require a manual cache.invalidate() call; the
// network's latency version counter now invalidates automatically.
TEST(CsrParity, CacheRebuildsAutomaticallyOnLatencyModelSwap) {
  net::NetworkOptions options;
  options.n = 50;
  options.seed = 43;
  auto network = net::Network::build(options);
  net::Topology topology(options.n);
  util::Rng rng(43);
  topo::build_random(topology, rng);

  net::CsrCache cache;
  cache.get(topology, network);
  network.set_latency_model(std::make_unique<net::PairClassScaledModel>(
      network.make_geo_model(), [](net::NodeId) { return true; }, 2.0));
  // No topology mutation, no manual invalidate: get() must still hand back a
  // snapshot compiled under the new model, matching the live oracle.
  const net::CsrTopology& refreshed = cache.get(topology, network);
  EXPECT_EQ(cache.rebuilds(), 2u);
  const auto want = oracle::simulate_broadcast(topology, network, 3);
  const auto fast = oracle::batch_of_one(refreshed, 3);
  EXPECT_TRUE(bytes_equal(fast.arrival, want.arrival));
  EXPECT_TRUE(bytes_equal(fast.ready, want.ready));
}

// Bandwidth edits feed the per-edge transmission term: with a non-zero block
// size the cache must rebuild on its own (the other half of the footgun).
TEST(CsrParity, CacheRebuildsAutomaticallyOnBandwidthEdit) {
  net::NetworkOptions options;
  options.n = 50;
  options.seed = 47;
  options.block_size_kb = 200.0;
  options.heterogeneous_bandwidth = true;
  auto network = net::Network::build(options);
  net::Topology topology(options.n);
  util::Rng rng(47);
  topo::build_random(topology, rng);

  net::CsrCache cache;
  cache.get(topology, network);
  network.mutable_profiles()[5].bandwidth_mbps = 1.0;  // new bottleneck tier
  const net::CsrTopology& refreshed = cache.get(topology, network);
  EXPECT_EQ(cache.rebuilds(), 2u);
  const auto want = oracle::simulate_broadcast(topology, network, 5);
  const auto fast = oracle::batch_of_one(refreshed, 5);
  EXPECT_TRUE(bytes_equal(fast.arrival, want.arrival));
  EXPECT_TRUE(bytes_equal(fast.ready, want.ready));
}

// Profile edits that do not touch per-edge delays must NOT force a rebuild:
// forwards / validation flips patch the per-node arrays in place, and hash
// power (mined-block weighting only) costs nothing at all.
TEST(CsrParity, ProfileOnlyEditsPatchWithoutRebuild) {
  net::NetworkOptions options;
  options.n = 50;
  options.seed = 53;
  auto network = net::Network::build(options);
  net::Topology topology(options.n);
  util::Rng rng(53);
  topo::build_random(topology, rng);

  net::CsrCache cache;
  cache.get(topology, network);
  network.mutable_profiles()[7].forwards = false;
  network.mutable_profiles()[9].validation_ms = 123.0;
  network.mutable_profiles()[11].hash_power = 0.5;
  const net::CsrTopology& refreshed = cache.get(topology, network);
  EXPECT_EQ(cache.rebuilds(), 1u);  // patched, not recompiled
  EXPECT_FALSE(refreshed.forwards(7));
  EXPECT_EQ(refreshed.validation_ms(9), 123.0);
  const auto want = oracle::simulate_broadcast(topology, network, 7);
  const auto fast = oracle::batch_of_one(refreshed, 7);
  EXPECT_TRUE(bytes_equal(fast.arrival, want.arrival));
  EXPECT_TRUE(bytes_equal(fast.ready, want.ready));
}

TEST(CsrParity, EvalAllSourcesMatchesPerSourceOracle) {
  net::NetworkOptions options;
  options.n = 70;
  options.seed = 29;
  const auto network = net::Network::build(options);
  net::Topology topology(options.n);
  util::Rng rng(29);
  topo::build_random(topology, rng);

  const auto batched = metrics::eval_all_sources(topology, network, 0.90);
  std::vector<double> want(network.size());
  for (net::NodeId v = 0; v < network.size(); ++v) {
    const auto result = oracle::simulate_broadcast(topology, network, v);
    want[v] = metrics::lambda_for_broadcast(result, network, 0.90);
  }
  EXPECT_TRUE(bytes_equal(batched, want));
}

}  // namespace
}  // namespace perigee

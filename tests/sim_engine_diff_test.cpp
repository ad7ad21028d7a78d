// Randomized differential harness over the broadcast engines.
//
// ~200 seeded random topologies spanning every scenario regime the sweep
// axes can produce — uniform (geo) and exponential-ish (euclidean) latency
// substrates, heterogeneous bandwidth/validation tiers, geographically
// clustered networks, adversarial withholding, churn-mutated graphs, infra
// overlays, disconnected fragments — each asserting that
//
//      Topology-walking oracle  ≡  batched engine  ≡  egress engine at ∞ rate
//
// byte-for-byte on the arrival AND ready vectors (memcmp of the doubles, so
// even a one-ulp divergence or a -0.0 fails). The oracle is the test-only
// walker in tests/broadcast_oracle.hpp; the batched engine runs both its
// bucket-queue fast path and (where the graph forces it) the heap
// fallback, and once more through a ThreadPool to pin the any-worker-count
// determinism contract.
// The egress queuing engine (sim/egress.hpp) joins at infinite rate and
// zero message size, where docs/TRANSMISSION_MODEL.md claims it IS the
// delay-only model: single-source and batched (inline + pooled), all held
// byte-equal to the oracle across all regimes. At finite rates it is held
// to the per-message reference (`oracle::egress_reference`) instead.
// The announce solver (the INV -> GETDATA -> BLOCK relay) is held, inline
// and pooled, byte-equal to its event-loop reference
// (`oracle::gossip_reference`) in every case, from the same miners plus a
// withholding one where the regime has one; the zero-latency infra edge
// sends it to its heap fallback.
//
// Each regime additionally drives the incremental compile path: a CsrCache
// snapshot is patched from the topology's mutation journal after a rewiring
// storm and held entry-for-entry AND byte-for-byte (batched engine + λ)
// equal to a from-scratch compile — plus a dedicated rewire-heavy regime and
// a full round-loop A/B against forced recompiles.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "broadcast_oracle.hpp"
#include "core/perigee.hpp"
#include "metrics/eval.hpp"
#include "net/csr.hpp"
#include "obs/metrics.hpp"
#include "runner/thread_pool.hpp"
#include "sim/rounds.hpp"
#include "scenario/driver.hpp"
#include "scenario/scenario.hpp"
#include "sim/batch.hpp"
#include "sim/egress.hpp"
#include "topo/builders.hpp"
#include "util/rng.hpp"

namespace perigee {
namespace {

::testing::AssertionResult bytes_equal(std::span<const double> a,
                                       std::span<const double> b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "first mismatch at index " << i << ": " << a[i] << " vs "
             << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// One differential case: all engines from a spread of miners, each both
// inline and across a 3-worker pool.
void expect_engine_parity(const net::Topology& topology,
                          const net::Network& network, const char* regime,
                          std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "regime=" << regime
                                    << " seed=" << seed);
  const net::CsrTopology csr = net::CsrTopology::build(topology, network);

  // Miners: a handful spread over the id range (every node would be O(n^2)
  // per case; the λ-parity test below still covers all-sources batches).
  std::vector<net::NodeId> miners;
  const auto n = static_cast<net::NodeId>(topology.size());
  for (net::NodeId m = 0; m < n; m += std::max<net::NodeId>(1, n / 5)) {
    miners.push_back(m);
  }
  // A withholding miner, where the regime has one: it still relays (and
  // announces) its own block.
  for (net::NodeId m = 0; m < n; ++m) {
    if (!csr.forwards(m)) {
      miners.push_back(m);
      break;
    }
  }

  sim::MultiSourceScratch scratch;
  sim::MultiSourceResult batched;
  sim::simulate_broadcast_batch(csr, miners, scratch, batched);

  sim::MultiSourceResult pooled;
  {
    runner::ThreadPool pool(3);
    sim::simulate_broadcast_batch(csr, miners, scratch, pooled, &pool);
  }

  // Egress queuing engine in its delay-only corner: unlimited rate + zero
  // message size. The documented contract (docs/TRANSMISSION_MODEL.md) is
  // that this configuration takes the float-op-free inline path and
  // reproduces the delay-only arrivals byte for byte.
  sim::EgressConfig egress_config;
  egress_config.unlimited_rate = true;
  egress_config.block_bytes = 0.0;
  egress_config.control_bytes = 0.0;
  const sim::EgressPlan egress_plan =
      sim::EgressPlan::build(network, egress_config);
  sim::EgressScratch egress_scratch;
  sim::MultiSourceResult egress_batched, egress_pooled;
  sim::simulate_broadcast_egress_batch(csr, egress_config, egress_plan,
                                       miners, egress_scratch, egress_batched);
  {
    runner::ThreadPool pool(3);
    sim::simulate_broadcast_egress_batch(csr, egress_config, egress_plan,
                                         miners, egress_scratch, egress_pooled,
                                         &pool);
  }

  // The announce solver (the message-level relay) against its event-loop
  // reference, inline and pooled.
  sim::MultiSourceResult announce_batched, announce_pooled;
  sim::simulate_announce_batch(csr, miners, scratch, announce_batched);
  {
    runner::ThreadPool pool(3);
    sim::simulate_announce_batch(csr, miners, scratch, announce_pooled,
                                 &pool);
  }

  for (std::size_t s = 0; s < miners.size(); ++s) {
    const sim::BroadcastResult want =
        oracle::simulate_broadcast(topology, network, miners[s]);
    SCOPED_TRACE(::testing::Message() << "miner=" << miners[s]);
    EXPECT_TRUE(bytes_equal(batched.arrival_of(s), want.arrival));
    EXPECT_TRUE(bytes_equal(batched.ready_of(s), want.ready));
    EXPECT_TRUE(bytes_equal(pooled.arrival_of(s), batched.arrival_of(s)));
    EXPECT_TRUE(bytes_equal(pooled.ready_of(s), batched.ready_of(s)));

    // Egress engine, ∞-rate corner ≡ delay-only oracle: single-source,
    // batched, and pooled all byte-equal to the walk.
    const sim::BroadcastResult via_egress = oracle::egress_batch_of_one(
        csr, egress_config, egress_plan, miners[s]);
    EXPECT_TRUE(bytes_equal(via_egress.arrival, want.arrival));
    EXPECT_TRUE(bytes_equal(via_egress.ready, want.ready));
    EXPECT_TRUE(bytes_equal(egress_batched.arrival_of(s), want.arrival));
    EXPECT_TRUE(bytes_equal(egress_batched.ready_of(s), want.ready));
    EXPECT_TRUE(bytes_equal(egress_pooled.arrival_of(s), want.arrival));
    EXPECT_TRUE(bytes_equal(egress_pooled.ready_of(s), want.ready));

    const sim::BroadcastResult gossip =
        oracle::gossip_reference(csr, miners[s]).result;
    EXPECT_TRUE(bytes_equal(announce_batched.arrival_of(s), gossip.arrival));
    EXPECT_TRUE(bytes_equal(announce_batched.ready_of(s), gossip.ready));
    EXPECT_TRUE(bytes_equal(announce_pooled.arrival_of(s), gossip.arrival));
    EXPECT_TRUE(bytes_equal(announce_pooled.ready_of(s), gossip.ready));
  }
}

net::Topology random_topology(std::size_t n, std::uint64_t seed) {
  net::Topology topology(n);
  util::Rng rng(seed);
  topo::build_random(topology, rng);
  return topology;
}

// A round's worth of learning-loop rewiring: every node replaces a couple of
// out-edges (disconnect + random redial), the exact delta shape the subset
// selector journals each round.
void rewire_round(net::Topology& topology, util::Rng& rng,
                  int replacements_per_node = 2) {
  const auto n = static_cast<net::NodeId>(topology.size());
  for (net::NodeId v = 0; v < n; ++v) {
    for (int r = 0; r < replacements_per_node; ++r) {
      const auto& out = topology.out(v);
      if (out.empty()) break;
      topology.disconnect(v, out[rng.uniform_index(out.size())]);
    }
    topo::dial_random_peers(topology, v, replacements_per_node, rng);
  }
}

// Patched-vs-fresh contract: a cache-patched snapshot must be entry-for-entry
// identical to a from-scratch compile of the mutated topology (rows, delays,
// per-node attributes), and behaviorally byte-identical on the batched
// engine's arrival/ready stripes and the all-sources λ evaluation. The δ
// bounds may differ — patching keeps them conservative — but only in the
// safe direction.
void expect_patched_equals_fresh(const net::CsrTopology& patched,
                                 const net::Topology& topology,
                                 const net::Network& network) {
  const net::CsrTopology fresh = net::CsrTopology::build(topology, network);
  ASSERT_EQ(patched.size(), fresh.size());
  EXPECT_EQ(patched.built_from_version(), topology.version());
  ASSERT_EQ(patched.num_links(), fresh.num_links());
  const auto n = static_cast<net::NodeId>(fresh.size());
  for (net::NodeId v = 0; v < n; ++v) {
    const auto pp = patched.peers(v);
    const auto fp = fresh.peers(v);
    ASSERT_EQ(pp.size(), fp.size()) << "row size of node " << v;
    for (std::size_t i = 0; i < pp.size(); ++i) {
      EXPECT_EQ(pp[i], fp[i]) << "peer of node " << v << " slot " << i;
    }
    EXPECT_TRUE(bytes_equal(patched.delays(v), fresh.delays(v)))
        << "delays of node " << v;
    EXPECT_TRUE(bytes_equal(patched.control_delays(v),
                            fresh.control_delays(v)))
        << "control delays of node " << v;
    EXPECT_EQ(patched.forwards(v), fresh.forwards(v)) << "node " << v;
    EXPECT_EQ(patched.validation_ms(v), fresh.validation_ms(v))
        << "node " << v;
  }
  // Conservative bounds: never tighter than the truth.
  EXPECT_LE(patched.min_delay_ms(), fresh.min_delay_ms());
  EXPECT_GE(patched.max_delay_ms(), fresh.max_delay_ms());
  EXPECT_GE(patched.max_validation_ms(), fresh.max_validation_ms());

  // Behavioral parity: every source, batched engine, plus λ end to end.
  std::vector<net::NodeId> all(fresh.size());
  for (net::NodeId v = 0; v < n; ++v) all[v] = v;
  sim::MultiSourceScratch scratch;
  sim::MultiSourceResult from_patched, from_fresh;
  sim::simulate_broadcast_batch(patched, all, scratch, from_patched);
  sim::simulate_broadcast_batch(fresh, all, scratch, from_fresh);
  EXPECT_TRUE(bytes_equal(from_patched.arrival, from_fresh.arrival));
  EXPECT_TRUE(bytes_equal(from_patched.ready, from_fresh.ready));
  EXPECT_TRUE(bytes_equal(metrics::eval_all_sources(patched, network, 0.90),
                          metrics::eval_all_sources(fresh, network, 0.90)));
}

// Drives a CsrCache through compile -> mutation -> patched refresh and holds
// the patched snapshot to the fresh-compile contract plus full engine
// parity on the mutated graph. Asserts the patch path actually ran.
void expect_patched_parity_after_rewire(net::Topology& topology,
                                        const net::Network& network,
                                        const char* regime,
                                        std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "patched regime=" << regime << " seed=" << seed);
  net::CsrCache cache;
  cache.get(topology, network);
  util::Rng rng(seed ^ 0xC54);
  rewire_round(topology, rng);
  const net::CsrTopology& patched = cache.get(topology, network);
  EXPECT_EQ(cache.patches(), 1u);
  EXPECT_EQ(cache.rebuilds(), 1u);
  expect_patched_equals_fresh(patched, topology, network);
  expect_engine_parity(topology, network, regime, seed);
}

// 40 seeds x 5 regime families = 200 random topologies.
constexpr std::uint64_t kSeeds = 40;

TEST(EngineDiff, UniformGeoSubstrate) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    net::NetworkOptions options;
    options.n = 40 + 7 * (seed % 11);
    options.seed = seed;
    const auto network = net::Network::build(options);
    auto topology = random_topology(options.n, seed);
    expect_engine_parity(topology, network, "uniform-geo", seed);
    if (seed % 4 == 1) {
      expect_patched_parity_after_rewire(topology, network, "uniform-geo",
                                         seed);
    }
  }
}

TEST(EngineDiff, ExponentialEuclideanSubstrate) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    net::NetworkOptions options;
    options.n = 40 + 5 * (seed % 13);
    options.seed = seed * 31;
    // Euclidean embedding: near-colocated pairs produce the tiny edge
    // delays that stress the bucket width derivation; the validation draw
    // spread plays the role of the exponential tail.
    options.latency = net::NetworkOptions::LatencyKind::Euclidean;
    options.validation_scale = seed % 3 == 0 ? 5.0 : 0.5;
    const auto network = net::Network::build(options);
    auto topology = random_topology(options.n, seed * 31);
    expect_engine_parity(topology, network, "exponential-euclidean", seed);
    if (seed % 4 == 1) {
      expect_patched_parity_after_rewire(topology, network,
                                         "exponential-euclidean", seed);
    }
  }
}

TEST(EngineDiff, ClusteredAndHeterogeneousScenarios) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    scenario::ScenarioSpec spec;
    spec.geo.concentration = 0.5;
    spec.hetero.profile = seed % 2 == 0 ? scenario::HeteroProfile::Bandwidth
                                        : scenario::HeteroProfile::Datacenter;
    net::NetworkOptions options;
    options.n = 40 + 9 * (seed % 7);
    options.seed = seed * 101;
    scenario::adjust_network_options(options, spec);
    auto network = net::Network::build(options);
    scenario::apply_static_regimes(network, spec, seed * 101);
    auto topology = random_topology(options.n, seed * 101);
    expect_engine_parity(topology, network, "clustered-hetero", seed);
    if (seed % 4 == 1) {
      expect_patched_parity_after_rewire(topology, network,
                                         "clustered-hetero", seed);
    }
  }
}

TEST(EngineDiff, WithholdingAdversaries) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    scenario::ScenarioSpec spec;
    spec.adversary.withhold_fraction = 0.25;
    net::NetworkOptions options;
    options.n = 40 + 6 * (seed % 9);
    options.seed = seed * 7;
    auto network = net::Network::build(options);
    scenario::apply_static_regimes(network, spec, seed * 7);
    auto topology = random_topology(options.n, seed * 7);
    expect_engine_parity(topology, network, "withholding", seed);
    if (seed % 4 == 1) {
      expect_patched_parity_after_rewire(topology, network, "withholding",
                                         seed);
    }
  }
}

TEST(EngineDiff, ChurnMutatedTopologies) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    net::NetworkOptions options;
    options.n = 50 + 4 * (seed % 8);
    options.seed = seed * 13;
    auto network = net::Network::build(options);
    auto topology = random_topology(options.n, seed * 13);
    scenario::ChurnRegime regime;
    regime.rate = 0.1;
    regime.start_round = 0;
    regime.downtime_rounds = seed % 2 == 0 ? 0 : 2;
    scenario::ChurnDriver driver(regime, topology, network, seed * 13);
    for (std::size_t round = 0; round < 4; ++round) {
      driver.before_round(round);
    }
    expect_engine_parity(topology, network, "churn-mutated", seed);
    if (seed % 4 == 1) {
      // Patch across further churn epochs: join/leave deltas (and the hash
      // stash's profile-version bumps) flow through the same refresh.
      net::CsrCache cache;
      cache.get(topology, network);
      for (std::size_t round = 4; round < 7; ++round) {
        driver.before_round(round);
      }
      const net::CsrTopology& patched = cache.get(topology, network);
      expect_patched_equals_fresh(patched, topology, network);
      expect_engine_parity(topology, network, "churn-patched", seed);
    }
  }
}

// The new rewire-heavy regime: consecutive full-network rewiring rounds,
// each absorbed by the journal patch path, every round held byte-equal to a
// forced fresh compile — the exact shape of the learning loop's topology
// refresh, isolated from selector logic.
TEST(EngineDiff, RewireHeavyPatchedCsrMatchesFreshCompileEveryRound) {
  for (std::uint64_t seed : {2u, 9u, 21u, 33u}) {
    net::NetworkOptions options;
    options.n = 60 + 8 * (seed % 5);
    options.seed = seed * 17;
    const auto network = net::Network::build(options);
    auto topology = random_topology(options.n, seed * 17);
    net::CsrCache cache;
    cache.get(topology, network);
    util::Rng rng(seed * 17 + 1);
    for (int round = 0; round < 6; ++round) {
      SCOPED_TRACE(::testing::Message()
                   << "rewire-heavy seed=" << seed << " round=" << round);
      rewire_round(topology, rng);
      const net::CsrTopology& patched = cache.get(topology, network);
      expect_patched_equals_fresh(patched, topology, network);
    }
    EXPECT_EQ(cache.rebuilds(), 1u);
    EXPECT_EQ(cache.patches(), 6u);
    expect_engine_parity(topology, network, "rewire-heavy", seed);
  }
}

// Round-loop A/B: the full adaptive learning loop (subset selectors, real
// rewiring every round) with journal patching against a twin run forced to
// recompile each round — every block's arrival/ready and the final λ must be
// byte-identical.
TEST(EngineDiff, PatchedRoundLoopMatchesForcedRecompileByteForByte) {
  const std::size_t n = 70;
  const int rounds = 5;
  const auto run = [&](bool patching, std::vector<double>& blocks_out) {
    net::NetworkOptions options;
    options.n = n;
    options.seed = 41;
    auto network = net::Network::build(options);
    auto topology = random_topology(n, 41);
    sim::RoundRunner runner(
        network, topology,
        core::make_selectors(n, core::Algorithm::PerigeeSubset), 8, 41);
    runner.set_csr_patching(patching);
    runner.set_block_hook([&](const sim::BroadcastResult& r) {
      blocks_out.insert(blocks_out.end(), r.arrival.begin(), r.arrival.end());
      blocks_out.insert(blocks_out.end(), r.ready.begin(), r.ready.end());
    });
    runner.run_rounds(rounds);
    return metrics::eval_all_sources(runner.current_csr(), network, 0.90);
  };
  std::vector<double> patched_blocks, rebuilt_blocks;
  const auto patched_lambda = run(true, patched_blocks);
  const auto rebuilt_lambda = run(false, rebuilt_blocks);
  ASSERT_EQ(patched_blocks.size(),
            static_cast<std::size_t>(rounds) * 8 * 2 * n);
  EXPECT_TRUE(bytes_equal(patched_blocks, rebuilt_blocks));
  EXPECT_TRUE(bytes_equal(patched_lambda, rebuilt_lambda));
}

// Degenerate graphs: the shapes most likely to break an engine swap.
TEST(EngineDiff, EdgeCases) {
  net::NetworkOptions options;
  options.n = 60;
  options.seed = 5;
  const auto network = net::Network::build(options);

  // Zero-latency infra edge: min edge delay 0 forces the heap fallback.
  {
    auto topology = random_topology(60, 5);
    // First pair not already wired by the random build.
    net::NodeId other = 1;
    while (!topology.add_infra_edge(0, other, 0.0)) ++other;
    const auto csr = net::CsrTopology::build(topology, network);
    EXPECT_EQ(csr.min_delay_ms(), 0.0);
    expect_engine_parity(topology, network, "zero-infra", 5);
  }
  // Sub-propagation infra overlay (the relay-tree shape). Some spokes may
  // already be p2p-adjacent to the hub; enough must attach to matter.
  {
    auto topology = random_topology(60, 5);
    int added = 0;
    for (net::NodeId v = 5; v < 50; v += 9) {
      if (topology.add_infra_edge(1, v, 0.25)) ++added;
    }
    ASSERT_GE(added, 2);
    expect_engine_parity(topology, network, "fast-infra", 5);
  }
  // Disconnected fragments: isolated nodes must stay +inf in all engines.
  {
    auto topology = random_topology(60, 5);
    for (net::NodeId v = 52; v < 60; ++v) topology.disconnect_all(v);
    expect_engine_parity(topology, network, "disconnected", 5);
  }
  // Edgeless graph: every engine degenerates to "miner only".
  {
    net::Topology topology(60);
    expect_engine_parity(topology, network, "edgeless", 5);
  }
}

// Finite-rate egress against the per-message reference: random topologies
// over heterogeneous uplinks, one zero-rate sender and one withholder each,
// every combination of burst (0, or 2.5 KB: two and a half controls, so a
// control run starts on a part-filled bucket), band order (controls first
// or payloads first) and control size (0 or 1 KB). Arrival and ready bytes of
// a spread of miners, inline and pooled, and every source's λ must equal
// the reference's.
TEST(EngineDiff, FiniteRateEgressMatchesPerMessageReference) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(::testing::Message() << "finite-rate seed=" << seed);
    net::NetworkOptions options;
    options.n = 30 + 5 * (seed % 7);
    options.seed = seed * 19;
    options.heterogeneous_bandwidth = true;
    auto network = net::Network::build(options);
    const auto n = static_cast<net::NodeId>(options.n);
    auto& profiles = network.mutable_profiles();
    profiles[(seed * 3) % n].bandwidth_mbps = 0.0;
    profiles[(seed * 3 + 1) % n].forwards = false;
    const auto topology = random_topology(options.n, seed * 19);
    const auto csr = net::CsrTopology::build(topology, network);

    sim::EgressConfig config;
    config.block_bytes = 200'000.0;
    config.burst_bytes = (seed & 1) != 0 ? 2'500.0 : 0.0;
    if ((seed & 2) != 0) config.band_map = {2, 1, 0};
    config.control_bytes = (seed & 4) != 0 ? 1000.0 : 0.0;
    const sim::EgressPlan plan = sim::EgressPlan::build(network, config);

    std::vector<net::NodeId> miners;
    for (net::NodeId m = 0; m < n; m += n / 5) miners.push_back(m);
    sim::EgressScratch scratch;
    sim::MultiSourceResult inline_run, pooled_run;
    sim::simulate_broadcast_egress_batch(csr, config, plan, miners, scratch,
                                         inline_run);
    {
      runner::ThreadPool pool(3);
      sim::simulate_broadcast_egress_batch(csr, config, plan, miners, scratch,
                                           pooled_run, &pool);
    }
    for (std::size_t s = 0; s < miners.size(); ++s) {
      SCOPED_TRACE(::testing::Message() << "miner=" << miners[s]);
      const sim::BroadcastResult want =
          oracle::egress_reference(topology, network, config, miners[s]);
      EXPECT_TRUE(bytes_equal(inline_run.arrival_of(s), want.arrival));
      EXPECT_TRUE(bytes_equal(inline_run.ready_of(s), want.ready));
      EXPECT_TRUE(bytes_equal(pooled_run.arrival_of(s), want.arrival));
      EXPECT_TRUE(bytes_equal(pooled_run.ready_of(s), want.ready));
    }

    std::vector<double> want_lambda(n);
    for (net::NodeId v = 0; v < n; ++v) {
      want_lambda[v] = metrics::lambda_for_broadcast(
          oracle::egress_reference(topology, network, config, v), network,
          0.90);
    }
    EXPECT_TRUE(bytes_equal(
        metrics::eval_all_sources_egress(csr, network, config, plan, 0.90),
        want_lambda));
    runner::ThreadPool pool(3);
    EXPECT_TRUE(bytes_equal(
        metrics::eval_all_sources_egress(csr, network, config, plan, 0.90,
                                         &scratch, &pool),
        want_lambda));
  }

  // Tie-heavy inputs: integer δ on infra links, zero validation and one
  // rate with 1 ms messages put every event on a 1 ms lattice, so many
  // events share exact times, Ready events land in the bucket being
  // drained, and collapsed control runs end on ties (re-run per message).
  // Every source still matches the reference byte for byte, through the
  // bucket queue (no heap fallback).
  obs::Registry& registry = obs::Registry::instance();
  const bool live = obs::telemetry_compiled() && registry.enabled();
  const std::uint64_t reruns_before =
      registry.scrape().counter("egress.reruns");
  const std::uint64_t heap_before =
      registry.scrape().counter("egress.heap_sources");
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(::testing::Message() << "lattice seed=" << seed);
    net::NetworkOptions options;
    options.n = 30 + 4 * seed;
    options.latency = net::NetworkOptions::LatencyKind::Euclidean;
    options.embed_dim = 1;
    options.validation_spread = 0.0;
    options.validation_mean_ms = 0.0;
    options.seed = seed;
    net::Network network = net::Network::build(options);
    for (auto& profile : network.mutable_profiles()) {
      profile.coords = {};
      profile.bandwidth_mbps = 8.0;  // 1000 bytes/ms
    }
    const auto n = static_cast<net::NodeId>(options.n);
    net::Topology topology(options.n);
    util::Rng rng(seed * 101);
    for (net::NodeId u = 0; u < n; ++u) {
      for (int k = 0; k < 3; ++k) {
        const auto v = static_cast<net::NodeId>(rng.uniform_index(n));
        topology.add_infra_edge(
            u, v, 1.0 + static_cast<double>(rng.uniform_index(4)));
      }
    }
    const auto csr = net::CsrTopology::build(topology, network);

    sim::EgressConfig config;
    config.block_bytes = 1000.0;
    config.control_bytes = (seed & 1) != 0 ? 1000.0 : 0.0;
    if ((seed & 2) != 0) config.band_map = {2, 1, 0};
    const sim::EgressPlan plan = sim::EgressPlan::build(network, config);

    std::vector<net::NodeId> all(n);
    for (net::NodeId v = 0; v < n; ++v) all[v] = v;
    sim::EgressScratch scratch;
    sim::MultiSourceResult run;
    sim::simulate_broadcast_egress_batch(csr, config, plan, all, scratch, run);
    std::vector<double> want_lambda(n);
    for (net::NodeId v = 0; v < n; ++v) {
      const sim::BroadcastResult want =
          oracle::egress_reference(topology, network, config, v);
      EXPECT_TRUE(bytes_equal(run.arrival_of(v), want.arrival)) << "src " << v;
      EXPECT_TRUE(bytes_equal(run.ready_of(v), want.ready)) << "src " << v;
      want_lambda[v] = metrics::lambda_for_broadcast(want, network, 0.90);
    }
    EXPECT_TRUE(bytes_equal(
        metrics::eval_all_sources_egress(csr, network, config, plan, 0.90),
        want_lambda));
  }
  if (live) {
    EXPECT_GT(registry.scrape().counter("egress.reruns"), reruns_before);
    EXPECT_EQ(registry.scrape().counter("egress.heap_sources"), heap_before);
  }
}

// λ parity through the metrics batch entry point: the all-sources
// evaluation (batched, inline and pooled) must equal the per-source
// lambda_for_broadcast oracle bit for bit.
TEST(EngineDiff, EvalAllSourcesMatchesPerSourceOracleAtAnyWorkerCount) {
  for (std::uint64_t seed : {3u, 11u, 27u}) {
    net::NetworkOptions options;
    options.n = 80;
    options.seed = seed;
    const auto network = net::Network::build(options);
    const auto topology = random_topology(options.n, seed);
    const auto csr = net::CsrTopology::build(topology, network);

    std::vector<double> want(network.size());
    for (net::NodeId v = 0; v < network.size(); ++v) {
      const auto result = oracle::simulate_broadcast(topology, network, v);
      want[v] = metrics::lambda_for_broadcast(result, network, 0.90);
    }

    const auto inline_eval = metrics::eval_all_sources(csr, network, 0.90);
    EXPECT_TRUE(bytes_equal(inline_eval, want));

    sim::MultiSourceScratch scratch;
    runner::ThreadPool pool(3);
    const auto pooled_eval =
        metrics::eval_all_sources(csr, network, 0.90, &scratch, &pool);
    EXPECT_TRUE(bytes_equal(pooled_eval, want));
  }
}

}  // namespace
}  // namespace perigee

// Unit properties of the egress queuing engine (sim/egress.hpp): analytic
// serialization times on a hand-built star, strict priority-band drain
// order (controls before payloads, reversible via band_map), token-bucket
// burst absorption, the ∞-rate ≡ delay-only parity corner, zero-rate
// starvation safety, worker-count invariance under finite rates, and λ
// consistency through metrics::eval_all_sources_egress, and the exact
// re-run when a collapsed control run ends on a time tie. Single sources
// run as a batch of one (oracle::egress_batch_of_one). The cross-engine
// byte-parity sweep over ~200 random topologies lives in
// tests/sim_engine_diff_test.cpp; this file pins the arithmetic the model
// documentation (docs/TRANSMISSION_MODEL.md) promises.
#include "sim/egress.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "broadcast_oracle.hpp"
#include "metrics/eval.hpp"
#include "net/csr.hpp"
#include "obs/metrics.hpp"
#include "runner/thread_pool.hpp"
#include "topo/builders.hpp"
#include "util/rng.hpp"

namespace perigee::sim {
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

// n nodes with zero validation, for graphs built from infra edges, whose
// δ are exactly the values given.
net::Network pinned_network(std::size_t n) {
  net::NetworkOptions options;
  options.n = n;
  options.latency = net::NetworkOptions::LatencyKind::Euclidean;
  options.embed_dim = 1;
  options.handshake_factor = 1.0;
  options.validation_spread = 0.0;
  options.validation_mean_ms = 0.0;
  net::Network network = net::Network::build(options);
  for (auto& profile : network.mutable_profiles()) profile.coords = {};
  return network;
}

// Hub-and-spokes star with every quantity pinned: infra edges carry an
// exact 5 ms δ, validation is zero, and the hub's uplink is 8 Mbit/s
// = 1000 bytes/ms, so a 10000-byte block serializes for exactly 10 ms.
struct Star {
  net::Network network;
  net::Topology topology;
  net::CsrTopology csr;

  static Star build(std::size_t spokes, double hub_mbps) {
    net::Network network = pinned_network(spokes + 1);
    network.mutable_profiles()[0].bandwidth_mbps = hub_mbps;
    net::Topology topology(spokes + 1);
    for (net::NodeId v = 1; v <= spokes; ++v) {
      EXPECT_TRUE(topology.add_infra_edge(0, v, 5.0));
    }
    net::CsrTopology csr = net::CsrTopology::build(topology, network);
    return {std::move(network), std::move(topology), std::move(csr)};
  }
};

std::vector<double> sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(Egress, SerializationQueuesSuccessivePayloads) {
  const Star star = Star::build(3, 8.0);  // 1000 bytes/ms uplink
  EgressConfig config;
  config.block_bytes = 10000.0;  // 10 ms on the wire each
  config.control_bytes = 0.0;
  const EgressPlan plan = EgressPlan::build(star.network, config);
  EXPECT_DOUBLE_EQ(plan.rate(0), 1000.0);

  const BroadcastResult result =
      oracle::egress_batch_of_one(star.csr, config, plan, 0);
  // Payload k finishes serializing at (k+1)*10 ms and lands 5 ms later:
  // the spokes arrive at 15, 25, 35 instead of the delay-only 5, 5, 5.
  EXPECT_EQ(sorted(result.arrival),
            (std::vector<double>{0.0, 15.0, 25.0, 35.0}));
  // Zero validation: ready == arrival everywhere (miner included).
  EXPECT_TRUE(bytes_equal(result.ready, result.arrival));
}

TEST(Egress, ControlBandDrainsBeforePayloadBand) {
  const Star star = Star::build(3, 8.0);
  EgressConfig config;
  config.block_bytes = 10000.0;
  config.control_bytes = 1000.0;  // 1 ms of INV chatter per neighbor
  const EgressPlan plan = EgressPlan::build(star.network, config);

  const BroadcastResult result =
      oracle::egress_batch_of_one(star.csr, config, plan, 0);
  // All three controls serialize first (3 ms, band 0 strictly before
  // band 2), then the payloads: finishes at 13/23/33, arrivals +5.
  EXPECT_EQ(sorted(result.arrival),
            (std::vector<double>{0.0, 18.0, 28.0, 38.0}));
}

TEST(Egress, BandMapReversalPutsPayloadsFirst) {
  const Star star = Star::build(3, 8.0);
  EgressConfig config;
  config.block_bytes = 10000.0;
  config.control_bytes = 1000.0;
  config.band_map = {2, 1, 0};  // full blocks on band 0, controls on band 2
  const EgressPlan plan = EgressPlan::build(star.network, config);

  const BroadcastResult result =
      oracle::egress_batch_of_one(star.csr, config, plan, 0);
  // Payloads now outrank controls: the INV chatter no longer delays any
  // delivery, so arrivals match the control-free schedule exactly.
  EXPECT_EQ(sorted(result.arrival),
            (std::vector<double>{0.0, 15.0, 25.0, 35.0}));
}

TEST(Egress, BurstBucketCoveringBacklogMatchesDelayOnly) {
  const Star star = Star::build(3, 8.0);
  EgressConfig config;
  config.block_bytes = 10000.0;
  config.control_bytes = 1000.0;
  config.burst_bytes = 50000.0;  // deeper than the hub's whole backlog
  const EgressPlan plan = EgressPlan::build(star.network, config);

  const BroadcastResult result =
      oracle::egress_batch_of_one(star.csr, config, plan, 0);
  // Every send is absorbed by the bucket and completes at its dequeue
  // instant — byte-identical to the delay-only oracle.
  const BroadcastResult want =
      oracle::simulate_broadcast(star.topology, star.network, 0);
  EXPECT_TRUE(bytes_equal(result.arrival, want.arrival));
  EXPECT_TRUE(bytes_equal(result.ready, want.ready));
}

// A collapsed control run whose end ties an Arrival scheduled while it
// serialized. Every uplink is 1000 bytes/ms and every message 1000 bytes
// (1 ms), δ are exact integers and validation is zero, so all times are
// exact. Source s relays to u (arrives 4) and w (arrives 5). u's eight
// controls run 4 -> 12; w's payload reaches p at 8 + δ(w,p) = 12, an
// Arrival scheduled at 8, after u's run began. One SendDone per message
// pops that Arrival first, so u's payload to p is suppressed and its six
// leaves arrive at 14..19; letting u's run end pop first would serialize
// the payload to p and push every leaf 1 ms later.
TEST(Egress, RunEndTieReRunsPerMessage) {
  constexpr net::NodeId kS = 0, kU = 1, kP = 2, kW = 3, kNodes = 10;
  net::Network network = pinned_network(kNodes);
  for (auto& profile : network.mutable_profiles()) {
    profile.bandwidth_mbps = 8.0;
  }
  // Adjacency order: s [u, w]; u [s, p, leaves]; w [s, p]; p [u, w].
  net::Topology topology(kNodes);
  ASSERT_TRUE(topology.add_infra_edge(kS, kU, 1.0));
  ASSERT_TRUE(topology.add_infra_edge(kS, kW, 1.0));
  ASSERT_TRUE(topology.add_infra_edge(kU, kP, 1.0));
  ASSERT_TRUE(topology.add_infra_edge(kW, kP, 4.0));
  for (net::NodeId leaf = 4; leaf < kNodes; ++leaf) {
    ASSERT_TRUE(topology.add_infra_edge(kU, leaf, 1.0));
  }
  const auto csr = net::CsrTopology::build(topology, network);

  EgressConfig config;
  config.block_bytes = 1000.0;
  config.control_bytes = 1000.0;
  const EgressPlan plan = EgressPlan::build(network, config);

  obs::Registry& registry = obs::Registry::instance();
  const std::uint64_t before = registry.scrape().counter("egress.reruns");
  const BroadcastResult result =
      oracle::egress_batch_of_one(csr, config, plan, kS);
  const BroadcastResult want =
      oracle::egress_reference(topology, network, config, kS);
  EXPECT_TRUE(bytes_equal(result.arrival, want.arrival));
  EXPECT_TRUE(bytes_equal(result.ready, want.ready));
  EXPECT_EQ(result.arrival, (std::vector<double>{0.0, 4.0, 12.0, 5.0, 14.0,
                                                 15.0, 16.0, 17.0, 18.0,
                                                 19.0}));
  if (obs::telemetry_compiled() && registry.enabled()) {
    EXPECT_GE(registry.scrape().counter("egress.reruns") - before, 1u);
  }

  // λ passes re-run the source too, with its settles reported afresh.
  for (const double coverage : {0.5, 0.9}) {
    std::vector<double> want_lambda(kNodes);
    for (net::NodeId v = 0; v < kNodes; ++v) {
      want_lambda[v] = metrics::lambda_for_broadcast(
          oracle::egress_reference(topology, network, config, v), network,
          coverage);
    }
    EXPECT_TRUE(bytes_equal(
        metrics::eval_all_sources_egress(csr, network, config, plan,
                                         coverage),
        want_lambda))
        << "coverage " << coverage;
  }
}

// Sources the egress solver ran on its 4-ary heap fallback so far (0 when
// telemetry is compiled out or disabled).
std::uint64_t heap_sources() {
  obs::Registry& registry = obs::Registry::instance();
  if (!obs::telemetry_compiled() || !registry.enabled()) return 0;
  return registry.scrape().counter("egress.heap_sources");
}

// The heap path's tally moved by `want` over `run` (checked only when
// telemetry is live).
template <typename Run>
void expect_heap_sources(std::uint64_t want, const Run& run) {
  const std::uint64_t before = heap_sources();
  run();
  if (obs::telemetry_compiled() && obs::Registry::instance().enabled()) {
    EXPECT_EQ(heap_sources() - before, want);
  }
}

TEST(Egress, RateScaleStretchesSerialization) {
  const Star star = Star::build(2, 8.0);
  EgressConfig config;
  config.block_bytes = 10000.0;
  config.rate_scale = 0.5;  // 500 bytes/ms: 20 ms per payload
  const EgressPlan plan = EgressPlan::build(star.network, config);
  EXPECT_DOUBLE_EQ(plan.rate(0), 500.0);

  BroadcastResult result;
  expect_heap_sources(0, [&] {
    result = oracle::egress_batch_of_one(star.csr, config, plan, 0);
  });
  EXPECT_EQ(sorted(result.arrival), (std::vector<double>{0.0, 25.0, 45.0}));

  // A rate so small that one payload serializes for ~10^11 ms: no u32
  // fixed-point grid both resolves the 5 ms δ and holds such times, so the
  // event-queue plan refuses the batch and the heap runs it, still byte-
  // equal to the per-message reference.
  config.rate_scale = 1e-10;
  const EgressPlan slow = EgressPlan::build(star.network, config);
  EXPECT_GT(slow.rate(0), 0.0);
  expect_heap_sources(1, [&] {
    result = oracle::egress_batch_of_one(star.csr, config, slow, 0);
  });
  const BroadcastResult want =
      oracle::egress_reference(star.topology, star.network, config, 0);
  EXPECT_TRUE(bytes_equal(result.arrival, want.arrival));
  EXPECT_TRUE(bytes_equal(result.ready, want.ready));
  EXPECT_GT(result.arrival[1], 1e10);
  EXPECT_TRUE(std::isfinite(result.arrival[2]));
}

TEST(Egress, ZeroRateSenderStarvesButTerminates) {
  const Star star = Star::build(3, 0.0);
  EgressConfig config;
  config.block_bytes = 10000.0;
  const EgressPlan plan = EgressPlan::build(star.network, config);
  EXPECT_DOUBLE_EQ(plan.rate(0), 0.0);

  // The hub's finish is +inf, which no bucket plan holds: the heap runs
  // every source, byte-equal to the per-message reference.
  for (net::NodeId src = 0; src < star.csr.size(); ++src) {
    BroadcastResult result;
    expect_heap_sources(1, [&] {
      result = oracle::egress_batch_of_one(star.csr, config, plan, src);
    });
    const BroadcastResult want =
        oracle::egress_reference(star.topology, star.network, config, src);
    EXPECT_TRUE(bytes_equal(result.arrival, want.arrival)) << "src " << src;
    EXPECT_TRUE(bytes_equal(result.ready, want.ready)) << "src " << src;
    EXPECT_DOUBLE_EQ(result.arrival[src], 0.0);
    if (src == 0) {
      for (net::NodeId v = 1; v < star.csr.size(); ++v) {
        EXPECT_TRUE(std::isinf(result.arrival[v])) << "node " << v;
      }
    }
  }
}

TEST(Egress, UnlimitedRateMatchesOracleByteForByte) {
  net::NetworkOptions options;
  options.n = 120;
  options.seed = 9;
  const auto network = net::Network::build(options);
  net::Topology topology(options.n);
  util::Rng rng(9);
  topo::build_random(topology, rng);
  const auto csr = net::CsrTopology::build(topology, network);

  EgressConfig config;
  config.unlimited_rate = true;
  config.block_bytes = 0.0;
  config.control_bytes = 0.0;
  const EgressPlan plan = EgressPlan::build(network, config);
  for (const net::NodeId miner : {net::NodeId{0}, net::NodeId{37}}) {
    const BroadcastResult want =
        oracle::simulate_broadcast(topology, network, miner);
    const BroadcastResult result =
        oracle::egress_batch_of_one(csr, config, plan, miner);
    EXPECT_TRUE(bytes_equal(result.arrival, want.arrival));
    EXPECT_TRUE(bytes_equal(result.ready, want.ready));
  }
}

TEST(Egress, BatchIsWorkerCountInvariantUnderFiniteRates) {
  net::NetworkOptions options;
  options.n = 90;
  options.seed = 11;
  options.heterogeneous_bandwidth = true;  // per-node log-uniform rates
  const auto network = net::Network::build(options);
  net::Topology topology(options.n);
  util::Rng rng(11);
  topo::build_random(topology, rng);
  const auto csr = net::CsrTopology::build(topology, network);

  EgressConfig config;
  config.block_bytes = 200'000.0;
  config.control_bytes = 1000.0;
  const EgressPlan plan = EgressPlan::build(network, config);

  std::vector<net::NodeId> sources;
  for (net::NodeId v = 0; v < options.n; v += 7) sources.push_back(v);

  EgressScratch scratch;
  MultiSourceResult inline_run, pooled_run, repeat_run;
  simulate_broadcast_egress_batch(csr, config, plan, sources, scratch,
                                  inline_run);
  {
    runner::ThreadPool pool(4);
    simulate_broadcast_egress_batch(csr, config, plan, sources, scratch,
                                    pooled_run, &pool);
  }
  simulate_broadcast_egress_batch(csr, config, plan, sources, scratch,
                                  repeat_run);
  EXPECT_TRUE(bytes_equal(pooled_run.arrival, inline_run.arrival));
  EXPECT_TRUE(bytes_equal(pooled_run.ready, inline_run.ready));
  EXPECT_TRUE(bytes_equal(repeat_run.arrival, inline_run.arrival));
  EXPECT_TRUE(bytes_equal(repeat_run.ready, inline_run.ready));

  // Queuing must never beat pure propagation: the delay-only result is a
  // per-node lower bound on every finite-rate arrival.
  MultiSourceScratch delay_scratch;
  MultiSourceResult delay_run;
  simulate_broadcast_batch(csr, sources, delay_scratch, delay_run);
  for (std::size_t i = 0; i < inline_run.arrival.size(); ++i) {
    EXPECT_GE(inline_run.arrival[i], delay_run.arrival[i]) << "slot " << i;
  }
}

TEST(Egress, EvalAllSourcesEgressMatchesPerSourceLambda) {
  net::NetworkOptions options;
  options.n = 60;
  options.seed = 13;
  options.heterogeneous_bandwidth = true;
  const auto network = net::Network::build(options);
  net::Topology topology(options.n);
  util::Rng rng(13);
  topo::build_random(topology, rng);
  const auto csr = net::CsrTopology::build(topology, network);

  EgressConfig config;
  config.block_bytes = 200'000.0;
  const EgressPlan plan = EgressPlan::build(network, config);

  std::vector<double> want(options.n);
  for (net::NodeId v = 0; v < options.n; ++v) {
    want[v] = metrics::lambda_for_broadcast(
        oracle::egress_batch_of_one(csr, config, plan, v), network, 0.90);
  }

  const auto inline_eval =
      metrics::eval_all_sources_egress(csr, network, config, plan, 0.90);
  EXPECT_TRUE(bytes_equal(inline_eval, want));

  EgressScratch scratch;
  runner::ThreadPool pool(3);
  const auto pooled_eval = metrics::eval_all_sources_egress(
      csr, network, config, plan, 0.90, &scratch, &pool);
  EXPECT_TRUE(bytes_equal(pooled_eval, want));
}

TEST(Egress, PlanCacheRebuildsOnlyWhenProfilesChange) {
  net::NetworkOptions options;
  options.n = 20;
  options.seed = 17;
  auto network = net::Network::build(options);
  EgressConfig config;

  EgressPlanCache cache;
  const EgressPlan& first = cache.get(network, config);
  EXPECT_EQ(first.profile_version(), network.profile_version());
  const double before = first.rate(3);
  // No profile movement: the cached plan is reused verbatim.
  EXPECT_EQ(&cache.get(network, config), &first);

  network.mutable_profiles()[3].bandwidth_mbps *= 2.0;
  const EgressPlan& rebuilt = cache.get(network, config);
  EXPECT_EQ(rebuilt.profile_version(), network.profile_version());
  EXPECT_DOUBLE_EQ(rebuilt.rate(3), 2.0 * before);

  // The plan also reads the config's rate_scale: a second config over the
  // same profiles must get its own rates, not the cached ones.
  EgressConfig slower = config;
  slower.rate_scale = 0.25;
  const EgressPlan fresh = EgressPlan::build(network, slower);
  const EgressPlan& rescaled = cache.get(network, slower);
  for (net::NodeId v = 0; v < network.size(); ++v) {
    EXPECT_DOUBLE_EQ(rescaled.rate(v), fresh.rate(v)) << "node " << v;
  }
  EXPECT_DOUBLE_EQ(cache.get(network, config).rate(3), 2.0 * before);
}

}  // namespace
}  // namespace perigee::sim

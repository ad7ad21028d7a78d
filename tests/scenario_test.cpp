// Scenario layer (src/scenario): static regimes (heterogeneity tiers, geo
// clustering, adversarial withholding) must be deterministic and composable;
// the churn driver's join/leave schedule must keep the CSR engine bit-
// identical to the Topology-walking oracle (extending the
// sim_csr_parity_test pattern to mutating topologies); and scenario sweeps
// must stay byte-identical at any --jobs value.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>

#include "broadcast_oracle.hpp"
#include "core/experiment.hpp"
#include "core/perigee.hpp"
#include "metrics/eval.hpp"
#include "mining/hashpower.hpp"
#include "net/addrman.hpp"
#include "runner/sweep.hpp"
#include "scenario/driver.hpp"
#include "scenario/scenario.hpp"
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

// Field-by-field profile comparison (memcmp would compare padding bytes).
::testing::AssertionResult profiles_equal(
    const std::vector<net::NodeProfile>& a,
    const std::vector<net::NodeProfile>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  }
  for (std::size_t v = 0; v < a.size(); ++v) {
    const bool same = a[v].region == b[v].region &&
                      a[v].coords == b[v].coords &&
                      a[v].access_ms == b[v].access_ms &&
                      a[v].validation_ms == b[v].validation_ms &&
                      a[v].bandwidth_mbps == b[v].bandwidth_mbps &&
                      a[v].hash_power == b[v].hash_power &&
                      a[v].relay == b[v].relay &&
                      a[v].forwards == b[v].forwards;
    if (!same) {
      return ::testing::AssertionFailure() << "profiles differ at node " << v;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(ScenarioSpec, DefaultIsInert) {
  const scenario::ScenarioSpec spec;
  EXPECT_FALSE(spec.any());
  EXPECT_FALSE(spec.has_static());

  // An inert spec must leave the network untouched.
  auto network = make_network(60, 3);
  const auto before = network.profiles();
  scenario::apply_static_regimes(network, spec, 3);
  EXPECT_TRUE(profiles_equal(before, network.profiles()));
}

TEST(ScenarioSpec, StaticRegimesAreDeterministic) {
  scenario::ScenarioSpec spec;
  spec.geo.concentration = 0.3;
  spec.hetero.profile = scenario::HeteroProfile::Datacenter;
  spec.adversary.withhold_fraction = 0.1;

  auto a = make_network(120, 5);
  auto b = make_network(120, 5);
  scenario::apply_static_regimes(a, spec, 5);
  scenario::apply_static_regimes(b, spec, 5);
  EXPECT_TRUE(profiles_equal(a.profiles(), b.profiles()));
}

TEST(ScenarioSpec, AdversaryMarksFractionAndRenormalizesHash) {
  scenario::ScenarioSpec spec;
  spec.adversary.withhold_fraction = 0.2;

  auto network = make_network(200, 7);
  util::Rng hash_rng(7);
  mining::assign_hash_power(network, mining::HashPowerModel::Exponential,
                            hash_rng);
  scenario::apply_static_regimes(network, spec, 7);

  std::size_t withholders = 0;
  for (const auto& p : network.profiles()) {
    if (!p.forwards) {
      ++withholders;
      EXPECT_EQ(p.hash_power, 0.0);
    }
  }
  EXPECT_EQ(withholders, 40u);  // 0.2 * 200
  EXPECT_NEAR(mining::total_hash_power(network), 1.0, 1e-9);
}

TEST(ScenarioSpec, HeteroTiersBandwidthValidationAndHash) {
  scenario::ScenarioSpec spec;
  spec.hetero.profile = scenario::HeteroProfile::Datacenter;
  spec.hetero.fast_fraction = 0.25;

  // Bandwidth tiers force a non-zero block size pre-build.
  net::NetworkOptions options;
  options.n = 160;
  ASSERT_EQ(options.block_size_kb, 0.0);
  scenario::adjust_network_options(options, spec);
  EXPECT_EQ(options.block_size_kb, spec.hetero.block_size_kb);

  auto network = net::Network::build(options);
  util::Rng hash_rng(9);
  mining::assign_hash_power(network, mining::HashPowerModel::Uniform,
                            hash_rng);
  scenario::apply_static_regimes(network, spec, 9);

  std::size_t fast = 0;
  double fast_hash = 0.0;
  for (const auto& p : network.profiles()) {
    if (p.bandwidth_mbps == spec.hetero.fast_bandwidth_mbps) {
      ++fast;
      fast_hash += p.hash_power;
    } else {
      EXPECT_EQ(p.bandwidth_mbps, spec.hetero.slow_bandwidth_mbps);
    }
  }
  EXPECT_EQ(fast, 40u);  // 0.25 * 160
  // Datacenter mix concentrates hash power on the fast tier.
  EXPECT_NEAR(fast_hash, spec.hetero.fast_hash_share, 1e-9);
  EXPECT_NEAR(mining::total_hash_power(network), 1.0, 1e-9);
}

TEST(ScenarioSpec, GeoClusterConcentratesHubRegion) {
  scenario::ScenarioSpec spec;
  spec.geo.concentration = 0.5;
  spec.geo.hub = net::Region::China;

  auto network = make_network(200, 11);
  scenario::apply_static_regimes(network, spec, 11);
  std::size_t in_hub = 0;
  for (const auto& p : network.profiles()) {
    in_hub += p.region == net::Region::China ? 1 : 0;
  }
  // At least the moved fraction (plus whoever the mix already placed there).
  EXPECT_GE(in_hub, 100u);
}

TEST(ChurnDriver, DowntimeScheduleStashesAndRestores) {
  const std::size_t n = 100;
  auto network = make_network(n, 13);
  util::Rng hash_rng(13);
  mining::assign_hash_power(network, mining::HashPowerModel::Uniform,
                            hash_rng);
  net::Topology topology(n);
  util::Rng rng(13);
  topo::build_random(topology, rng);
  net::AddrMan addrman(n, 50);
  util::Rng boot(13);
  addrman.bootstrap(boot, 20);

  scenario::ChurnRegime regime;
  regime.rate = 0.05;
  regime.start_round = 1;
  regime.downtime_rounds = 2;
  scenario::ChurnDriver driver(regime, topology, network, 13, &addrman, 20);

  // Round 0 is before start_round: nothing happens.
  EXPECT_FALSE(driver.before_round(0));
  EXPECT_EQ(driver.departures(), 0u);
  EXPECT_EQ(driver.currently_down(), 0u);

  // Round 1: 5 nodes leave and go dark; their hash power is stashed.
  EXPECT_TRUE(driver.before_round(1));
  EXPECT_EQ(driver.departures(), 5u);
  EXPECT_EQ(driver.currently_down(), 5u);
  std::vector<net::NodeId> dark;
  for (net::NodeId v = 0; v < n; ++v) {
    if (driver.is_down(v)) {
      dark.push_back(v);
      EXPECT_EQ(network.profile(v).hash_power, 0.0);
      EXPECT_EQ(topology.out_count(v) + topology.in_count(v), 0);
    }
  }
  ASSERT_EQ(dark.size(), 5u);

  // While dark, connections dialed at a dead address are torn down again.
  // Dial from a live node with a free outgoing slot (the departures just
  // freed slots at every former in-dialer of a dark node).
  const net::NodeId dead = dark.front();
  net::NodeId dialer = net::kInvalidNode;
  for (net::NodeId v = 0; v < n; ++v) {
    if (!driver.is_down(v) && !topology.out_full(v)) {
      dialer = v;
      break;
    }
  }
  ASSERT_NE(dialer, net::kInvalidNode);
  ASSERT_TRUE(topology.connect(dialer, dead));
  driver.before_round(2);
  EXPECT_EQ(topology.in_count(dead), 0);

  // Round 3 = 1 + downtime: the round-1 leavers rejoin with fresh dials,
  // restored hash power, and a re-bootstrapped address book.
  EXPECT_TRUE(driver.before_round(3));
  for (const net::NodeId v : dark) {
    if (driver.is_down(v)) continue;  // re-churned by round 3's departures
    EXPECT_GT(network.profile(v).hash_power, 0.0);
    // Full out_cap redial, minus edges lost to peers that departed in this
    // same round's churn phase (processed after the rejoins).
    EXPECT_GE(topology.out_count(v), topology.limits().out_cap - 5);
    EXPECT_GT(topology.out_count(v), 0);
    EXPECT_EQ(addrman.known_count(v), 20u);
  }
  topology.validate();
}

TEST(ChurnDriver, InstantRejoinKeepsHashAndResetsBook) {
  const std::size_t n = 80;
  auto network = make_network(n, 17);
  net::Topology topology(n);
  util::Rng rng(17);
  topo::build_random(topology, rng);
  net::AddrMan addrman(n, 40);
  util::Rng boot(17);
  addrman.bootstrap(boot, 10);

  scenario::ChurnRegime regime;
  regime.rate = 0.1;
  regime.start_round = 0;
  scenario::ChurnDriver driver(regime, topology, network, 17, &addrman, 10);

  // Instant rejoin never touches hash power (no sampler refresh needed).
  EXPECT_FALSE(driver.before_round(0));
  EXPECT_EQ(driver.departures(), 8u);
  EXPECT_EQ(driver.currently_down(), 0u);
  ASSERT_EQ(driver.last_rejoined().size(), 8u);
  for (const net::NodeId v : driver.last_rejoined()) {
    // A later leaver in the same round may have torn down an edge this node
    // just dialed; only the last rejoiner is guaranteed the full redial.
    EXPECT_GT(topology.out_count(v), 0);
    EXPECT_EQ(addrman.known_count(v), 10u);
  }
  EXPECT_EQ(topology.out_count(driver.last_rejoined().back()),
            topology.limits().out_cap);
  topology.validate();
}

// UCB maps one update epoch onto blocks_per_round single-block rounds.
// The schedule must land only on epoch boundaries, but a dark node's dead
// IP must shed connections on *every* round — UCB selectors rewire between
// boundaries and a "down" node must never relay.
TEST(ChurnDriver, EpochScalingKeepsScheduleButSweepsDeadIpsEveryRound) {
  const std::size_t n = 50;
  auto network = make_network(n, 41);
  net::Topology topology(n);
  util::Rng rng(41);
  topo::build_random(topology, rng);

  scenario::ChurnRegime regime;
  regime.rate = 0.1;
  regime.start_round = 0;
  regime.downtime_rounds = 1;
  const std::size_t epoch_rounds = 5;
  scenario::ChurnDriver driver(regime, topology, network, 41, nullptr, 0,
                               epoch_rounds);

  // Round 0 = epoch 0 boundary: 5 nodes go dark for one epoch.
  driver.before_round(0);
  ASSERT_EQ(driver.currently_down(), 5u);
  net::NodeId dead = 0;
  while (!driver.is_down(dead)) ++dead;

  // Mid-epoch: an exploration dial at the dead address is torn down on the
  // very next round, and the schedule itself stays untouched.
  net::NodeId dialer = 0;
  while (driver.is_down(dialer) || topology.out_full(dialer)) ++dialer;
  ASSERT_TRUE(topology.connect(dialer, dead));
  driver.before_round(1);
  EXPECT_EQ(topology.in_count(dead), 0);
  EXPECT_TRUE(driver.last_rejoined().empty());
  EXPECT_EQ(driver.currently_down(), 5u);
  EXPECT_EQ(driver.departures(), 5u);

  // Rounds 2..4 are still epoch 0: nobody rejoins or departs.
  driver.before_round(2);
  driver.before_round(3);
  driver.before_round(4);
  EXPECT_EQ(driver.currently_down(), 5u);
  EXPECT_EQ(driver.departures(), 5u);

  // Round 5 = epoch 1 boundary: downtime elapsed, the round-0 leavers
  // rejoin (minus any re-churned by epoch 1's own departures).
  EXPECT_TRUE(driver.before_round(5));
  EXPECT_FALSE(driver.last_rejoined().empty());
  topology.validate();
}

// A probe selector wired exactly the way core::run_experiment wires churn:
// every rejoined node's selector must be reset (fresh participant).
TEST(ChurnDriver, RejoinResetsSelectorState) {
  class ProbeSelector final : public sim::NeighborSelector {
   public:
    explicit ProbeSelector(int* resets) : resets_(resets) {}
    void on_round_end(net::NodeId, sim::RoundContext&) override {}
    void on_reset(net::NodeId) override { ++*resets_; }
    const char* name() const override { return "probe"; }

   private:
    int* resets_;
  };

  const std::size_t n = 60;
  auto network = make_network(n, 19);
  net::Topology topology(n);
  util::Rng rng(19);
  topo::build_random(topology, rng);

  int resets = 0;
  std::vector<std::unique_ptr<sim::NeighborSelector>> selectors;
  for (std::size_t i = 0; i < n; ++i) {
    selectors.push_back(std::make_unique<ProbeSelector>(&resets));
  }
  sim::RoundRunner runner(network, topology, std::move(selectors), 5, 19);

  scenario::ChurnRegime regime;
  regime.rate = 0.1;
  regime.start_round = 0;
  scenario::ChurnDriver driver(regime, topology, network, 19);
  std::size_t rejoins = 0;
  runner.set_pre_round_hook([&](std::size_t round) {
    if (driver.before_round(round)) runner.refresh_hash_power();
    for (const net::NodeId v : driver.last_rejoined()) {
      runner.reset_selector(v);
      ++rejoins;
    }
  });
  runner.run_rounds(4);
  EXPECT_GT(rejoins, 0u);
  EXPECT_EQ(static_cast<std::size_t>(resets), rejoins);
}

// The tentpole parity guarantee: under churn the topology mutates between
// rounds, the CsrCache recompiles, and every block of every round must still
// match the Topology-walking oracle byte for byte.
TEST(ScenarioParity, ChurnMutatedTopologyKeepsOracleParity) {
  const std::size_t n = 120;
  auto network = make_network(n, 23);
  net::Topology topology(n);
  util::Rng rng(23);
  topo::build_random(topology, rng);

  sim::RoundRunner runner(
      network, topology,
      core::make_selectors(n, core::Algorithm::PerigeeSubset), 10, 23);
  scenario::ChurnRegime regime;
  regime.rate = 0.05;
  regime.start_round = 0;
  regime.downtime_rounds = 1;  // exercise dark nodes + dead-IP sweeps too
  scenario::ChurnDriver driver(regime, topology, network, 23);
  runner.set_pre_round_hook([&](std::size_t round) {
    if (driver.before_round(round)) runner.refresh_hash_power();
    for (const net::NodeId v : driver.last_rejoined()) {
      runner.reset_selector(v);
    }
  });

  std::size_t blocks_checked = 0;
  runner.set_block_hook([&](const sim::BroadcastResult& fast) {
    // The topology is static within a round; the oracle reads it live.
    const auto want = oracle::simulate_broadcast(topology, network, fast.miner);
    ASSERT_EQ(fast.arrival.size(), want.arrival.size());
    EXPECT_TRUE(std::memcmp(fast.arrival.data(), want.arrival.data(),
                            want.arrival.size() * sizeof(double)) == 0)
        << "miner " << fast.miner;
    EXPECT_TRUE(std::memcmp(fast.ready.data(), want.ready.data(),
                            want.ready.size() * sizeof(double)) == 0)
        << "miner " << fast.miner;
    ++blocks_checked;
  });
  runner.run_rounds(6);
  EXPECT_EQ(blocks_checked, 60u);
  EXPECT_GT(driver.departures(), 0u);
  topology.validate();
}

// Same oracle check for an adversary scenario built through the full
// config path (core::build_scenario applies the withholding regime).
TEST(ScenarioParity, AdversaryScenarioKeepsOracleParity) {
  core::ExperimentConfig config;
  config.net.n = 100;
  config.seed = 29;
  config.scenario.adversary.withhold_fraction = 0.15;
  core::Scenario scenario = core::build_scenario(config);
  build_initial_topology(config, scenario);

  std::size_t withholders = 0;
  for (const auto& p : scenario.network.profiles()) {
    withholders += p.forwards ? 0 : 1;
  }
  EXPECT_EQ(withholders, 15u);

  sim::RoundRunner runner(
      scenario.network, scenario.topology,
      core::make_selectors(config.net.n, core::Algorithm::PerigeeSubset), 10,
      config.seed);
  std::size_t blocks_checked = 0;
  runner.set_block_hook([&](const sim::BroadcastResult& fast) {
    const auto want = oracle::simulate_broadcast(scenario.topology,
                                                 scenario.network, fast.miner);
    EXPECT_TRUE(std::memcmp(fast.arrival.data(), want.arrival.data(),
                            want.arrival.size() * sizeof(double)) == 0)
        << "miner " << fast.miner;
    ++blocks_checked;
  });
  runner.run_rounds(4);
  EXPECT_EQ(blocks_checked, 40u);
}

TEST(ScenarioExperiment, ChurnExperimentSelfHeals) {
  core::ExperimentConfig config;
  config.net.n = 120;
  config.rounds = 8;
  config.blocks_per_round = 20;
  config.algorithm = core::Algorithm::PerigeeSubset;
  config.seed = 31;
  config.scenario.churn.rate = 0.05;  // instant-rejoin reset churn

  const auto result = core::run_experiment(config);
  ASSERT_EQ(result.lambda.size(), config.net.n);
  // Reset churn keeps every node connected: λ stays finite everywhere.
  for (const double l : result.lambda) EXPECT_TRUE(std::isfinite(l));
}

TEST(ScenarioExperiment, ChurnRunsRoundsForStaticBaselines) {
  // Static algorithms normally skip the round loop; under churn they must
  // live through the schedule (and end up worse than churn-free).
  core::ExperimentConfig config;
  config.net.n = 120;
  config.rounds = 10;
  config.blocks_per_round = 5;
  config.algorithm = core::Algorithm::Random;
  config.seed = 37;

  const auto baseline = core::run_experiment(config);
  config.scenario.churn.rate = 0.05;
  const auto churned = core::run_experiment(config);
  EXPECT_GT(util::mean(churned.lambda), util::mean(baseline.lambda));
}

TEST(ScenarioSweep, AxesExpandIntoLabeledCells) {
  runner::SweepSpec spec;
  spec.base.net.n = 40;
  spec.algorithms = {core::Algorithm::PerigeeSubset};
  spec.churn_rates = {0.0, 0.05};
  spec.withhold_fractions = {0.0, 0.1};
  spec.hetero_profiles = {scenario::HeteroProfile::Off,
                          scenario::HeteroProfile::Datacenter};

  const auto cells = runner::expand_grid(spec);
  ASSERT_EQ(cells.size(), 8u);
  EXPECT_EQ(cells[0].label,
            "algorithm=perigee-subset churn=0 hetero=off withhold=0");
  EXPECT_EQ(cells[7].label,
            "algorithm=perigee-subset churn=0.05 hetero=datacenter "
            "withhold=0.1");
  EXPECT_EQ(cells[7].config.scenario.churn.rate, 0.05);
  EXPECT_EQ(cells[7].config.scenario.hetero.profile,
            scenario::HeteroProfile::Datacenter);
  EXPECT_EQ(cells[7].config.scenario.adversary.withhold_fraction, 0.1);
  // Unswept specs leave the base scenario alone.
  EXPECT_FALSE(cells[0].config.scenario.any());
}

TEST(ScenarioSweep, JobsCountIsInvisibleByteForByte) {
  runner::SweepSpec spec;
  spec.name = "scenario-determinism";
  spec.base.net.n = 60;
  spec.base.rounds = 3;
  spec.base.blocks_per_round = 10;
  spec.algorithms = {core::Algorithm::PerigeeSubset};
  spec.churn_rates = {0.0, 0.05};
  spec.withhold_fractions = {0.0, 0.1};
  spec.seeds = 2;

  const auto sequential = runner::SweepRunner(1).run(spec);
  const auto parallel = runner::SweepRunner(3).run(spec);
  std::ostringstream a, b;
  runner::write_json(a, spec, sequential);
  runner::write_json(b, spec, parallel);
  EXPECT_EQ(a.str(), b.str());
}

TEST(ScenarioNames, HeteroProfileRoundTrips) {
  for (const auto profile :
       {scenario::HeteroProfile::Off, scenario::HeteroProfile::Bandwidth,
        scenario::HeteroProfile::Validation,
        scenario::HeteroProfile::Datacenter}) {
    const auto name = scenario::hetero_profile_name(profile);
    const auto back = scenario::hetero_profile_from_name(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, profile);
  }
  EXPECT_FALSE(scenario::hetero_profile_from_name("warp-drive").has_value());
}

}  // namespace
}  // namespace perigee

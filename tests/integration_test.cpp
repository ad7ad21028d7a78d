// End-to-end assertions of the paper's headline claims at test-friendly
// scale. These mirror the bench binaries (which run at full scale) and pin
// the qualitative results: who wins, and roughly by how much.
#include <gtest/gtest.h>

#include <cmath>

#include "core/experiment.hpp"
#include "metrics/edge_hist.hpp"
#include "metrics/eval.hpp"
#include "net/geo.hpp"
#include "sim/batch.hpp"
#include "sim/rounds.hpp"
#include "util/stats.hpp"

namespace perigee {
namespace {

core::ExperimentConfig base_config() {
  core::ExperimentConfig config;
  config.net.n = 300;
  config.rounds = 25;
  config.blocks_per_round = 100;
  config.seed = 101;
  return config;
}

double mean_lambda(core::Algorithm algorithm,
                   core::ExperimentConfig config = base_config()) {
  config.algorithm = algorithm;
  return util::mean(core::run_experiment(config).lambda);
}

TEST(Figure3a, PerigeeSubsetBeatsRandomByDoubleDigits) {
  const double random = mean_lambda(core::Algorithm::Random);
  const double subset = mean_lambda(core::Algorithm::PerigeeSubset);
  const double improvement = 1.0 - subset / random;
  // Paper: 33% at n=1000 after convergence; at this reduced scale we pin a
  // conservative double-digit win.
  EXPECT_GT(improvement, 0.10) << "random " << random << " subset " << subset;
}

TEST(Figure3a, OrderingMatchesPaper) {
  const double random = mean_lambda(core::Algorithm::Random);
  const double geographic = mean_lambda(core::Algorithm::Geographic);
  const double subset = mean_lambda(core::Algorithm::PerigeeSubset);
  const double vanilla = mean_lambda(core::Algorithm::PerigeeVanilla);
  const auto config = base_config();
  const double ideal = util::mean(core::run_ideal(config));

  // Figure 3(a): subset < vanilla < geographic-ish < random; Kademlia is
  // within noise of random; ideal below everything.
  EXPECT_LT(subset, vanilla);
  EXPECT_LT(vanilla, random);
  EXPECT_LT(geographic, random);
  EXPECT_LT(subset, geographic);
  EXPECT_LT(ideal, subset);
  const double kademlia = mean_lambda(core::Algorithm::Kademlia);
  EXPECT_NEAR(kademlia / random, 1.0, 0.12);
}

TEST(Figure3b, ExponentialHashPowerPreservesTheWin) {
  auto config = base_config();
  config.hash_model = mining::HashPowerModel::Exponential;
  const double random = mean_lambda(core::Algorithm::Random, config);
  const double subset = mean_lambda(core::Algorithm::PerigeeSubset, config);
  EXPECT_GT(1.0 - subset / random, 0.10);
}

TEST(Figure4a, LargeValidationDelayErasesTheGap) {
  // §5.3: as node (validation) delay grows, hop count dominates and Perigee
  // approaches the random protocol; at small node delay the gap is largest.
  auto fast = base_config();
  fast.net.validation_scale = 0.1;
  const double gain_fast =
      1.0 - mean_lambda(core::Algorithm::PerigeeSubset, fast) /
                mean_lambda(core::Algorithm::Random, fast);

  auto slow = base_config();
  slow.net.validation_scale = 10.0;
  const double gain_slow =
      1.0 - mean_lambda(core::Algorithm::PerigeeSubset, slow) /
                mean_lambda(core::Algorithm::Random, slow);

  // The gap shrinks monotonically toward random as validation dominates.
  // (It does not vanish entirely here: per-node validation times vary, so
  // Perigee can still learn to prefer fast-validating relays.)
  EXPECT_GT(gain_fast, gain_slow + 0.05);
  EXPECT_GT(gain_fast, 0.15);
  EXPECT_LT(gain_slow, 0.20);
}

TEST(Figure4b, MiningPoolsFavorPerigee) {
  // §5.4: 10% of nodes hold 90% of hash power with fast pool-pool links;
  // Perigee learns to sit near the pools and closes much of the gap to
  // ideal.
  auto config = base_config();
  config.hash_model = mining::HashPowerModel::Pools;
  config.pool_latency_scale = 0.1;
  const double random = mean_lambda(core::Algorithm::Random, config);
  const double subset = mean_lambda(core::Algorithm::PerigeeSubset, config);
  const double ideal = util::mean(core::run_ideal(config));
  ASSERT_LT(ideal, random);
  const double closed = (random - subset) / (random - ideal);
  EXPECT_GT(closed, 0.5);  // closes over half the feasible range
}

TEST(Figure4c, RelayNetworkIsExploited) {
  // §5.4: with a fast relay overlay present for everyone, Perigee approaches
  // the fully-connected bound much closer than random does.
  auto config = base_config();
  config.relay = true;
  config.relay_config.members = 30;
  const double random = mean_lambda(core::Algorithm::Random, config);
  const double subset = mean_lambda(core::Algorithm::PerigeeSubset, config);
  const double ideal = util::mean(core::run_ideal(config));
  ASSERT_LT(ideal, random);
  const double closed = (random - subset) / (random - ideal);
  EXPECT_GT(closed, 0.4);
}

TEST(Figure5, SubsetConcentratesEdgesAtTheLowMode) {
  // §5.5: the edge-latency histogram is bimodal everywhere, and
  // Perigee-Subset shifts the bulk of edges to the intra-continent mode.
  auto config = base_config();
  config.algorithm = core::Algorithm::Random;
  const auto random_result = core::run_experiment(config);
  config.algorithm = core::Algorithm::PerigeeSubset;
  const auto subset_result = core::run_experiment(config);

  // Cut between the modes: above every intra-continent base latency, below
  // the inter-continent ones.
  const double cut_ms = 50.0;
  const double random_low =
      metrics::fraction_below(random_result.edge_latencies, cut_ms);
  const double subset_low =
      metrics::fraction_below(subset_result.edge_latencies, cut_ms);
  EXPECT_GT(subset_low, random_low + 0.15);
  EXPECT_GT(subset_low, 0.5);  // the bulk of subset's edges are local
}

TEST(Convergence, NinetyPercentileDelayImproves) {
  auto config = base_config();
  config.algorithm = core::Algorithm::PerigeeSubset;
  config.checkpoints = 5;
  const auto result = core::run_experiment(config);
  ASSERT_GE(result.checkpoints.size(), 3u);
  const double first = result.checkpoints.front().mean_lambda;
  const double last = result.checkpoints.back().mean_lambda;
  EXPECT_LT(last, first * 0.95);
  // And most of the improvement arrives early (learning converges).
  const double mid = result.checkpoints[result.checkpoints.size() / 2]
                         .mean_lambda;
  EXPECT_LT(mid, first - 0.5 * (first - last));
}

TEST(GossipVsFast, RankingRobustToEngine) {
  // The fast engine drives all benches; spot-check with the message-level
  // engine that subset's learned topology also wins under explicit
  // INV/GETDATA semantics.
  auto config = base_config();
  config.net.n = 200;
  config.rounds = 15;

  config.algorithm = core::Algorithm::Random;
  core::Scenario random_scenario = core::build_scenario(config);
  core::build_initial_topology(config, random_scenario);

  config.algorithm = core::Algorithm::PerigeeSubset;
  const auto subset_result = core::run_experiment(config);
  // Rebuild the subset scenario's final topology indirectly: rerun the
  // experiment pipeline but measure with the gossip engine on the shared
  // scenario. Simplest: compare mean first-arrival over a few miners using
  // gossip on random vs the subset-trained topology rebuilt via the runner.
  core::Scenario subset_scenario = core::build_scenario(config);
  core::build_initial_topology(config, subset_scenario);
  sim::RoundRunner runner(
      subset_scenario.network, subset_scenario.topology,
      core::make_selectors(subset_scenario.network.size(),
                           core::Algorithm::PerigeeSubset),
      config.blocks_per_round, config.seed);
  runner.run_rounds(config.rounds);

  auto gossip_mean = [](const core::Scenario& scenario) {
    const std::vector<net::NodeId> miners = {1, 50, 99};
    sim::MultiSourceScratch scratch;
    sim::MultiSourceResult result;
    sim::simulate_announce_batch(
        net::CsrTopology::build(scenario.topology, scenario.network), miners,
        scratch, result);
    double total = 0;
    int count = 0;
    for (std::size_t s = 0; s < miners.size(); ++s) {
      for (double a : result.arrival_of(s)) {
        total += a;
        ++count;
      }
    }
    return total / count;
  };
  EXPECT_LT(gossip_mean(subset_scenario), gossip_mean(random_scenario));
  (void)subset_result;
}

}  // namespace
}  // namespace perigee

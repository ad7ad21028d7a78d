#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "metrics/curves.hpp"
#include "metrics/eval.hpp"
#include "obs/metrics.hpp"
#include "util/stats.hpp"

namespace perigee::core {
namespace {

ExperimentConfig small_config(Algorithm algorithm) {
  ExperimentConfig config;
  config.net.n = 120;
  config.algorithm = algorithm;
  config.rounds = 5;
  config.blocks_per_round = 20;
  config.seed = 77;
  return config;
}

// A negative Δv lets event times run backwards, which both relaxation
// queues rely on never happening: unchecked, a scale of -1 hangs the delay
// path and -100 aborts it, while the queued egress engine returns λ
// computed with negative validation. run_experiment must refuse such a
// config up front, on either engine.
TEST(Experiment, RejectsNegativeOrNonFiniteValidationScale) {
  for (const bool queued : {false, true}) {
    for (const double scale :
         {-1.0, -100.0, -1e-9, std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN()}) {
      ExperimentConfig config = small_config(Algorithm::PerigeeSubset);
      config.net.n = 40;
      config.net.validation_scale = scale;
      if (queued) {
        config.scenario.transmission.model = scenario::TransmissionModel::Queue;
      }
      EXPECT_THROW(run_experiment(config), std::invalid_argument)
          << "scale " << scale << (queued ? " (queue)" : " (delay)");
    }
  }
  ExperimentConfig zero = small_config(Algorithm::Random);
  zero.net.n = 40;
  zero.net.validation_scale = 0.0;
  EXPECT_NO_THROW(zero.validate());
}

TEST(Experiment, StaticBaselineProducesFiniteLambdas) {
  const auto result = run_experiment(small_config(Algorithm::Random));
  EXPECT_EQ(result.algorithm, "random");
  ASSERT_EQ(result.lambda.size(), 120u);
  for (double l : result.lambda) EXPECT_TRUE(std::isfinite(l));
  EXPECT_EQ(result.lambda50.size(), 120u);
  EXPECT_FALSE(result.edge_latencies.empty());
}

TEST(Experiment, Lambda50NeverExceedsLambda90) {
  const auto result = run_experiment(small_config(Algorithm::PerigeeSubset));
  for (std::size_t v = 0; v < result.lambda.size(); ++v) {
    EXPECT_LE(result.lambda50[v], result.lambda[v] + 1e-9);
  }
}

TEST(Experiment, DeterministicForFixedSeed) {
  const auto a = run_experiment(small_config(Algorithm::PerigeeSubset));
  const auto b = run_experiment(small_config(Algorithm::PerigeeSubset));
  EXPECT_EQ(a.lambda, b.lambda);
  EXPECT_EQ(a.edge_latencies, b.edge_latencies);
}

TEST(Experiment, SeedChangesOutcome) {
  auto config = small_config(Algorithm::PerigeeSubset);
  const auto a = run_experiment(config);
  config.seed = 78;
  const auto b = run_experiment(config);
  EXPECT_NE(a.lambda, b.lambda);
}

TEST(Experiment, CheckpointsTrackLearning) {
  auto config = small_config(Algorithm::PerigeeSubset);
  config.rounds = 8;
  config.checkpoints = 4;
  const auto result = run_experiment(config);
  ASSERT_GE(result.checkpoints.size(), 4u);
  EXPECT_EQ(result.checkpoints.front().blocks_mined, 0u);
  EXPECT_EQ(result.checkpoints.back().blocks_mined, 8u * 20u);
  // Learning must not make things worse end-to-end.
  EXPECT_LE(result.checkpoints.back().mean_lambda,
            result.checkpoints.front().mean_lambda * 1.05);
}

// The final evaluation serves both coverages from one pass; pin which
// vector lands where: λ at config.coverage and λ50 must be exactly what
// the single-coverage evaluation gives on the same (static) topology.
TEST(Experiment, FinalLambdasMatchSingleCoverageEvaluation) {
  const auto config = small_config(Algorithm::Random);
  const auto result = run_experiment(config);
  Scenario scenario = build_scenario(config);
  build_initial_topology(config, scenario);
  EXPECT_EQ(result.lambda, metrics::eval_all_sources(scenario.topology,
                                                     scenario.network, 0.9));
  EXPECT_EQ(result.lambda50, metrics::eval_all_sources(scenario.topology,
                                                       scenario.network, 0.5));
}

// With one checkpoint interval the last checkpoint evaluates the final
// snapshot through the single-coverage path, so its mean must equal the
// mean of the final λ exactly, under the delay and the queued engine.
TEST(Experiment, LastCheckpointMatchesFinalLambda) {
  for (const auto model : {scenario::TransmissionModel::Delay,
                           scenario::TransmissionModel::Queue}) {
    auto config = small_config(Algorithm::PerigeeSubset);
    config.rounds = 3;
    config.checkpoints = 1;
    config.scenario.transmission.model = model;
    config.scenario.hetero.profile = scenario::HeteroProfile::Bandwidth;
    const auto result = run_experiment(config);
    ASSERT_EQ(result.checkpoints.size(), 2u);
    EXPECT_EQ(result.checkpoints.back().mean_lambda,
              util::mean(result.lambda))
        << scenario::transmission_model_name(model);
    EXPECT_EQ(result.checkpoints.back().mean_lambda50,
              util::mean(result.lambda50))
        << scenario::transmission_model_name(model);
  }
}

// The last checkpoint evaluates the final snapshot, so its pass is the
// final λ: a checkpoints = 1 run relaxes n sources at round 0, rounds·|B|
// in the round loop and n at the end — not a third all-source pass for the
// final λ.
TEST(Experiment, FinalLambdaReusesLastCheckpointPass) {
  obs::Registry& registry = obs::Registry::instance();
  if (!obs::telemetry_compiled() || !registry.enabled()) {
    GTEST_SKIP() << "counts relaxations through telemetry counters";
  }
  auto config = small_config(Algorithm::PerigeeSubset);
  config.rounds = 3;
  config.checkpoints = 1;
  const auto sources = [&registry](const char* name) {
    return registry.scrape().counter(name);
  };
  const std::uint64_t bucket_before = sources("engine.bucket.sources");
  const std::uint64_t heap_before = sources("engine.heap.sources");
  const auto result = run_experiment(config);
  ASSERT_EQ(result.checkpoints.size(), 2u);
  const std::uint64_t n = config.net.n;
  const std::uint64_t round_sources =
      static_cast<std::uint64_t>(config.rounds) *
      static_cast<std::uint64_t>(config.blocks_per_round);
  EXPECT_EQ(sources("engine.heap.sources"), heap_before);
  EXPECT_EQ(sources("engine.bucket.sources") - bucket_before,
            2 * n + round_sources);
}

TEST(Experiment, StaticAlgorithmsSkipLearning) {
  auto config = small_config(Algorithm::Geographic);
  config.checkpoints = 3;
  const auto result = run_experiment(config);
  EXPECT_TRUE(result.checkpoints.empty());
}

TEST(Experiment, UcbRunsSingleBlockRounds) {
  // UCB must still produce a valid experiment via the expanded schedule.
  auto config = small_config(Algorithm::PerigeeUcb);
  config.rounds = 2;
  config.blocks_per_round = 30;  // -> 60 single-block rounds
  const auto result = run_experiment(config);
  EXPECT_EQ(result.algorithm, "perigee-ucb");
  for (double l : result.lambda) EXPECT_TRUE(std::isfinite(l));
}

TEST(Experiment, IdealLowerBoundsEverything) {
  const auto config = small_config(Algorithm::PerigeeSubset);
  const auto ideal = run_ideal(config);
  const auto result = run_experiment(config);
  // Compare distribution-wise (per-node pairing is meaningless after
  // sorting): the ideal mean must be below any topology's mean.
  EXPECT_LT(util::mean(ideal), util::mean(result.lambda));
}

TEST(Experiment, ScenarioHonorsPoolsAndLatencyScale) {
  ExperimentConfig config = small_config(Algorithm::Random);
  config.hash_model = mining::HashPowerModel::Pools;
  config.pools = {.pool_fraction = 0.1, .pool_share = 0.9};
  config.pool_latency_scale = 0.1;
  Scenario scenario = build_scenario(config);
  ASSERT_EQ(scenario.pool_members.size(), 12u);
  // Pool-to-pool links are scaled down ~10x relative to a fresh unscaled
  // network.
  const net::Network plain = net::Network::build([&] {
    auto o = config.net;
    o.seed = config.seed;
    return o;
  }());
  const net::NodeId a = scenario.pool_members[0];
  const net::NodeId b = scenario.pool_members[1];
  EXPECT_NEAR(scenario.network.link_ms(a, b), 0.1 * plain.link_ms(a, b),
              1e-9);
  // Mixed links untouched.
  net::NodeId outsider = 0;
  while (std::find(scenario.pool_members.begin(), scenario.pool_members.end(),
                   outsider) != scenario.pool_members.end()) {
    ++outsider;
  }
  EXPECT_NEAR(scenario.network.link_ms(a, outsider),
              plain.link_ms(a, outsider), 1e-9);
}

TEST(Experiment, RelayScenarioInstallsInfraEdges) {
  ExperimentConfig config = small_config(Algorithm::Random);
  config.relay = true;
  config.relay_config.members = 30;
  Scenario scenario = build_scenario(config);
  EXPECT_EQ(scenario.relay_members.size(), 30u);
  EXPECT_EQ(scenario.topology.infra_edges().size(), 29u);
}

TEST(Experiment, MultiSeedAggregatesSortedCurves) {
  auto config = small_config(Algorithm::Random);
  std::vector<std::vector<double>> runs;
  for (std::uint64_t s = 0; s < 3; ++s) {
    ExperimentConfig seeded = config;
    seeded.seed += s;
    runs.push_back(run_experiment(seeded).lambda);
  }
  const metrics::Curve curve = metrics::aggregate_sorted_curves(runs);
  ASSERT_EQ(curve.mean.size(), 120u);
  for (std::size_t i = 1; i < curve.mean.size(); ++i) {
    EXPECT_GE(curve.mean[i], curve.mean[i - 1]);
  }
  // Seeds differ, so index-wise spread is positive somewhere.
  double total_stddev = 0;
  for (double s : curve.stddev) total_stddev += s;
  EXPECT_GT(total_stddev, 0.0);
}

TEST(Experiment, IncrementalAdoptersBeatHoldouts) {
  ExperimentConfig config = small_config(Algorithm::PerigeeSubset);
  config.net.n = 200;
  config.rounds = 12;
  config.blocks_per_round = 50;
  const auto result = run_incremental(config, 0.5);
  EXPECT_EQ(result.lambda_adopters.size(), 100u);
  EXPECT_EQ(result.lambda_others.size(), 100u);
  // §1.2: peers following Perigee see improvements over those that do not.
  EXPECT_LT(util::mean(result.lambda_adopters),
            util::mean(result.lambda_others));
}

// run_incremental runs run_experiment's learning loop on the Subset
// schedule: with every node adopting it is Perigee-Subset, and with none it
// is the random topology living through the same rounds, bit for bit, with
// and without churn.
TEST(Experiment, IncrementalAtFullOrNoAdoptionIsRunExperiment) {
  for (const double churn : {0.0, 0.05}) {
    ExperimentConfig config = small_config(Algorithm::PerigeeSubset);
    config.scenario.churn.rate = churn;
    for (const auto& [fraction, algorithm] :
         {std::pair{1.0, Algorithm::PerigeeSubset},
          std::pair{0.0, Algorithm::Random}}) {
      SCOPED_TRACE(::testing::Message()
                   << "churn " << churn << ", adoption " << fraction);
      const IncrementalResult mixed = run_incremental(config, fraction);
      config.algorithm = algorithm;
      const ExperimentResult whole = run_experiment(config);
      const std::vector<double>& group =
          fraction == 1.0 ? mixed.lambda_adopters : mixed.lambda_others;
      EXPECT_TRUE((fraction == 1.0 ? mixed.lambda_others
                                   : mixed.lambda_adopters)
                      .empty());
      ASSERT_EQ(group.size(), whole.lambda.size());
      EXPECT_EQ(std::memcmp(group.data(), whole.lambda.data(),
                            group.size() * sizeof(double)),
                0);
    }
  }
}

TEST(Experiment, AlgorithmNamesRoundTrip) {
  EXPECT_EQ(algorithm_name(Algorithm::Random), "random");
  EXPECT_EQ(algorithm_name(Algorithm::PerigeeSubset), "perigee-subset");
  EXPECT_EQ(algorithm_name(Algorithm::Ideal), "ideal");
  EXPECT_TRUE(is_adaptive(Algorithm::PerigeeVanilla));
  EXPECT_TRUE(is_adaptive(Algorithm::PerigeeUcb));
  EXPECT_FALSE(is_adaptive(Algorithm::Kademlia));
}

}  // namespace
}  // namespace perigee::core

// Replay parity self-test: the traced replay must reproduce
// core::run_cell_curves byte for byte on one small cell of every dispatch
// shape the round loop has. If RoundRunner or run_experiment change the
// order or set of their layer calls, this fails instead of the benchmark
// silently attributing time to a computation that no longer happens.
#include <gtest/gtest.h>

#include "replay.hpp"

namespace {

using namespace perigee;

core::ExperimentConfig small_cell(core::Algorithm algorithm) {
  core::ExperimentConfig config;
  config.net.n = 60;
  config.rounds = 3;
  config.blocks_per_round = 20;
  config.algorithm = algorithm;
  config.seed = 7;
  return config;
}

void expect_parity(const core::ExperimentConfig& config) {
  perfbench::LayerTimes times;
  const core::CellCurves replay = perfbench::replay_job(config, nullptr, times);
  const core::CellCurves reference = core::run_cell_curves(config);
  ASSERT_FALSE(reference.lambda.empty());
  EXPECT_TRUE(perfbench::same_bytes(replay.lambda, reference.lambda));
  EXPECT_TRUE(perfbench::same_bytes(replay.lambda50, reference.lambda50));
  EXPECT_GT(times.total(), 0.0);

  // The sweep runner's shared-build path: a cloned group master.
  const core::Scenario master = core::build_scenario(config);
  const core::CellCurves shared =
      perfbench::replay_job(config, &master, times);
  EXPECT_TRUE(perfbench::same_bytes(shared.lambda, reference.lambda));
  EXPECT_TRUE(perfbench::same_bytes(shared.lambda50, reference.lambda50));
}

TEST(ReplayParity, AdaptiveDelay) {
  expect_parity(small_cell(core::Algorithm::PerigeeSubset));
  expect_parity(small_cell(core::Algorithm::PerigeeVanilla));
}

TEST(ReplayParity, UcbSingleBlockRounds) {
  expect_parity(small_cell(core::Algorithm::PerigeeUcb));
}

TEST(ReplayParity, StaticBaselineUnderChurn) {
  core::ExperimentConfig config = small_cell(core::Algorithm::Random);
  config.scenario.churn.rate = 0.1;
  expect_parity(config);
  expect_parity(small_cell(core::Algorithm::Random));  // no round loop
}

TEST(ReplayParity, QueuedEgress) {
  core::ExperimentConfig config = small_cell(core::Algorithm::PerigeeSubset);
  config.scenario.transmission.model = scenario::TransmissionModel::Queue;
  config.scenario.hetero.profile = scenario::HeteroProfile::Bandwidth;
  expect_parity(config);
}

TEST(ReplayParity, IdealBound) {
  expect_parity(small_cell(core::Algorithm::Ideal));
}

TEST(ReplayParity, AdaptiveUnderChurnRebuildsCsr) {
  core::ExperimentConfig config = small_cell(core::Algorithm::PerigeeSubset);
  config.scenario.churn.rate = 0.05;
  expect_parity(config);
}

TEST(ReplayParity, WorkloadNamesResolve) {
  for (const char* name : {"learn", "large-n", "congestion"}) {
    const perfbench::JobPlan plan =
        perfbench::plan_jobs(perfbench::workload_spec(name, 1));
    EXPECT_FALSE(plan.jobs.empty()) << name;
  }
  EXPECT_THROW(perfbench::workload_spec("nope", 1), std::invalid_argument);
}

TEST(ReplayParity, RefusesPathsItDoesNotMirror) {
  core::ExperimentConfig config = small_cell(core::Algorithm::PerigeeSubset);
  config.partial_view = true;
  perfbench::LayerTimes times;
  EXPECT_THROW(perfbench::replay_job(config, nullptr, times),
               std::invalid_argument);
}

}  // namespace

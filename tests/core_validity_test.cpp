// The validity table (src/core/validity.cpp) at the library seam: each
// config below changes one field of a small valid experiment, and every
// entry point must refuse it with std::invalid_argument naming the field,
// before any work. Unchecked, each of these aborted deep inside a run, or
// returned a result for a config no experiment describes (a frozen topology
// from a negative keep, λ from negative validation delays).
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "runner/sweep.hpp"

namespace perigee::core {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig config;
  config.net.n = 60;
  config.algorithm = Algorithm::PerigeeSubset;
  config.rounds = 2;
  config.blocks_per_round = 10;
  return config;
}

struct Case {
  const char* name;
  std::function<void(ExperimentConfig&)> set;
  const char* mentions;  // text the error must contain
};

void queued(ExperimentConfig& c) {
  c.scenario.transmission.model = scenario::TransmissionModel::Queue;
}

using C = ExperimentConfig&;

std::vector<Case> cases() {
  return {
      {"coverage 1.5", [](C c) { c.coverage = 1.5; }, "--coverage"},
      {"coverage 0", [](C c) { c.coverage = 0.0; }, "--coverage"},
      {"blocks 0", [](C c) { c.blocks_per_round = 0; }, "--blocks"},
      {"n 0", [](C c) { c.net.n = 0; }, "--nodes"},
      {"n 1", [](C c) { c.net.n = 1; }, "--nodes"},
      {"jitter -2", [](C c) { c.net.jitter_frac = -2; }, "net.jitter_frac"},
      {"jitter 1", [](C c) { c.net.jitter_frac = 1; }, "net.jitter_frac"},
      {"percentile 1.5", [](C c) { c.params.percentile = 1.5; },
       "params.percentile"},
      {"percentile -1", [](C c) { c.params.percentile = -1; },
       "params.percentile"},
      {"ucb window 0", [](C c) { c.params.ucb_window = 0; },
       "params.ucb_window"},
      {"pool scale 0",
       [](C c) {
         c.hash_model = mining::HashPowerModel::Pools;
         c.pool_latency_scale = 0;
       },
       "pool_latency_scale"},
      {"pool scale -1",
       [](C c) {
         c.hash_model = mining::HashPowerModel::Pools;
         c.pool_latency_scale = -1;
       },
       "pool_latency_scale"},
      {"churn 1.5", [](C c) { c.scenario.churn.rate = 1.5; }, "--churn"},
      {"withhold 1", [](C c) { c.scenario.adversary.withhold_fraction = 1; },
       "--withhold"},
      {"withhold -0.5",
       [](C c) { c.scenario.adversary.withhold_fraction = -0.5; },
       "--withhold"},
      {"addrman 0",
       [](C c) {
         c.partial_view = true;
         c.addrman_capacity = 0;
       },
       "--addrman"},
      {"relay at n=60", [](C c) { c.relay = true; },
       "relay overlay needs n >= 100"},
      {"gossip + queue",
       [](C c) {
         c.message_level = true;
         queued(c);
       },
       "transmission=queue"},
      // Exploration is dout - keep: explore 9 is keep -1, explore -1 keep 9.
      {"keep -1", [](C c) { c.params.keep = -1; }, "params.keep"},
      {"keep 9", [](C c) { c.params.keep = 9; }, "params.keep"},
      {"rounds -1", [](C c) { c.rounds = -1; }, "--rounds"},
      {"checkpoints -1", [](C c) { c.checkpoints = -1; }, "checkpoints"},
      {"ucb_c 0", [](C c) { c.params.ucb_c = 0; }, "--ucb-c"},
      {"ucb_c -5", [](C c) { c.params.ucb_c = -5; }, "--ucb-c"},
      {"spread 3 + queue",
       [](C c) {
         c.net.validation_spread = 3;
         queued(c);
       },
       "net.validation_spread"},
      {"access_min -20 + queue",
       [](C c) {
         c.net.access_min_ms = -20;
         queued(c);
       },
       "net.access_min_ms"},
      {"validation mean NaN",
       [](C c) {
         c.net.validation_mean_ms = std::numeric_limits<double>::quiet_NaN();
       },
       "net.validation_mean_ms"},
      {"validation mean inf x scale 0 + queue",
       [](C c) {
         c.net.validation_mean_ms = std::numeric_limits<double>::infinity();
         c.net.validation_scale = 0;
         queued(c);
       },
       "net.validation_mean_ms"},
      {"handshake -1", [](C c) { c.net.handshake_factor = -1; },
       "net.handshake_factor"},
      {"block size -1", [](C c) { c.net.block_size_kb = -1; },
       "net.block_size_kb"},
  };
}

void expect_refused(const std::function<void()>& call, const char* mentions,
                    const std::string& what) {
  try {
    call();
    ADD_FAILURE() << what << ": no exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(mentions), std::string::npos)
        << what << ": " << e.what();
  }
}

TEST(Validity, RunExperimentRefusesEveryTableRow) {
  for (const Case& c : cases()) {
    ExperimentConfig config = small_config();
    c.set(config);
    expect_refused([&] { run_experiment(config); }, c.mentions, c.name);
  }
}

TEST(Validity, EveryEntryPointRefuses) {
  for (const Case& c : cases()) {
    ExperimentConfig config = small_config();
    c.set(config);
    expect_refused([&] { run_ideal(config); }, c.mentions, c.name);
    expect_refused([&] { run_ideal_both(config); }, c.mentions, c.name);
    expect_refused([&] { run_incremental(config, 0.5); }, c.mentions, c.name);
    expect_refused([&] { run_incremental_multi_seed(config, 0.5, 2); },
                   c.mentions, c.name);
    ExperimentConfig ideal = config;
    ideal.algorithm = Algorithm::Ideal;
    expect_refused([&] { run_cell_curves(ideal); }, c.mentions, c.name);
  }
}

// build_scenario is an entry point too: the sweep runner's shared builds
// and perfbench's replay call it directly.
TEST(Validity, BuildScenarioRefusesEveryTableRow) {
  for (const Case& c : cases()) {
    ExperimentConfig config = small_config();
    c.set(config);
    expect_refused([&] { build_scenario(config); }, c.mentions, c.name);
  }
}

// The incremental ablation's own arguments are not config fields, so the
// table does not cover them.
TEST(Validity, RunIncrementalRefusesAdopterFractionOutsideUnit) {
  for (const double fraction :
       {1.5, -0.25, std::numeric_limits<double>::quiet_NaN()}) {
    expect_refused([&] { run_incremental(small_config(), fraction); },
                   "adopter_fraction", "run_incremental");
    expect_refused(
        [&] { run_incremental_multi_seed(small_config(), fraction, 2); },
        "adopter_fraction", "run_incremental_multi_seed");
  }
}

TEST(Validity, RunIncrementalMultiSeedRefusesNoSeeds) {
  for (const int seeds : {0, -3}) {
    expect_refused(
        [&] { run_incremental_multi_seed(small_config(), 0.5, seeds); },
        "num_seeds", "run_incremental_multi_seed");
  }
}

// The prebuilt-scenario overload checks the config too: a scenario built
// from a valid config does not let a bad one run (gossip learning without
// the queue model, or a UCB round count wrapped past INT_MAX).
TEST(Validity, RunExperimentRefusesWithPrebuiltScenario) {
  std::vector<Case> rows = cases();
  rows.push_back({"UCB rounds x |B| past INT_MAX",
                  [](C c) {
                    c.algorithm = Algorithm::PerigeeUcb;
                    c.rounds = std::numeric_limits<int>::max();
                  },
                  "single-block rounds"});
  for (const Case& c : rows) {
    ExperimentConfig config = small_config();
    c.set(config);
    expect_refused(
        [&] { run_experiment(config, build_scenario(small_config())); },
        c.mentions, c.name);
  }
}

// The ideal bound never reached the λ assert through validate() before:
// run_cell_curves dispatches Algorithm::Ideal straight to the scenario.
TEST(Validity, IdealCellRefusesBadCoverageWithPrebuiltScenario) {
  ExperimentConfig config = small_config();
  config.algorithm = Algorithm::Ideal;
  const Scenario scenario = build_scenario(config);
  for (const double coverage : {1.5, 0.0}) {
    config.coverage = coverage;
    expect_refused([&] { run_cell_curves(config, &scenario); }, "--coverage",
                   "coverage");
  }
}

TEST(Validity, DefaultsAndWidenedDomainsPass) {
  EXPECT_EQ(config_error(ExperimentConfig{}), "");
  ExperimentConfig zero = small_config();
  zero.net.validation_scale = 0.0;  // Δv = 0 is a legal model point
  EXPECT_EQ(config_error(zero), "");
  ExperimentConfig wide = small_config();
  wide.params.keep = 4;  // keep fewer, explore more: dout stays 8
  EXPECT_EQ(config_error(wide), "");
}

TEST(Validity, KeyLimitsTheCheckToThatKeysRules) {
  ExperimentConfig config = small_config();
  config.params.keep = -1;
  config.net.jitter_frac = 1;
  EXPECT_EQ(config_error(config, "--explore"),
            "bad --explore value '9' (want an integer in [0, dout]: "
            "params.keep = dout - explore)");
  EXPECT_EQ(config_error(config, "--nodes"), "");
  EXPECT_EQ(config_error(config, "net.jitter_frac"),
            "bad net.jitter_frac value '1' (want [0, 1))");
}

// A grid built in code is refused cell by cell when it is expanded, so the
// runner fails before its first job instead of part-way through.
TEST(Validity, ExpandGridNamesTheBadCell) {
  runner::SweepSpec spec;
  spec.base = small_config();
  spec.nodes = {60, 1};
  try {
    runner::expand_grid(spec);
    ADD_FAILURE() << "no exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "cell 'n=1': bad --nodes value '1' (want an integer >= 2)");
  }
  int done = 0;
  EXPECT_THROW(runner::SweepRunner(1).run(
                   spec, [&](std::size_t, std::size_t) { ++done; }),
               std::invalid_argument);
  EXPECT_EQ(done, 0);
}

}  // namespace
}  // namespace perigee::core

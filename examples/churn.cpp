// Node churn walkthrough (§6 future work): a running Perigee network loses
// a share of its nodes (20% by default) at once, keeps operating, and recovers its learned
// performance within a few rounds.
//
//   ./examples/churn [--nodes N]
#include <iostream>
#include <stdexcept>

#include "core/experiment.hpp"
#include "metrics/eval.hpp"
#include "sim/rounds.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace perigee;

  util::Flags flags;
  flags.add_int("nodes", 500, "network size");
  flags.add_int("warmup_rounds", 25, "rounds before the churn event");
  flags.add_int("recovery_rounds", 25, "rounds after the churn event");
  flags.add_double("leave_fraction", 0.2, "fraction of nodes that leave");
  flags.add_int("seed", 1, "seed");
  if (!flags.parse(argc, argv)) return 1;
  if (!flags.int_in_range("nodes", 2, util::kIntMax) ||
      !flags.int_in_range("warmup_rounds", 0, util::kIntMax) ||
      !flags.int_in_range("recovery_rounds", 0, util::kIntMax) ||
      // Someone must stay: at least one node keeps mining.
      !flags.double_in_range("leave_fraction", 0.0, 0.99)) {
    return 1;
  }
  const double leave_fraction = flags.get_double("leave_fraction");

  core::ExperimentConfig config;
  config.net.n = static_cast<std::size_t>(flags.get_int("nodes"));
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  config.algorithm = core::Algorithm::PerigeeSubset;

  core::Scenario scenario = core::build_scenario(config);
  core::build_initial_topology(config, scenario);
  const std::size_t n = scenario.network.size();

  sim::RoundRunner runner(
      scenario.network, scenario.topology,
      core::make_selectors(n, config.algorithm, config.params),
      config.blocks_per_round, config.seed);

  std::vector<bool> alive(n, true);
  auto mean_lambda_alive = [&]() {
    const auto lambda =
        metrics::eval_all_sources(scenario.topology, scenario.network, 0.9);
    std::vector<double> values;
    for (net::NodeId v = 0; v < n; ++v) {
      if (alive[v]) values.push_back(lambda[v]);
    }
    return util::mean(values);
  };

  util::Table table({"phase", "alive nodes", "mean lambda90 (ms)"});
  table.add_row({"random start", std::to_string(n),
                 util::fmt(mean_lambda_alive())});

  runner.run_rounds(static_cast<int>(flags.get_int("warmup_rounds")));
  table.add_row({"after warm-up", std::to_string(n),
                 util::fmt(mean_lambda_alive())});

  // Churn event: leavers drop all their connections and stop mining.
  util::Rng churn_rng(config.seed + 99);
  const auto leave_count =
      static_cast<std::size_t>(leave_fraction * static_cast<double>(n));
  for (std::size_t idx : churn_rng.sample_indices(n, leave_count)) {
    const auto v = static_cast<net::NodeId>(idx);
    alive[v] = false;
    scenario.topology.disconnect_all(v);
    scenario.network.mutable_profiles()[v].hash_power = 0.0;
  }
  // Note: departed nodes also stop exploring. The harness keeps calling
  // their selectors, which would redial; emulate their absence by capping
  // their outgoing budget through immediate re-isolation each round instead
  // — simplest faithful emulation at this scale is to re-isolate after each
  // round below.
  runner.refresh_hash_power();

  table.add_row({"right after " + util::fmt(100.0 * leave_fraction, 0) +
                     "% leave",
                 std::to_string(n - leave_count),
                 util::fmt(mean_lambda_alive())});

  for (int r = 0; r < static_cast<int>(flags.get_int("recovery_rounds")); ++r) {
    runner.run_round();
    for (net::NodeId v = 0; v < n; ++v) {
      if (!alive[v]) scenario.topology.disconnect_all(v);
    }
  }
  table.add_row({"after recovery", std::to_string(n - leave_count),
                 util::fmt(mean_lambda_alive())});
  table.print(std::cout);

  std::cout << "\nSurviving nodes re-learn routes around the hole the "
               "leavers left; no coordinator or topology reset is needed.\n";
  return 0;
} catch (const std::invalid_argument& e) {
  // A config the library's validity table refuses: a clean error, not an
  // abort.
  std::cerr << e.what() << "\n";
  return 1;
}

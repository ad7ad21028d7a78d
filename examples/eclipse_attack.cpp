// Eclipse-attack study (§6 discussion): adversary nodes make themselves
// maximally attractive (instant validation => consistently early delivery)
// to capture honest nodes' neighborhoods, then flip to withholding blocks.
// Perigee's scoring evicts them within a round of the flip, and the standing
// random exploration guarantees honest links were never fully displaced.
//
//   ./examples/eclipse_attack [--nodes N] [--adversaries K]
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
  flags.add_int("nodes", 400, "network size");
  flags.add_int("adversaries", 20, "adversary nodes");
  flags.add_int("grooming_rounds", 20, "rounds the adversary plays nice");
  flags.add_int("attack_rounds", 6, "rounds of withholding");
  flags.add_int("seed", 1, "seed");
  if (!flags.parse(argc, argv)) return 1;
  if (!flags.int_in_range("nodes", 2, util::kIntMax) ||
      !flags.int_in_range("adversaries", 0, flags.get_int("nodes") - 1) ||
      !flags.int_in_range("grooming_rounds", 0, util::kIntMax) ||
      !flags.int_in_range("attack_rounds", 0, util::kIntMax)) {
    return 1;
  }

  core::ExperimentConfig config;
  config.net.n = static_cast<std::size_t>(flags.get_int("nodes"));
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  config.algorithm = core::Algorithm::PerigeeSubset;

  core::Scenario scenario = core::build_scenario(config);
  core::build_initial_topology(config, scenario);
  const std::size_t n = scenario.network.size();
  const auto k = static_cast<net::NodeId>(flags.get_int("adversaries"));

  // Adversaries: ids 0..k-1, instant validation while grooming.
  for (net::NodeId v = 0; v < k; ++v) {
    scenario.network.mutable_profiles()[v].validation_ms = 0.0;
  }

  sim::RoundRunner runner(
      scenario.network, scenario.topology,
      core::make_selectors(n, config.algorithm, config.params),
      config.blocks_per_round, config.seed);

  auto adversary_out_links = [&]() {
    std::size_t count = 0;
    for (net::NodeId v = k; v < n; ++v) {
      for (net::NodeId u : scenario.topology.out(v)) {
        if (u < k) ++count;
      }
    }
    return count;
  };
  auto honest_mean_lambda = [&]() {
    const auto lambda =
        metrics::eval_all_sources(scenario.topology, scenario.network, 0.9);
    std::vector<double> values;
    for (net::NodeId v = k; v < n; ++v) values.push_back(lambda[v]);
    return util::mean(values);
  };

  util::Table table(
      {"phase", "honest->adversary links", "honest mean lambda90"});
  table.add_row({"start", std::to_string(adversary_out_links()),
                 util::fmt(honest_mean_lambda())});

  runner.run_rounds(static_cast<int>(flags.get_int("grooming_rounds")));
  const std::size_t captured = adversary_out_links();
  table.add_row({"after grooming", std::to_string(captured),
                 util::fmt(honest_mean_lambda())});

  // The flip: adversaries stop relaying.
  for (net::NodeId v = 0; v < k; ++v) {
    scenario.network.mutable_profiles()[v].forwards = false;
  }
  table.add_row({"attack begins", std::to_string(adversary_out_links()),
                 util::fmt(honest_mean_lambda())});

  runner.run_rounds(static_cast<int>(flags.get_int("attack_rounds")));
  table.add_row({"after response", std::to_string(adversary_out_links()),
                 util::fmt(honest_mean_lambda())});
  table.print(std::cout);

  std::cout
      << "\nGrooming works (the adversary attracts far more inbound links "
         "than its population share), but the moment it withholds, scores "
         "collapse to +inf and honest nodes evict it; exploration links "
         "keep the network connected throughout. Residual links are the "
         "current round's random explorers.\n";
  return 0;
} catch (const std::invalid_argument& e) {
  // A config the library's validity table refuses: a clean error, not an
  // abort.
  std::cerr << e.what() << "\n";
  return 1;
}

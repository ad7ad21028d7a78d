// §5.4 scenario as a runnable walkthrough: a fast relay overlay (bloXroute-
// style tree) appears in the network, and Perigee nodes — without being told
// it exists — learn to attach themselves near it because blocks arriving via
// the overlay are simply faster.
//
//   ./examples/relay_adaptation [--nodes N] [--rounds R]
#include <algorithm>
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
  flags.add_int("nodes", 600, "network size");
  flags.add_int("rounds", 40, "learning rounds");
  flags.add_int("relay_members", 60, "relay overlay size");
  flags.add_int("seed", 1, "seed");
  if (!flags.parse(argc, argv)) return 1;
  if (!flags.int_in_range("nodes", 2, util::kIntMax) ||
      !flags.int_in_range("rounds", 0, util::kIntMax) ||
      !flags.int_in_range("relay_members", 2, util::kIntMax)) {
    return 1;
  }

  core::ExperimentConfig config;
  config.net.n = static_cast<std::size_t>(flags.get_int("nodes"));
  config.rounds = static_cast<int>(flags.get_int("rounds"));
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  config.relay = true;
  config.relay_config.members =
      static_cast<std::size_t>(flags.get_int("relay_members"));

  std::cout << "A " << config.relay_config.members
            << "-node relay tree (5 ms links, 10x faster validation) is "
               "installed.\n\n";

  // Run Perigee on top and track how many p2p edges terminate at relay
  // nodes before and after learning.
  config.algorithm = core::Algorithm::PerigeeSubset;
  core::Scenario scenario = core::build_scenario(config);
  core::build_initial_topology(config, scenario);

  auto relay_edge_fraction = [&]() {
    std::size_t total = 0, touching = 0;
    for (const auto& [u, v] : scenario.topology.p2p_edges()) {
      ++total;
      if (scenario.network.profile(u).relay ||
          scenario.network.profile(v).relay) {
        ++touching;
      }
    }
    return static_cast<double>(touching) / static_cast<double>(total);
  };

  const double before_fraction = relay_edge_fraction();
  const double before_lambda = util::mean(
      metrics::eval_all_sources(scenario.topology, scenario.network, 0.9));

  sim::RoundRunner runner(
      scenario.network, scenario.topology,
      core::make_selectors(scenario.network.size(), config.algorithm,
                           config.params),
      config.blocks_per_round, config.seed);
  runner.run_rounds(config.rounds);

  const double after_fraction = relay_edge_fraction();
  const double after_lambda = util::mean(
      metrics::eval_all_sources(scenario.topology, scenario.network, 0.9));

  util::Table table({"", "edges touching relay", "mean lambda90 (ms)"});
  table.add_row({"before learning", util::fmt(100.0 * before_fraction, 1) + "%",
                 util::fmt(before_lambda)});
  table.add_row({"after learning", util::fmt(100.0 * after_fraction, 1) + "%",
                 util::fmt(after_lambda)});
  table.print(std::cout);

  std::cout << "\nPerigee pulled its connections toward the overlay ("
            << util::fmt(100.0 * (after_fraction - before_fraction), 1)
            << " pp more relay-touching edges) and cut mean broadcast delay by "
            << util::fmt(100.0 * (1.0 - after_lambda / before_lambda), 1)
            << "% - without any knowledge that a relay network exists.\n";
  return 0;
} catch (const std::invalid_argument& e) {
  // A config the library's validity table refuses: a clean error, not an
  // abort.
  std::cerr << e.what() << "\n";
  return 1;
}

// Quickstart: build a 500-node geo network, let Perigee-Subset learn the
// topology for 30 rounds, and compare block propagation delay (λ at 90% of
// hash power) against the static random topology and the fully-connected
// ideal.
//
//   ./examples/quickstart [--nodes N] [--rounds R] [--seed S]
#include <iostream>
#include <stdexcept>

#include "core/experiment.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace perigee;

  util::Flags flags;
  flags.add_int("nodes", 500, "network size");
  flags.add_int("rounds", 30, "Perigee learning rounds (100 blocks each)");
  flags.add_int("seed", 1, "master seed");
  if (!flags.parse(argc, argv)) return 1;
  if (!flags.int_in_range("nodes", 2, util::kIntMax) ||
      !flags.int_in_range("rounds", 0, util::kIntMax)) {
    return 1;
  }

  core::ExperimentConfig config;
  config.net.n = static_cast<std::size_t>(flags.get_int("nodes"));
  config.rounds = static_cast<int>(flags.get_int("rounds"));
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  std::cout << "Perigee quickstart: " << config.net.n << " nodes, "
            << config.rounds << " rounds of " << config.blocks_per_round
            << " blocks\n";

  // Static random baseline (Bitcoin's de-facto policy).
  config.algorithm = core::Algorithm::Random;
  const auto random_result = core::run_experiment(config);

  // Perigee-Subset: the paper's best-performing variant.
  config.algorithm = core::Algorithm::PerigeeSubset;
  const auto perigee_result = core::run_experiment(config);

  // Fully-connected lower bound.
  const auto ideal = core::run_ideal(config);

  const auto r = util::summarize(random_result.lambda);
  const auto p = util::summarize(perigee_result.lambda);
  const auto i = util::summarize(ideal);

  util::Table table({"topology", "mean lambda (ms)", "median", "p90"});
  table.add_row({"random", util::fmt(r.mean), util::fmt(r.p50),
                 util::fmt(r.p90)});
  table.add_row({"perigee-subset", util::fmt(p.mean), util::fmt(p.p50),
                 util::fmt(p.p90)});
  table.add_row({"ideal (full graph)", util::fmt(i.mean), util::fmt(i.p50),
                 util::fmt(i.p90)});
  table.print(std::cout);

  std::cout << "\nPerigee-Subset cuts mean broadcast delay by "
            << util::fmt(100.0 * (1.0 - p.mean / r.mean)) << "% vs random.\n";
  return 0;
} catch (const std::invalid_argument& e) {
  // A config the library's validity table refuses: a clean error, not an
  // abort.
  std::cerr << e.what() << "\n";
  return 1;
}

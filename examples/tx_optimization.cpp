// Transaction-propagation mode (paper §2.1 and footnote 3: "our protocol is
// general, and can readily be adapted to optimize transaction propagation
// times as well"). Transactions differ from blocks in two ways: they
// originate at arbitrary user-facing nodes rather than proportionally to
// hash power, and verifying one is far cheaper than validating a block.
// Perigee's machinery is unchanged — only the workload swaps.
//
//   ./examples/tx_optimization [--nodes N] [--rounds R]
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
  flags.add_int("rounds", 30, "learning rounds (100 txs each)");
  flags.add_int("seed", 1, "seed");
  if (!flags.parse(argc, argv)) return 1;
  if (!flags.int_in_range("nodes", 2, util::kIntMax) ||
      !flags.int_in_range("rounds", 0, util::kIntMax)) {
    return 1;
  }

  core::ExperimentConfig config;
  config.net.n = static_cast<std::size_t>(flags.get_int("nodes"));
  config.rounds = static_cast<int>(flags.get_int("rounds"));
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  // Transaction workload: uniform origins (every node submits user
  // transactions at the same rate — exactly the Uniform hash model) and a
  // ~2 ms signature-check instead of the 50 ms block validation.
  config.hash_model = mining::HashPowerModel::Uniform;
  config.net.validation_mean_ms = 2.0;

  std::cout << "Optimizing *transaction* propagation: uniform origins, "
               "2 ms verification per hop\n\n";

  config.algorithm = core::Algorithm::Random;
  const auto random = core::run_experiment(config);
  config.algorithm = core::Algorithm::PerigeeSubset;
  const auto subset = core::run_experiment(config);
  const auto ideal = core::run_ideal(config);

  const auto r = util::summarize(random.lambda);
  const auto p = util::summarize(subset.lambda);
  const auto i = util::summarize(ideal);
  util::Table table({"topology", "mean tx delay (ms)", "median", "p90"});
  table.add_row({"random", util::fmt(r.mean), util::fmt(r.p50),
                 util::fmt(r.p90)});
  table.add_row({"perigee-subset", util::fmt(p.mean), util::fmt(p.p50),
                 util::fmt(p.p90)});
  table.add_row({"ideal", util::fmt(i.mean), util::fmt(i.p50),
                 util::fmt(i.p90)});
  table.print(std::cout);

  std::cout << "\nWith verification nearly free, link latency is everything "
               "and Perigee's advantage is at its largest: "
            << util::fmt(100.0 * (1.0 - p.mean / r.mean), 1)
            << "% lower mean delay than random (cf. the 0.1x point of "
               "Figure 4(a)).\n";
  return 0;
} catch (const std::invalid_argument& e) {
  // A config the library's validity table refuses: a clean error, not an
  // abort.
  std::cerr << e.what() << "\n";
  return 1;
}

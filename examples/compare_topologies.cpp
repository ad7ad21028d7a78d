// Figure-3(a)-style comparison across every topology policy: random,
// geographic, Kademlia, the k-nearest latency oracle, the three Perigee
// variants, and the fully-connected ideal.
//
//   ./examples/compare_topologies [--nodes N] [--rounds R] [--seed S]
#include <iostream>
#include <stdexcept>

#include "core/experiment.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace perigee;

  util::Flags flags;
  flags.add_int("nodes", 1000, "network size");
  flags.add_int("rounds", 40, "learning rounds for adaptive variants");
  flags.add_int("seed", 1, "master seed");
  flags.add_double("coverage", 0.90, "hash-power coverage target");
  if (!flags.parse(argc, argv)) return 1;
  if (!flags.int_in_range("nodes", 2, util::kIntMax) ||
      !flags.int_in_range("rounds", 0, util::kIntMax)) {
    return 1;
  }

  core::ExperimentConfig config;
  config.net.n = static_cast<std::size_t>(flags.get_int("nodes"));
  config.rounds = static_cast<int>(flags.get_int("rounds"));
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  config.coverage = flags.get_double("coverage");

  const core::Algorithm algorithms[] = {
      core::Algorithm::Random,         core::Algorithm::Geographic,
      core::Algorithm::Kademlia,       core::Algorithm::PerigeeVanilla,
      core::Algorithm::PerigeeUcb,     core::Algorithm::PerigeeSubset,
      core::Algorithm::KNearestOracle,
  };

  util::Table table(
      {"algorithm", "mean lambda (ms)", "median", "p90", "vs random"});
  double random_mean = 0;
  for (const auto algorithm : algorithms) {
    config.algorithm = algorithm;
    const auto result = core::run_experiment(config);
    const auto s = util::summarize(result.lambda);
    if (algorithm == core::Algorithm::Random) random_mean = s.mean;
    table.add_row({std::string(core::algorithm_name(algorithm)),
                   util::fmt(s.mean), util::fmt(s.p50), util::fmt(s.p90),
                   util::fmt(100.0 * (1.0 - s.mean / random_mean), 1) + "%"});
  }
  const auto ideal = util::summarize(core::run_ideal(config));
  table.add_row({"ideal", util::fmt(ideal.mean), util::fmt(ideal.p50),
                 util::fmt(ideal.p90),
                 util::fmt(100.0 * (1.0 - ideal.mean / random_mean), 1) + "%"});
  table.print(std::cout);
  return 0;
} catch (const std::invalid_argument& e) {
  // A config the library's validity table refuses: a clean error, not an
  // abort.
  std::cerr << e.what() << "\n";
  return 1;
}

// Convergence behaviour (§5.2 text): the 90-percentile delays converge as
// rounds accumulate; the 50-percentile delays need not improve monotonically
// because Perigee optimizes the 90th percentile only. The two algorithm
// traces are independent, so they run as parallel jobs on the sweep pool.
#include <array>

#include "common.hpp"
#include "metrics/eval.hpp"
#include "runner/thread_pool.hpp"
#include "sim/rounds.hpp"
#include "topo/builders.hpp"

int main(int argc, char** argv) {
  using namespace perigee;

  util::Flags flags;
  bench::add_common_flags(flags, 600, 50, 1);
  flags.add_int("checkpoint_every", 10, "evaluate every N rounds");
  if (!flags.parse(argc, argv)) return 1;
  const bench::TraceSession trace_session(flags);
  const int jobs = bench::jobs_from_flags(flags);
  const int every = static_cast<int>(flags.get_int("checkpoint_every"));

  const std::array algorithms = {core::Algorithm::PerigeeVanilla,
                                 core::Algorithm::PerigeeSubset};
  struct Trace {
    std::vector<std::vector<std::string>> rows;
    std::vector<double> mean90;  // one entry per checkpoint, for --json
  };
  std::array<Trace, algorithms.size()> traces;

  runner::ThreadPool pool(std::min<unsigned>(
      runner::resolve_jobs(jobs), static_cast<unsigned>(algorithms.size())));
  runner::parallel_for(pool, algorithms.size(), [&](std::size_t i) {
    const auto algorithm = algorithms[i];
    core::ExperimentConfig config = bench::config_from_flags(flags);
    config.algorithm = algorithm;

    core::Scenario scenario = core::build_scenario(config);
    core::build_initial_topology(config, scenario);
    sim::RoundRunner runner(
        scenario.network, scenario.topology,
        core::make_selectors(scenario.network.size(), algorithm,
                             config.params),
        config.blocks_per_round, config.seed);

    for (int round = 0; round <= config.rounds; round += every) {
      if (round > 0) runner.run_rounds(every);
      // One pass per source over the runner's cached compile serves both
      // coverages.
      const auto lambdas = metrics::eval_all_sources_multi(
          runner.current_csr(), scenario.network, {0.9, 0.5});
      const auto& l90 = lambdas[0];
      const auto& l50 = lambdas[1];
      traces[i].rows.push_back({std::to_string(round),
                                util::fmt(util::mean(l90)),
                                util::fmt(util::percentile(l90, 0.5)),
                                util::fmt(util::mean(l50))});
      traces[i].mean90.push_back(util::mean(l90));
    }
  });

  std::vector<bench::NamedCurve> json_curves;
  for (std::size_t i = 0; i < algorithms.size(); ++i) {
    util::print_banner(std::cout,
                       std::string("convergence - ") +
                           std::string(core::algorithm_name(algorithms[i])));
    util::Table table({"round", "mean lambda90", "median lambda90",
                       "mean lambda50"});
    for (auto& row : traces[i].rows) table.add_row(std::move(row));
    table.print(std::cout);
    // JSON: mean λ90 per checkpoint (the convergence trace itself).
    json_curves.push_back(
        {std::string(core::algorithm_name(algorithms[i])),
         metrics::Curve{traces[i].mean90,
                        std::vector<double>(traces[i].mean90.size(), 0.0)}});
  }
  if (!bench::write_json_if_requested(flags, "Convergence traces (mean lambda90)",
                                 json_curves)) return 1;
  return 0;
}

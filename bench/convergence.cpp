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
  bench::add_common_flags(flags, 600, 50);
  flags.add_int("checkpoint_every", 10, "evaluate every N rounds");
  if (!flags.parse(argc, argv)) return 1;
  const auto base = bench::config_from_flags(flags);
  if (!base || !flags.int_in_range("checkpoint_every", 1)) return 1;
  const int every = static_cast<int>(flags.get_int("checkpoint_every"));
  const bench::TraceSession trace_session(flags);
  const int jobs = bench::jobs_from_flags(flags);
  // Column names follow --coverage: "lambda90" at the default 0.90.
  const std::string lambda_q = "lambda" + util::fmt(100.0 * base->coverage, 0);

  const std::array algorithms = {core::Algorithm::PerigeeVanilla,
                                 core::Algorithm::PerigeeSubset};
  struct Trace {
    std::vector<std::vector<std::string>> rows;
    std::vector<double> mean_q;  // one entry per checkpoint, for --json
  };
  std::array<Trace, algorithms.size()> traces;

  runner::ThreadPool pool(std::min<unsigned>(
      runner::resolve_jobs(jobs), static_cast<unsigned>(algorithms.size())));
  runner::parallel_for(pool, algorithms.size(), [&](std::size_t i) {
    const auto algorithm = algorithms[i];
    core::ExperimentConfig config = *base;
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
          runner.current_csr(), scenario.network, {config.coverage, 0.5},
          runner.relaxer());
      const auto& lq = lambdas[0];
      const auto& l50 = lambdas[1];
      traces[i].rows.push_back({std::to_string(round),
                                util::fmt(util::mean(lq)),
                                util::fmt(util::percentile(lq, 0.5)),
                                util::fmt(util::mean(l50))});
      traces[i].mean_q.push_back(util::mean(lq));
    }
  });

  std::vector<bench::NamedCurve> json_curves;
  for (std::size_t i = 0; i < algorithms.size(); ++i) {
    util::print_banner(std::cout,
                       std::string("convergence - ") +
                           std::string(core::algorithm_name(algorithms[i])));
    util::Table table({"round", "mean " + lambda_q, "median " + lambda_q,
                       "mean lambda50"});
    for (auto& row : traces[i].rows) table.add_row(std::move(row));
    table.print(std::cout);
    // JSON: mean λ per checkpoint (the convergence trace itself).
    json_curves.push_back(
        {std::string(core::algorithm_name(algorithms[i])),
         metrics::Curve{traces[i].mean_q,
                        std::vector<double>(traces[i].mean_q.size(), 0.0)}});
  }
  if (!bench::write_json_if_requested(
          flags, "Convergence traces (mean " + lambda_q + ")", json_curves)) {
    return 1;
  }
  return 0;
}

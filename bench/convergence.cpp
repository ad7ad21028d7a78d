// Convergence behaviour (§5.2 text): the 90-percentile delays converge as
// rounds accumulate; the 50-percentile delays need not improve monotonically
// because Perigee optimizes the 90th percentile only. Each trace is
// run_experiment's checkpoint series; the two algorithm traces are
// independent, so they run as parallel jobs on the sweep pool.
#include <algorithm>
#include <array>

#include "common.hpp"
#include "runner/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace perigee;

  util::Flags flags;
  bench::add_common_flags(flags, 600, 50);
  flags.add_int("checkpoint_every", 10, "evaluate every N rounds");
  if (!flags.parse(argc, argv)) return 1;
  const auto base = bench::config_from_flags(flags);
  if (!base || !flags.int_in_range("checkpoint_every", 1, bench::kIntMax)) {
    return 1;
  }
  const int every = static_cast<int>(flags.get_int("checkpoint_every"));
  // Checkpoints split the rounds evenly; a remainder would be dropped.
  if (base->rounds % every != 0) {
    std::cerr << "bad --rounds value '" << base->rounds
              << "' (want a multiple of --checkpoint_every " << every
              << ")\n";
    return 1;
  }
  const bench::TraceSession trace_session(flags);
  const int jobs = bench::jobs_from_flags(flags);
  // Column names follow --coverage: "lambda90" at the default 0.90.
  const std::string lambda_q = "lambda" + util::fmt(100.0 * base->coverage, 0);

  const std::array algorithms = {core::Algorithm::PerigeeVanilla,
                                 core::Algorithm::PerigeeSubset};
  std::array<core::ExperimentResult, algorithms.size()> results;

  runner::ThreadPool pool(std::min<unsigned>(
      runner::resolve_jobs(jobs), static_cast<unsigned>(algorithms.size())));
  runner::parallel_for(pool, algorithms.size(), [&](std::size_t i) {
    core::ExperimentConfig config = *base;
    config.algorithm = algorithms[i];
    // One checkpoint every `every` rounds, plus the one at round 0 (the
    // only one when --rounds is 0).
    config.checkpoints = std::max(1, config.rounds / every);
    results[i] = core::run_experiment(config);
  });

  std::vector<bench::NamedCurve> json_curves;
  for (std::size_t i = 0; i < algorithms.size(); ++i) {
    util::print_banner(std::cout,
                       std::string("convergence - ") + results[i].algorithm);
    util::Table table({"round", "mean " + lambda_q, "median " + lambda_q,
                       "mean lambda50"});
    std::vector<double> mean_q;
    for (const core::Checkpoint& cp : results[i].checkpoints) {
      const auto round = cp.blocks_mined /
                         static_cast<std::size_t>(base->blocks_per_round);
      table.add_row({std::to_string(round), util::fmt(cp.mean_lambda),
                     util::fmt(cp.median_lambda),
                     util::fmt(cp.mean_lambda50)});
      mean_q.push_back(cp.mean_lambda);
    }
    table.print(std::cout);
    // JSON: mean λ per checkpoint (the convergence trace itself).
    const std::size_t points = mean_q.size();
    json_curves.push_back(
        {results[i].algorithm,
         metrics::Curve{std::move(mean_q), std::vector<double>(points, 0.0)}});
  }
  if (!bench::write_json_if_requested(
          flags, "Convergence traces (mean " + lambda_q + ")", json_curves)) {
    return 1;
  }
  return 0;
}

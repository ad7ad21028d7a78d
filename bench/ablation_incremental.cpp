// Ablation: incremental deployment (§1.2). A fraction of nodes runs
// Perigee-Subset while the rest keeps static random neighbors. Adopters
// should see better delays than holdouts at every adoption level — the
// protocol needs no flag day. Every (fraction, seed) run is an independent
// job on one pool, as in fig5_edge_latency_hist.
#include <algorithm>
#include <array>

#include "common.hpp"
#include "runner/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace perigee;

  util::Flags flags;
  bench::add_common_flags(flags, 600, 40);
  flags.add_int("seeds", 1, "independent repetitions");
  if (!flags.parse(argc, argv)) return 1;
  const auto base = bench::config_from_flags(flags);
  if (!base || !flags.int_in_range("seeds", 1, bench::kIntMax)) return 1;
  const auto seeds = static_cast<std::size_t>(flags.get_int("seeds"));
  const bench::TraceSession trace_session(flags);
  // Column names follow --coverage: "lambda90" at the default 0.90.
  const std::string lambda_q = "lambda" + util::fmt(100.0 * base->coverage, 0);

  const std::array fractions = {0.10, 0.25, 0.50, 0.75, 0.90};
  // Job j runs fraction j / seeds with seed base + j % seeds into slot j,
  // so the curves below are a pure function of the flags at any --jobs.
  std::vector<core::IncrementalResult> runs(fractions.size() * seeds);
  runner::ThreadPool pool(static_cast<unsigned>(std::min<std::size_t>(
      runner::resolve_jobs(bench::jobs_from_flags(flags)), runs.size())));
  runner::parallel_for(pool, runs.size(), [&](std::size_t j) {
    core::ExperimentConfig config = *base;
    config.seed += j % seeds;
    runs[j] = core::run_incremental(config, fractions[j / seeds]);
    std::cerr << "done: fraction=" + util::fmt(fractions[j / seeds], 2) +
                     " seed=" + std::to_string(config.seed) + "\n";
  });

  util::print_banner(std::cout,
                     "Ablation - incremental deployment of perigee-subset");
  util::Table table({"adopters", "adopter mean " + lambda_q,
                     "holdout mean " + lambda_q, "adopter advantage"});
  std::vector<bench::NamedCurve> json_curves;
  for (std::size_t f = 0; f < fractions.size(); ++f) {
    // The adopter count k = fraction * n does not depend on the seed, so
    // each group's vectors have equal length across seeds.
    std::vector<std::vector<double>> adopters;
    std::vector<std::vector<double>> others;
    for (std::size_t s = 0; s < seeds; ++s) {
      core::IncrementalResult& run = runs[f * seeds + s];
      adopters.push_back(std::move(run.lambda_adopters));
      others.push_back(std::move(run.lambda_others));
    }
    const metrics::Curve adopter_curve =
        metrics::aggregate_sorted_curves(std::move(adopters));
    const metrics::Curve holdout_curve =
        metrics::aggregate_sorted_curves(std::move(others));
    const double adopter_mean = metrics::curve_mean(adopter_curve);
    const double holdout_mean = metrics::curve_mean(holdout_curve);
    table.add_row({util::fmt(100.0 * fractions[f], 0) + "%",
                   util::fmt(adopter_mean), util::fmt(holdout_mean),
                   util::fmt(100.0 * (1.0 - adopter_mean / holdout_mean), 1) +
                       "%"});
    const std::string prefix = "f=" + util::fmt(fractions[f], 2) + " ";
    json_curves.push_back({prefix + "adopters", adopter_curve});
    json_curves.push_back({prefix + "holdouts", holdout_curve});
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: a positive adopter advantage at every "
               "adoption level - following Perigee pays off unilaterally.\n";
  if (!bench::write_json_if_requested(flags, "Ablation - incremental deployment",
                                 json_curves)) return 1;
  return 0;
}

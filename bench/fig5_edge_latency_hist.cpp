// Figure 5: histograms of p2p edge latencies in the final topology of each
// algorithm. Every histogram is bimodal (intra- vs inter-continent links);
// Perigee-Subset concentrates the bulk of its edges at the lower mode —
// nodes learned to keep the neighbors they share cheap links with.
#include <algorithm>

#include "common.hpp"
#include "metrics/edge_hist.hpp"
#include "net/geo.hpp"
#include "runner/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace perigee;

  util::Flags flags;
  bench::add_common_flags(flags, 600, 30);
  flags.add_int("bins", 24, "histogram bins");
  flags.add_double("mode_cut_ms", 50.0,
                   "latency separating the intra/inter-continent modes");
  if (!flags.parse(argc, argv)) return 1;
  const auto base = bench::config_from_flags(flags);
  if (!base) return 1;
  const bench::TraceSession trace_session(flags);
  const auto bins = static_cast<std::size_t>(flags.get_int("bins"));
  const double cut = flags.get_double("mode_cut_ms");

  const std::pair<core::Algorithm, const char*> algorithms[] = {
      {core::Algorithm::Random, "random"},
      {core::Algorithm::Geographic, "geographic"},
      {core::Algorithm::KNearestOracle, "geometric (k-nearest)"},
      {core::Algorithm::PerigeeSubset, "perigee-subset"},
  };

  util::Table summary({"algorithm", "edges", "frac < cut", "modes"});
  const double hist_hi = net::max_region_latency_ms() * 1.5;

  // The four experiments are independent: fan them out on the sweep pool
  // and render in declaration order once all are done.
  constexpr std::size_t kAlgos = std::size(algorithms);
  std::vector<core::ExperimentResult> results(kAlgos);
  runner::ThreadPool pool(
      std::min<unsigned>(runner::resolve_jobs(bench::jobs_from_flags(flags)),
                         static_cast<unsigned>(kAlgos)));
  runner::parallel_for(pool, kAlgos, [&](std::size_t i) {
    core::ExperimentConfig config = *base;
    config.algorithm = algorithms[i].first;
    results[i] = core::run_experiment(config);
    std::cerr << "done: " << algorithms[i].second << "\n";
  });

  std::vector<bench::NamedCurve> json_curves;
  for (std::size_t i = 0; i < kAlgos; ++i) {
    const auto& name = algorithms[i].second;
    const auto& result = results[i];

    util::Histogram hist(0.0, hist_hi, bins);
    hist.add_all(result.edge_latencies);
    util::print_banner(std::cout, std::string("Figure 5 - ") + name);
    std::cout << hist.render(48);
    summary.add_row(
        {name, std::to_string(result.edge_latencies.size()),
         util::fmt(metrics::fraction_below(result.edge_latencies, cut), 3),
         std::to_string(hist.modes().size())});
    // JSON: the sorted edge-latency distribution (stddev unused here).
    std::vector<double> sorted = result.edge_latencies;
    std::sort(sorted.begin(), sorted.end());
    json_curves.push_back(
        {name, metrics::Curve{std::move(sorted), {}}});
  }
  util::print_banner(std::cout, "Figure 5 - summary");
  std::cout << "(cut = " << cut << " ms; paper: all distributions bimodal, "
            << "perigee-subset's mass sits at the lower mode)\n";
  summary.print(std::cout);
  if (!bench::write_json_if_requested(
      flags, "Figure 5 - edge latency distributions", json_curves)) return 1;
  return 0;
}

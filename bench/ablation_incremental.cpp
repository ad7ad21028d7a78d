// Ablation: incremental deployment (§1.2). A fraction of nodes runs
// Perigee-Subset while the rest keeps static random neighbors. Adopters
// should see better delays than holdouts at every adoption level — the
// protocol needs no flag day.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace perigee;

  util::Flags flags;
  bench::add_common_flags(flags, 600, 40);
  flags.add_int("seeds", 1, "independent repetitions");
  if (!flags.parse(argc, argv)) return 1;
  const auto base = bench::config_from_flags(flags);
  if (!base || !flags.int_in_range("seeds", 1)) return 1;
  const std::int64_t seeds = flags.get_int("seeds");
  const bench::TraceSession trace_session(flags);
  const int jobs = bench::jobs_from_flags(flags);

  util::print_banner(std::cout,
                     "Ablation - incremental deployment of perigee-subset");
  util::Table table({"adopters", "adopter mean lambda90",
                     "holdout mean lambda90", "adopter advantage"});
  std::vector<bench::NamedCurve> json_curves;
  for (double fraction : {0.10, 0.25, 0.50, 0.75, 0.90}) {
    const auto result = core::run_incremental_multi_seed(
        *base, fraction, static_cast<int>(seeds), jobs);
    const double adopters = metrics::curve_mean(result.adopters);
    const double holdouts = metrics::curve_mean(result.others);
    table.add_row({util::fmt(100.0 * fraction, 0) + "%", util::fmt(adopters),
                   util::fmt(holdouts),
                   util::fmt(100.0 * (1.0 - adopters / holdouts), 1) + "%"});
    const std::string prefix = "f=" + util::fmt(fraction, 2) + " ";
    json_curves.push_back({prefix + "adopters", result.adopters});
    json_curves.push_back({prefix + "holdouts", result.others});
    std::cerr << "done: fraction=" << fraction << "\n";
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: a positive adopter advantage at every "
               "adoption level - following Perigee pays off unilaterally.\n";
  if (!bench::write_json_if_requested(flags, "Ablation - incremental deployment",
                                 json_curves)) return 1;
  return 0;
}

// Unified sweep driver: runs any named grid (--list: the paper's figures,
// the scenario grids and the abl-* ablations) or a custom cartesian grid
// over the axes of runner::sweep_axes() (one --<axis> CSV flag each)
// end-to-end on the parallel SweepRunner, writes BENCH_<name>.json and
// prints the paper's tables (runner::print_tables). It is the only front
// end for the paper's Figure 3 and 4 grids and the λ-table ablations.
//
//   perigee_sweep --figure fig3a --jobs 8
//   perigee_sweep --figure congestion --seeds 2 --jobs 0
//   perigee_sweep --algorithms random,perigee-subset,ideal
//       --nodes 200,400 --churn 0,0.05 --seeds 3 --jobs 4 --json grid.json
//   perigee_sweep --transmission delay,queue --hetero off,bandwidth
//   perigee_sweep --figure abl-explore --nodes 200 --explore 1,2
//
// The sweep runs as a crash-safe service: every completed (cell, seed) job
// is checkpointed (disable with --checkpoint-dir none), an interrupted run
// restarts with --resume, and a grid can be split across k coordination-free
// processes and folded back together:
//
//   perigee_sweep --figure fig4a --resume               # pick up where left
//   perigee_sweep --figure fig4a --shard 0/2            # process A
//   perigee_sweep --figure fig4a --shard 1/2            # process B
//   perigee_sweep --figure fig4a
//       --merge BENCH_fig4a.shard0of2.json,BENCH_fig4a.shard1of2.json
//
// Results are bit-identical at any --jobs value, resumed or not, sharded or
// not; see src/runner/sweep.hpp.
#include <cstdint>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "obs/meta.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runner/axes.hpp"
#include "runner/checkpoint.hpp"
#include "runner/sweep.hpp"
#include "scenario/scenario.hpp"
#include "util/flags.hpp"

namespace {

using namespace perigee;

struct Figure {
  const char* name;
  const char* what;
  runner::SweepSpec (*make)();
};

using core::Algorithm;

// A named grid over `algorithms` at network size n and `rounds` rounds.
runner::SweepSpec grid(const char* name, std::size_t n, int rounds,
                       std::vector<Algorithm> algorithms) {
  runner::SweepSpec spec;
  spec.name = name;
  spec.base.net.n = n;
  spec.base.rounds = rounds;
  spec.algorithms = std::move(algorithms);
  return spec;
}

runner::SweepSpec fig3a() {
  return grid("fig3a", 1000, 50,
              {Algorithm::Random, Algorithm::Geographic, Algorithm::Kademlia,
               Algorithm::PerigeeVanilla, Algorithm::PerigeeUcb,
               Algorithm::PerigeeSubset, Algorithm::Ideal});
}

runner::SweepSpec fig3b() {
  runner::SweepSpec spec = fig3a();
  spec.name = "fig3b";
  spec.base.net.n = 600;
  spec.base.rounds = 40;
  spec.base.hash_model = mining::HashPowerModel::Exponential;
  return spec;
}

runner::SweepSpec fig4a() {
  runner::SweepSpec spec = grid(
      "fig4a", 600, 40,
      {Algorithm::Random, Algorithm::PerigeeSubset, Algorithm::Ideal});
  spec.validation_scales = {0.1, 0.5, 1.0, 5.0, 10.0};
  return spec;
}

runner::SweepSpec fig4b() {
  runner::SweepSpec spec =
      grid("fig4b", 600, 30,
           {Algorithm::Random, Algorithm::Geographic, Algorithm::PerigeeSubset,
            Algorithm::Ideal});
  spec.base.hash_model = mining::HashPowerModel::Pools;
  spec.base.pool_latency_scale = 0.1;
  return spec;
}

runner::SweepSpec fig4c() {
  runner::SweepSpec spec =
      grid("fig4c", 600, 30,
           {Algorithm::Random, Algorithm::Geographic, Algorithm::PerigeeSubset,
            Algorithm::Ideal});
  spec.base.relay = true;
  return spec;
}

// Scenario grids (src/scenario): the conditions the paper's §6 leaves open,
// as first-class sweep axes. Sized so `--seeds 2` finishes CI-fast while the
// regime effects are still visible.

// Node churn: per-round leave/rejoin fractions from none to aggressive.
// Static baselines live through the same schedule but only rejoiners redial,
// so the grid shows Perigee's exploration-driven self-healing.
runner::SweepSpec churn_grid() {
  runner::SweepSpec spec = grid(
      "churn", 200, 12,
      {Algorithm::Random, Algorithm::PerigeeSubset, Algorithm::Ideal});
  spec.churn_rates = {0.0, 0.02, 0.05};
  return spec;
}

// Heterogeneous node capabilities (PODS-style tiers): bandwidth-only,
// validation-only, and the full datacenter mix with concentrated hash power.
runner::SweepSpec hetero_grid() {
  runner::SweepSpec spec = grid(
      "hetero", 200, 12,
      {Algorithm::Random, Algorithm::PerigeeSubset, Algorithm::Ideal});
  spec.hetero_profiles = {
      scenario::HeteroProfile::Off, scenario::HeteroProfile::Bandwidth,
      scenario::HeteroProfile::Validation, scenario::HeteroProfile::Datacenter};
  return spec;
}

// Adversarial withholding: sweep the fraction of never-forwarding nodes.
// Perigee's scoring disconnects them (§1 incentive compatibility); the
// random baseline keeps relaying into dead ends.
runner::SweepSpec adversary_grid() {
  runner::SweepSpec spec = grid("adversary", 200, 12,
                                {Algorithm::Random, Algorithm::PerigeeSubset});
  spec.withhold_fractions = {0.0, 0.05, 0.10, 0.20};
  return spec;
}

// Bandwidth congestion: delay-only vs the queued egress engine, with and
// without the two-tier bandwidth mix. Under "queue" + "bandwidth" the slow
// tier's token buckets throttle block serialization, so the grid shows how
// much of Perigee's advantage survives when links saturate (the analytic
// per-hop block term stays off under queue — the engine owns transmission;
// see docs/TRANSMISSION_MODEL.md).
runner::SweepSpec congestion_grid() {
  runner::SweepSpec spec = grid("congestion", 200, 12,
                                {Algorithm::Random, Algorithm::PerigeeSubset});
  spec.transmission_models = {scenario::TransmissionModel::Delay,
                              scenario::TransmissionModel::Queue};
  spec.hetero_profiles = {scenario::HeteroProfile::Off,
                          scenario::HeteroProfile::Bandwidth};
  return spec;
}

// CI-sized smoke grid: every adaptive variant on a small network.
runner::SweepSpec baseline() {
  return grid("baseline", 200, 10,
              {Algorithm::Random, Algorithm::PerigeeVanilla,
               Algorithm::PerigeeUcb, Algorithm::PerigeeSubset,
               Algorithm::Ideal});
}

// Ablation grids (§4.2–4.3, §6): one knob per grid, swept through an
// ablation axis. Random comes first where the knob is judged against the
// random baseline, so every group prints "improvement vs random"; a
// protocol knob leaves the static random cells unchanged.

// UCB's confidence constant c (Eq. 3-4). Small c evicts neighbors on noise;
// huge c never separates the confidence intervals and the topology stays
// frozen at the random start. Expected shape: intermediate c wins;
// c -> infinity degenerates to the (frozen) random topology.
runner::SweepSpec abl_ucb_c() {
  runner::SweepSpec spec = grid("abl-ucb-c", 500, 30,
                                {Algorithm::Random, Algorithm::PerigeeUcb});
  spec.ucb_cs = {30.0, 100.0, 300.0, 1000.0, 3000.0};
  return spec;
}

// Exploration slots ev of Algorithm 1 with dout fixed at 8 (keep = 8 - ev).
// ev = 0 is pure exploitation and can stay stuck with the initial random
// peers; large ev keeps too much of the degree budget random. Expected
// shape: a small positive ev (the paper uses 2) beats both extremes.
runner::SweepSpec abl_explore() {
  runner::SweepSpec spec = grid("abl-explore", 600, 40,
                                {Algorithm::Random, Algorithm::PerigeeSubset});
  spec.explore_slots = {0, 1, 2, 4};
  return spec;
}

// Blocks per round |B| at a fixed budget of rounds x 100 blocks (§4.2.2's
// noise-vs-convergence trade-off). Expected shape: very small |B| scores on
// noisy percentiles and churns good neighbors; very large |B| converges in
// too few updates. The paper's |B| = 100 sits near the sweet spot.
runner::SweepSpec abl_round_size() {
  runner::SweepSpec spec =
      grid("abl-round-size", 600, 40,
           {Algorithm::PerigeeVanilla, Algorithm::PerigeeSubset});
  spec.blocks_per_round = {10, 50, 100, 200};
  return spec;
}

// Footnote 3: Perigee-Subset trained on the fast engine's delivery times vs
// on message-level gossip INV timestamps, both judged by the same metric.
// Expected shape: both observation sources rank neighbors by the same
// signal, so the learned improvements agree closely, validating the fast
// abstraction the other grids use.
runner::SweepSpec abl_learning() {
  runner::SweepSpec spec = grid("abl-learning", 400, 25,
                                {Algorithm::Random, Algorithm::PerigeeSubset});
  spec.gossip_learning = {false, true};
  return spec;
}

// Partial views (addrMan, §6): full knowledge vs bounded address books
// bootstrapped with a few addresses and refreshed by per-round gossip.
// Expected shape: even small address books recover the full-knowledge
// advantage, because ADDR gossip keeps refreshing the candidate pool, so
// the evaluation's "every node knows all IPs" assumption is harmless.
runner::SweepSpec abl_discovery() {
  runner::SweepSpec spec = grid("abl-discovery", 600, 40,
                                {Algorithm::Random, Algorithm::PerigeeSubset});
  spec.addrman_capacities = {std::nullopt, 10, 25, 50, 100, 200};
  return spec;
}

// Bandwidth heterogeneity (§3.3; PODS-style capability spread): 1 MB blocks
// over bandwidths log-uniform in [3, 186] Mbit/s, so the transmission term
// dominates low-bandwidth links. Expected shape: the transmission term
// compresses all gains, but Perigee, whose timestamps fold bandwidth in
// with no explicit probing, keeps roughly twice the advantage of the
// bandwidth-blind geographic policy.
runner::SweepSpec abl_bandwidth() {
  runner::SweepSpec spec = grid("abl-bandwidth", 600, 40,
                                {Algorithm::Random, Algorithm::Geographic,
                                 Algorithm::PerigeeSubset});
  spec.bandwidth_spread = {false, true};
  return spec;
}

constexpr Figure kFigures[] = {
    {"fig3a", "uniform hash power, all algorithms (n=1000)", fig3a},
    {"fig3b", "exponential hash power (n=600)", fig3b},
    {"fig4a", "validation-delay scale sweep", fig4a},
    {"fig4b", "mining pools with fast pool links", fig4b},
    {"fig4c", "fast relay overlay present", fig4c},
    {"churn", "node churn rate sweep (scenario)", churn_grid},
    {"hetero", "heterogeneous capability tiers (scenario)", hetero_grid},
    {"adversary", "withholding-fraction sweep (scenario)", adversary_grid},
    {"congestion", "delay vs queued egress engine (scenario)", congestion_grid},
    {"baseline", "CI-sized smoke grid (n=200)", baseline},
    {"abl-ucb-c", "UCB confidence constant c (ablation)", abl_ucb_c},
    {"abl-explore", "exploration slots ev, dout = 8 (ablation)", abl_explore},
    {"abl-round-size", "blocks per round |B| at a fixed budget (ablation)",
     abl_round_size},
    {"abl-learning", "fast vs message-level learning (ablation)",
     abl_learning},
    {"abl-discovery", "bounded address books (ablation)", abl_discovery},
    {"abl-bandwidth", "1 MB blocks over spread bandwidth (ablation)",
     abl_bandwidth},
};

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.add_string("figure", "", "named grid (see --list)");
  flags.add_bool("list", false, "list named figure grids and exit");
  flags.add_string("name", "", "override sweep name (output file stem)");
  for (const runner::SweepAxis& axis : runner::sweep_axes()) {
    flags.add_string(std::string(axis.flag), "", std::string(axis.help));
  }
  flags.add_int("seeds", 0, "repetitions per cell (0 = keep preset/default)");
  flags.add_int("seed", 1, "base seed");
  flags.add_double("coverage", 0.90, "hash-power coverage for lambda");
  flags.add_int("jobs", 0, "worker threads (0 = all hardware threads)");
  flags.add_string("json", "", "output path (default BENCH_<name>.json)");
  flags.add_string("checkpoint-dir", "",
                   "directory for per-job crash-safe checkpoints (default "
                   "<output path>.ckpt; 'none' disables checkpointing)");
  flags.add_bool("resume", false,
                 "load completed (cell, seed) jobs from the checkpoint "
                 "directory and run only the rest; the final JSON is "
                 "byte-identical to an uninterrupted run");
  flags.add_string("shard", "",
                   "i/k: run only shard i of a k-way split of the grid "
                   "(jobs round-robin by index; no coordination between "
                   "shard processes) and write "
                   "BENCH_<name>.shard<i>of<k>.json for --merge");
  flags.add_string("merge", "",
                   "CSV of k shard files to fold into the final "
                   "BENCH_<name>.json (runs no jobs; pass the same grid "
                   "flags as the shard runs — a fingerprint mismatch "
                   "aborts). Byte-identical to a single-process run");
  flags.add_string("trace", "",
                   "write a Chrome trace_event JSON (chrome://tracing, "
                   "Perfetto, scripts/summarize_trace.py) of the sweep to "
                   "this path; requires a PERIGEE_TELEMETRY build");
  flags.add_bool("metrics", false,
                 "print the merged telemetry counter/gauge/histogram table "
                 "to stderr after the sweep");
  flags.add_bool("incremental-csr", true,
                 "patch CSR snapshots from the topology mutation journal "
                 "between rounds (--incremental-csr=false forces full "
                 "recompiles; results are byte-identical either way)");
  if (!flags.parse(argc, argv)) return 1;

  if (flags.get_bool("list")) {
    for (const auto& figure : kFigures) {
      std::cout << figure.name << "\t" << figure.what << "\n";
    }
    return 0;
  }

  const std::string& trace_path = flags.get_string("trace");
  if (!trace_path.empty()) {
    if (!obs::Tracer::instance().start(trace_path)) {
      std::cerr << "--trace requires a PERIGEE_TELEMETRY=ON build "
                   "(telemetry_compiled="
                << (obs::telemetry_compiled() ? "true" : "false") << ")\n";
      return 1;
    }
  }

  runner::SweepSpec spec;
  const std::string& figure_name = flags.get_string("figure");
  if (!figure_name.empty()) {
    bool found = false;
    for (const auto& figure : kFigures) {
      if (figure_name == figure.name) {
        spec = figure.make();
        found = true;
        break;
      }
    }
    if (!found) {
      std::cerr << "unknown figure '" << figure_name << "' (try --list)\n";
      return 1;
    }
  }
  // Default repetitions, applied after any figure preset so both preset and
  // custom grids get multi-seed curves unless --seeds overrides.
  spec.seeds = 2;

  // Axis overrides from flags: a set flag replaces the preset's axis.
  for (const runner::SweepAxis& axis : runner::sweep_axes()) {
    const std::string& csv = flags.get_string(std::string(axis.flag));
    if (csv.empty()) continue;
    if (const std::string error = axis.parse(spec, csv); !error.empty()) {
      std::cerr << error << "\n";
      return 1;
    }
  }
  if (!flags.int_in_range("seeds", 0, std::numeric_limits<int>::max())) {
    return 1;
  }
  const std::int64_t seeds = flags.get_int("seeds");
  if (seeds > 0) spec.seeds = static_cast<int>(seeds);
  spec.base.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  spec.base.coverage = flags.get_double("coverage");
  // Wall-clock A/B switch, not a grid axis: cell results and the JSON are
  // byte-identical at either setting.
  spec.base.incremental_csr = flags.get_bool("incremental-csr");
  if (const auto& name = flags.get_string("name"); !name.empty()) {
    spec.name = name;
  }

  // The block budget and every cell's config are checked (the validity
  // table, core::config_error) before any job runs.
  std::size_t cell_count = 0;
  try {
    cell_count = runner::expand_grid(spec).size();
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }

  // --merge: fold k shard outputs into the final file. No jobs run; the
  // merged JSON is byte-identical to a single-process run of the same grid.
  if (const auto& csv = flags.get_string("merge"); !csv.empty()) {
    const std::vector<std::string> shard_paths = runner::split_csv(csv);
    runner::SweepResult merged;
    try {
      merged = runner::merge_shards(spec, shard_paths);
    } catch (const std::exception& e) {
      std::cerr << "merge failed: " << e.what() << "\n";
      return 1;
    }
    const obs::RunMeta meta = obs::capture_run_meta();
    std::string path = flags.get_string("json");
    if (path.empty()) path = runner::default_json_path(spec);
    if (!runner::write_json_file(path, spec, merged, &meta)) {
      std::cerr << "cannot write " << path
                << " (shard files are untouched; rerun --merge after fixing "
                   "the destination)\n";
      return 1;
    }
    std::cerr << "merged " << shard_paths.size() << " shards into " << path
              << "\n";
    runner::print_tables(std::cout, spec, merged);
    return 0;
  }

  int shard_index = 0;
  int shard_count = 1;
  if (const auto& text = flags.get_string("shard"); !text.empty()) {
    const std::size_t slash = text.find('/');
    const auto i = slash == std::string::npos
                       ? std::nullopt
                       : runner::parse_number(text.substr(0, slash));
    const auto k = slash == std::string::npos
                       ? std::nullopt
                       : runner::parse_number(text.substr(slash + 1));
    if (!i || !k || *k < 1 || *i < 0 || *i >= *k ||
        *i != static_cast<int>(*i) || *k != static_cast<int>(*k)) {
      std::cerr << "bad --shard '" << text << "' (want i/k with 0 <= i < k)\n";
      return 1;
    }
    shard_index = static_cast<int>(*i);
    shard_count = static_cast<int>(*k);
  }

  // The output path anchors the default checkpoint directory, so shard
  // processes sharing a working directory never collide.
  std::string path = flags.get_string("json");
  if (path.empty()) {
    path = shard_count > 1
               ? runner::default_shard_path(spec, shard_index, shard_count)
               : runner::default_json_path(spec);
  }

  runner::SweepOptions options;
  options.shard_index = shard_index;
  options.shard_count = shard_count;
  options.resume = flags.get_bool("resume");
  options.checkpoint_dir = flags.get_string("checkpoint-dir");
  if (options.checkpoint_dir.empty()) options.checkpoint_dir = path + ".ckpt";
  if (options.checkpoint_dir == "none") options.checkpoint_dir.clear();
  if (options.resume && options.checkpoint_dir.empty()) {
    std::cerr << "--resume needs a checkpoint directory\n";
    return 1;
  }

  const runner::SweepRunner sweep_runner(
      static_cast<int>(flags.get_int("jobs")));
  std::cerr << "sweep '" << spec.name << "': " << cell_count << " cells x "
            << spec.seeds << " seeds on " << sweep_runner.workers()
            << " workers";
  if (shard_count > 1) {
    std::cerr << " (shard " << shard_index << "/" << shard_count << ")";
  }
  std::cerr << "\n";

  // The runner reports completions from worker threads concurrently;
  // ProgressPrinter serializes the stream writes (a bare cerr << "\r..."
  // here used to interleave partial lines under load).
  runner::ProgressPrinter progress(std::cerr, "jobs ");
  runner::SweepResult result;
  runner::ShardFile shard;
  try {
    if (shard_count > 1) {
      shard.shard_index = shard_index;
      shard.shard_count = shard_count;
      shard.slots = sweep_runner.run_slots(spec, options, std::ref(progress));
    } else {
      result = sweep_runner.run(spec, options, std::ref(progress));
    }
    progress.finish();
  } catch (const std::exception& e) {
    progress.finish();
    std::cerr << "sweep failed: " << e.what() << "\n";
    return 1;
  }

  if (shard_count > 1) {
    if (!runner::write_shard_file(path, runner::grid_fingerprint(spec),
                                  shard)) {
      std::cerr << "cannot write " << path << "\n";
      if (!options.checkpoint_dir.empty()) {
        std::cerr << "completed jobs are checkpointed in "
                  << options.checkpoint_dir
                  << "; rerun with --resume to re-emit without recomputing\n";
      }
      return 1;
    }
    std::cerr << "wrote " << path << " (" << shard.slots.size()
              << " of " << cell_count * static_cast<std::size_t>(spec.seeds)
              << " jobs; merge all " << shard_count
              << " shard files with --merge)\n";
    // The shard file now holds everything the checkpoints held.
    if (!options.checkpoint_dir.empty()) {
      runner::CheckpointStore(options.checkpoint_dir, "").remove_all();
    }
    return 0;
  }

  runner::print_tables(std::cout, spec, result);

  // Provenance rides in a separate top-level `meta` member; the curve cells
  // above it stay byte-identical across telemetry settings and --jobs (CI
  // strips `meta` before diffing).
  const obs::RunMeta meta = obs::capture_run_meta();
  if (!runner::write_json_file(path, spec, result, &meta)) {
    // An unwritable destination must not discard hours of computed cells:
    // the per-job checkpoints survive, so a --resume rerun re-emits the
    // identical file from disk without recomputing anything.
    std::cerr << "cannot write " << path << "\n";
    if (!options.checkpoint_dir.empty()) {
      std::cerr << "completed jobs are checkpointed in "
                << options.checkpoint_dir
                << "; fix the destination and rerun with --resume to re-emit "
                   "without recomputing\n";
    }
    return 1;
  }
  std::cerr << "wrote " << path << "\n";
  // The result file now holds everything the checkpoints held.
  if (!options.checkpoint_dir.empty()) {
    runner::CheckpointStore(options.checkpoint_dir, "").remove_all();
  }

  if (!trace_path.empty()) {
    if (!obs::Tracer::instance().finish()) {
      std::cerr << "cannot write " << trace_path << "\n";
      return 1;
    }
    std::cerr << "wrote " << trace_path << "\n";
  }
  if (flags.get_bool("metrics")) {
    const obs::MetricsSnapshot snapshot = obs::Registry::instance().scrape();
    std::cerr << "telemetry counters"
              << (obs::telemetry_compiled() ? ":" : " (compiled out):")
              << "\n";
    for (const auto& [name, value] : snapshot.counters) {
      std::cerr << "  " << name << " = " << value << "\n";
    }
    for (const auto& [name, value] : snapshot.gauges) {
      std::cerr << "  " << name << " = " << value << "\n";
    }
    for (const auto& [name, hist] : snapshot.histograms) {
      std::cerr << "  " << name << " count=" << hist.count
                << " sum=" << hist.sum << "\n";
    }
  }
  return 0;
}

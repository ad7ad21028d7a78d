// In-process half of the sweep benchmark (perfbench/run.py drives it).
//
//   perfbench_trace --mode setup --workload learn --seed 1 --seconds 2
//       Repeats the workload's set-up (every job's scenario build or clone
//       plus its initial topology, as the sweep runner pays them) until
//       --seconds would be exceeded, at least --min-reps times, and prints
//       each repetition's seconds.
//
//   perfbench_trace --mode trace --workload learn --seed 1 --seconds 20
//       --work-dir DIR
//       Replays every (cell, seed) job of the workload one at a time on one
//       thread, timing each layer call from outside (replay.hpp), and runs
//       core::run_cell_curves on the same job as the untimed reference. Any
//       job whose λ or λ50 bytes differ from the reference fails the run.
//       The replayed slots are checkpointed and written as DIR/trace.json
//       (no meta block) so the caller can compare them with perigee_sweep's
//       output. Whole passes repeat while the next should end within
//       --seconds (at least --min-reps of them).
//
// Output is one JSON object on stdout; errors go to stderr with exit code 1
// (bad flags or workload) or 3 (replay parity broken).
#include <chrono>
#include <ctime>
#include <iostream>
#include <string>
#include <vector>

#include "obs/meta.hpp"
#include "replay.hpp"
#include "runner/checkpoint.hpp"
#include "runner/json.hpp"
#include "util/flags.hpp"

namespace {

using namespace perigee;
using perfbench::Job;
using perfbench::JobPlan;
using perfbench::LayerTimes;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Pass {
  LayerTimes layers;
  double pass_s = 0;       // the whole pass, reference runs excluded
  double reference_s = 0;  // Σ untimed run_cell_curves (+ its group builds)
  double replay_s = 0;     // Σ replayed jobs (+ their group builds)
  bool parity = true;
};

Pass run_pass(const runner::SweepSpec& spec, const JobPlan& plan,
              const std::string& out_path) {
  Pass pass;
  perfbench::GroupMasters replay_masters(plan);
  perfbench::GroupMasters reference_masters(plan);
  const auto pass_start = Clock::now();
  const runner::CheckpointStore store(out_path + ".ckpt",
                                      runner::grid_fingerprint(spec));
  perfbench::timed(pass.layers, perfbench::kCheckpoint,
                   [&] { store.prepare(); });

  std::vector<runner::SlotCurves> slots;
  for (const Job& job : plan.jobs) {
    const auto replay_start = Clock::now();
    const core::Scenario* prebuilt = replay_masters.get(job, &pass.layers);
    core::CellCurves curves =
        perfbench::replay_job(job.config, prebuilt, pass.layers);
    pass.replay_s += since(replay_start);

    const auto reference_start = Clock::now();
    const core::CellCurves reference = core::run_cell_curves(
        job.config, reference_masters.get(job, nullptr));
    pass.reference_s += since(reference_start);

    if (!perfbench::same_bytes(curves.lambda, reference.lambda) ||
        !perfbench::same_bytes(curves.lambda50, reference.lambda50)) {
      std::cerr << "replay parity broken: cell " << job.cell << " seed "
                << job.seed << " (" << core::algorithm_name(job.config.algorithm)
                << ") differs from core::run_cell_curves\n";
      pass.parity = false;
    }
    slots.push_back(runner::SlotCurves{job.cell, job.seed,
                                       std::move(curves.lambda),
                                       std::move(curves.lambda50)});
    perfbench::timed(pass.layers, perfbench::kCheckpoint,
                     [&] { store.save(slots.back()); });
  }
  const bool written = perfbench::timed(pass.layers, perfbench::kJson, [&] {
    const runner::SweepResult result =
        runner::aggregate_slots(spec, std::move(slots));
    return runner::write_json_file(out_path, spec, result);
  });
  if (!written) throw std::runtime_error("cannot write " + out_path);
  store.remove_all();
  pass.pass_s = since(pass_start) - pass.reference_s;
  return pass;
}

void write_layers(runner::JsonWriter& w, const LayerTimes& times) {
  w.begin_object();
  for (std::size_t i = 0; i < perfbench::kLayerCount; ++i) {
    w.field(std::string(perfbench::kLayerNames[i]) + "_s", times.seconds[i]);
  }
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.add_string("mode", "", "setup or trace");
  flags.add_string("workload", "", "learn, large-n or congestion");
  flags.add_int("seed", 1, "base seed of the workload's grid");
  flags.add_double("seconds", 1.0, "repeat until this much time has passed");
  flags.add_int("min-reps", 1, "repeat at least this many times");
  flags.add_string("work-dir", ".", "trace mode: where trace.json goes");
  if (!flags.parse(argc, argv)) return 1;

  const std::string& mode = flags.get_string("mode");
  runner::SweepSpec spec;
  try {
    spec = perfbench::workload_spec(
        flags.get_string("workload"),
        static_cast<std::uint64_t>(flags.get_int("seed")));
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  if (mode != "setup" && mode != "trace") {
    std::cerr << "--mode must be setup or trace\n";
    return 1;
  }
  const JobPlan plan = perfbench::plan_jobs(spec);
  const double seconds = flags.get_double("seconds");
  const auto min_reps = flags.get_int("min-reps");

  runner::JsonWriter w(std::cout, 0);
  w.begin_object();
  w.field("workload", flags.get_string("workload"));
  w.field("jobs", static_cast<std::int64_t>(plan.jobs.size()));
  // Another repetition starts only while it should end within --seconds.
  const auto start = Clock::now();
  double last = 0;
  const auto more = [&](std::int64_t rep) {
    return rep < min_reps || since(start) + last <= seconds;
  };
  bool parity = true;
  if (mode == "setup") {
    w.key("setup_s");
    w.begin_array();
    for (std::int64_t rep = 0; more(rep); ++rep) {
      const auto rep_start = Clock::now();
      // CPU seconds, not wall: this process is single-threaded, so they are
      // its set-up work without the waits other tenants of a shared host
      // impose.
      const std::clock_t cpu_start = std::clock();
      LayerTimes times;
      perfbench::GroupMasters masters(plan);
      for (const Job& job : plan.jobs) {
        perfbench::setup_job(job, masters.get(job, &times), times);
      }
      w.value(static_cast<double>(std::clock() - cpu_start) / CLOCKS_PER_SEC);
      last = since(rep_start);
    }
    w.end_array();
  } else {
    const std::string out_path = flags.get_string("work-dir") + "/trace.json";
    w.field("output", out_path);
    w.key("passes");
    w.begin_array();
    for (std::int64_t rep = 0; more(rep); ++rep) {
      const auto rep_start = Clock::now();
      Pass pass;
      try {
        pass = run_pass(spec, plan, out_path);
      } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 1;
      }
      parity = parity && pass.parity;
      w.begin_object();
      w.key("layers");
      write_layers(w, pass.layers);
      w.field("pass_s", pass.pass_s);
      w.field("replay_s", pass.replay_s);
      w.field("reference_s", pass.reference_s);
      w.end_object();
      last = since(rep_start);
    }
    w.end_array();
  }
  // Build provenance of this binary; the library and perigee_sweep share
  // the configure step, so it describes the measured sweep too.
  const obs::RunMeta meta = obs::capture_run_meta();
  w.key("meta");
  w.begin_object();
  obs::write_run_meta_fields(w, meta);
  w.end_object();
  w.end_object();
  std::cout << "\n";
  return parity ? 0 : 3;
}

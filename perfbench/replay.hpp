// Outside-in replay of sweep jobs for per-layer time attribution.
//
// The replay re-drives one (cell, seed) job of a sweep grid through each
// layer's public entry point, in the same order core::run_experiment and
// sim::RoundRunner::run_round call them, and times every call from outside.
// Nothing inside src/ is instrumented. Because the replay must return the
// same λ bytes as core::run_cell_curves for the same config, its timings
// describe the real computation; callers check that equality per job.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "runner/sweep.hpp"

namespace perfbench {

// Layers the replay times, in report order. Each is one public call (or one
// loop of calls) of the round loop or the sweep runner.
enum Layer : std::size_t {
  kScenarioBuild,   // core::build_scenario / core::clone_scenario
  kTopoInitial,     // core::build_initial_topology
  kChurn,           // ChurnDriver::before_round + selector reset + sampler
  kObserveBegin,    // ObservationTable::begin_round
  kCsr,             // net::CsrCache::get / CsrTopology::build
  kSample,          // mining::AliasSampler build + sample
  kRelax,           // sim::simulate_broadcast_batch
  kEgress,          // sim::simulate_broadcast_egress_batch
  kRecord,          // ObservationTable::record_block
  kSelect,          // NeighborSelector::on_round_end over all nodes
  kLambda,          // metrics::eval_all_sources
  kLambdaEgress,    // metrics::eval_all_sources_egress
  kIdeal,           // metrics::eval_ideal_multi
  kCheckpoint,      // runner::CheckpointStore::save
  kJson,            // runner::aggregate_slots + runner::write_json_file
  kLayerCount
};

// Metric stem of each layer ("scenario.build" -> "scenario.build_s").
extern const std::array<std::string_view, kLayerCount> kLayerNames;

// Seconds spent in each layer.
struct LayerTimes {
  std::array<double, kLayerCount> seconds{};
  double total() const;
};

// Runs fn() and adds its wall time to times.seconds[layer]; returns what
// fn returns.
template <typename Fn>
decltype(auto) timed(LayerTimes& times, Layer layer, Fn&& fn) {
  struct Stop {
    LayerTimes& times;
    Layer layer;
    std::chrono::steady_clock::time_point start;
    ~Stop() {
      times.seconds[layer] += std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
    }
  } stop{times, layer, std::chrono::steady_clock::now()};
  return fn();
}

// The sweep grid a named benchmark workload runs; the same grid the
// benchmark passes to perigee_sweep as flags. Throws std::invalid_argument
// for an unknown name.
perigee::runner::SweepSpec workload_spec(std::string_view name,
                                         std::uint64_t seed);

// One (cell, seed) job of a grid, in the sweep runner's job order.
struct Job {
  std::size_t cell = 0;
  std::size_t seed = 0;
  perigee::core::ExperimentConfig config;
  int group = -1;  // shared-build group, -1 = builds its own
};

// The grid's jobs plus the sweep runner's scenario-sharing groups: jobs
// with equal runner::scenario_signature share one build when the group has
// two or more members (runner::SweepOptions::reuse_builds).
struct JobPlan {
  std::vector<Job> jobs;
  std::size_t groups = 0;
};
JobPlan plan_jobs(const perigee::runner::SweepSpec& spec);

// Lazily built group masters, shared by the jobs of one pass.
class GroupMasters {
 public:
  explicit GroupMasters(const JobPlan& plan);
  // The master for `job`'s group (built on first use, timed into
  // `times[kScenarioBuild]` when `times` is non-null), or null when the job
  // builds its own scenario.
  const perigee::core::Scenario* get(const Job& job, LayerTimes* times);

 private:
  std::vector<std::unique_ptr<perigee::core::Scenario>> masters_;
};

// Replays one job and returns its λ vectors, adding each layer's time to
// `times`. `prebuilt` is the job's group master (null: build from scratch),
// as the sweep runner hands it to core::run_cell_curves. Throws
// std::invalid_argument for configs whose path the replay does not mirror
// (partial views, the gossip engine, engine_jobs != 1, checkpoints,
// the parallel-delta engine).
perigee::core::CellCurves replay_job(
    const perigee::core::ExperimentConfig& config,
    const perigee::core::Scenario* prebuilt, LayerTimes& times);

// The set-up share of a job: the scenario build or clone plus the initial
// topology, exactly as the job pays them, timed into `times`.
void setup_job(const Job& job, const perigee::core::Scenario* prebuilt,
               LayerTimes& times);

// True when both vectors hold the same bytes.
bool same_bytes(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace perfbench

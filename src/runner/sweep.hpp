// Declarative experiment grids over ExperimentConfig, executed in parallel.
//
// A SweepSpec names the axes to sweep (algorithm, n, rounds, hash model,
// validation scale, relay; the scenario axes churn rate, heterogeneity
// profile, withholding fraction and transmission model; the ablation axes
// UCB c, exploration slots, blocks per round, learning engine, address
// book and bandwidth spread). Each axis is one row of the table in
// runner/axes.hpp, which expand_grid() walks to turn the spec into the
// cartesian list of cells in a fixed nesting order. SweepRunner executes
// every (cell, seed) pair as an independent job on a work-stealing
// ThreadPool. Each job derives its seed as base seed + seed index and
// writes into a pre-assigned slot, so the aggregated per-cell Curves are
// bit-identical at any --jobs value — including --jobs 1, which is the
// sequential reference.
//
// The same slot discipline is what makes the sweep a restartable service
// rather than an all-or-nothing batch: a job's output is a pure function of
// (spec, cell, seed), so completed slots can be persisted as they finish
// (SweepOptions::checkpoint_dir, runner/checkpoint.hpp), reloaded on resume,
// computed by k coordination-free shard processes (jobs split round-robin by
// job index), and folded back together (merge_shards) — all byte-identical
// to one uninterrupted single-process run.
#pragma once

#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "metrics/curves.hpp"
#include "scenario/scenario.hpp"

namespace perigee::obs {
struct RunMeta;
}  // namespace perigee::obs

namespace perigee::runner {

struct SweepSpec {
  // Used for the default output path BENCH_<name>.json.
  std::string name = "sweep";

  // Values for every field that is not swept below, including the base seed
  // (seed s of a cell runs with base.seed + s) and the λ coverage.
  core::ExperimentConfig base;

  // Swept axes, outermost first in the expansion order (the row order of
  // sweep_axes()). An empty axis means "not swept": the cell inherits the
  // base value and the axis is left out of cell labels.
  std::vector<core::Algorithm> algorithms;
  std::vector<std::size_t> nodes;
  std::vector<int> rounds;
  std::vector<mining::HashPowerModel> hash_models;
  std::vector<double> validation_scales;
  std::vector<bool> relay;

  // Scenario axes (src/scenario): each value overwrites the corresponding
  // field of base.scenario. Churn rates are per-round node fractions;
  // withhold fractions mark that share of nodes as never-forwarding
  // adversaries; hetero profiles select a named two-tier capability mix.
  std::vector<double> churn_rates;
  std::vector<scenario::HeteroProfile> hetero_profiles;
  std::vector<double> withhold_fractions;
  // Transmission models select the broadcast engine per cell: "delay" is
  // the pure-propagation default, "queue" the egress queuing engine
  // (docs/TRANSMISSION_MODEL.md). A result axis, echoed in cell JSON.
  std::vector<scenario::TransmissionModel> transmission_models;

  // Ablation axes (the paper's §4.2–4.3 and §6 knobs). Unlike the axes
  // above, each enters the fingerprint and the cell JSON only when swept.
  std::vector<double> ucb_cs;  // params.ucb_c, Eq. (3)-(4)
  // Exploration slots ev; keep = limits.out_cap - ev holds dout fixed.
  std::vector<int> explore_slots;
  // Blocks per round |B| at a fixed block budget: the cell runs
  // rounds * blocks_per_round / |B| rounds.
  std::vector<int> blocks_per_round;
  // Learning observations: fast-engine deliveries (false) or message-level
  // gossip INV timestamps (true; ExperimentConfig::message_level).
  std::vector<bool> gossip_learning;
  // Partial-view address-book capacity; nullopt is full knowledge.
  std::vector<std::optional<std::size_t>> addrman_capacities;
  // Uniform bandwidth (false), or 1 MB blocks over per-node bandwidths
  // drawn log-uniform from the network options' range (true).
  std::vector<bool> bandwidth_spread;

  // Independent repetitions per cell (aggregated into mean/stddev curves).
  int seeds = 1;
};

struct SweepCell {
  std::size_t index = 0;  // position in expansion order
  std::string label;      // swept axes only, e.g. "algorithm=random n=600"
  core::ExperimentConfig config;  // seed = spec.base.seed (jobs add s)
};

// Cartesian expansion in the axis order declared above. Algorithm::Ideal is
// a valid axis value: its cells are evaluated analytically via run_ideal.
// Axes apply in that order too, so --blocks rescales the cell's rounds.
// Throws std::runtime_error "bad --blocks grid: ..." when the blocks axis
// cannot re-cut the block budget rounds x |B| into rounds of each of its
// |B| (a budget past INT_MAX, or a |B| that does not divide it), and
// std::invalid_argument "cell '<label>': <rule text>" for the first cell
// the validity table (core::config_error) refuses.
std::vector<SweepCell> expand_grid(const SweepSpec& spec);

struct CellResult {
  SweepCell cell;
  metrics::Curve curve;    // sorted-λ at spec.base.coverage
  metrics::Curve curve50;  // sorted-λ at 50% coverage
};

struct SweepResult {
  std::vector<CellResult> cells;  // expansion order, independent of --jobs
};

// One completed (cell, seed) job's raw λ vectors — the unit of
// checkpointing, shard exchange, and merging (runner/checkpoint.hpp
// persists exactly this).
struct SlotCurves {
  std::size_t cell = 0;  // cell index in expansion order
  std::size_t seed = 0;  // seed index (job ran with base.seed + seed)
  std::vector<double> lambda;    // per-node λ at spec.base.coverage
  std::vector<double> lambda50;  // per-node λ at 50% coverage
};

// Service options for SweepRunner. Defaults reproduce the plain batch run.
struct SweepOptions {
  // When non-empty, every completed job is persisted there as
  // cell<c>_seed<s>.json through write_file_atomic, tagged with the grid
  // fingerprint. A crash loses at most the jobs in flight.
  std::string checkpoint_dir;

  // Load completed slots from checkpoint_dir before running and skip them.
  // Requires checkpoint_dir. Files fingerprinted for a different grid make
  // the run throw rather than fold in foreign data.
  bool resume = false;

  // Deterministic shard split: this process runs only the jobs j
  // (= cell_index * seeds + seed_index, expansion order) with
  // j % shard_count == shard_index. Round-robin by job index balances load
  // across shards without any cross-process coordination.
  int shard_index = 0;
  int shard_count = 1;

  // Build each distinct scenario (same topology axes + seed) once per run
  // and clone it across the cells that share it, instead of resampling the
  // identical network per cell. Byte-identical either way (the clone
  // contract, pinned by tests); purely a wall-clock saver for policy-axis
  // grids (algorithm, rounds, churn).
  bool reuse_builds = true;
};

class SweepRunner {
 public:
  // jobs semantics match resolve_jobs: > 0 exact, <= 0 all hardware threads.
  explicit SweepRunner(int jobs = 0);

  unsigned workers() const { return workers_; }

  // Runs the full grid. `progress` (optional) is invoked after every
  // completed job as progress(done, total); it may be called concurrently
  // from worker threads (ProgressPrinter below serializes terminal output).
  using Progress = std::function<void(std::size_t done, std::size_t total)>;
  SweepResult run(const SweepSpec& spec, const Progress& progress = {}) const;

  // run with service options. shard_count must be 1 here — a single shard
  // cannot aggregate the full grid; run run_slots + write_shard_file per
  // shard, then merge_shards.
  SweepResult run(const SweepSpec& spec, const SweepOptions& options,
                  const Progress& progress = {}) const;

  // The service core: executes this shard's share of the grid (all of it at
  // shard_count == 1), honoring resume (checkpointed slots are loaded, not
  // recomputed) and per-job checkpointing, and returns the shard's slots
  // sorted by (cell, seed). progress counts resumed slots as instantly done.
  std::vector<SlotCurves> run_slots(const SweepSpec& spec,
                                    const SweepOptions& options,
                                    const Progress& progress = {}) const;

 private:
  unsigned workers_;
};

// Folds raw slots into the final per-cell curves, aggregating in expansion
// order — the exact code path of an uninterrupted run, so resumed and merged
// results are byte-identical to it. Throws std::runtime_error unless the
// slots cover every (cell, seed) of the grid exactly once.
SweepResult aggregate_slots(const SweepSpec& spec,
                            std::vector<SlotCurves> slots);

// Reads k shard files (write_shard_file in runner/checkpoint.hpp) and folds
// them into the single-process result. Throws std::runtime_error when a file
// is malformed, fingerprinted for a different grid, shard metadata is
// inconsistent (mixed k, duplicate or missing shard indices), or coverage is
// incomplete.
SweepResult merge_shards(const SweepSpec& spec,
                         const std::vector<std::string>& paths);

// "BENCH_<name>.shard<i>of<k>.json" next to default_json_path.
std::string default_shard_path(const SweepSpec& spec, int shard_index,
                               int shard_count);

// Thread-safe "\r done/total" progress meter for SweepRunner::Progress.
// Workers report completions concurrently; a mutex serializes the stream
// writes and stale updates (a lower count arriving after a higher one) are
// dropped, so the displayed counter is monotone and lines never interleave.
class ProgressPrinter {
 public:
  // `label` prefixes the counter, e.g. "sweep 12/40".
  explicit ProgressPrinter(std::ostream& os, std::string label = {});

  // SweepRunner::Progress-compatible; safe from any thread. Bind with
  // std::ref — the printer owns a mutex and must not be copied.
  void operator()(std::size_t done, std::size_t total);

  // Terminates the \r line with a newline (once) if anything was printed.
  void finish();

 private:
  std::mutex mutex_;
  std::ostream& os_;
  std::string label_;
  std::size_t last_done_ = 0;
  bool dirty_ = false;
};

// Serializes a sweep result (spec echo + per-cell curves) as deterministic
// JSON: no timestamps, no timings, to_chars number formatting — files from
// different --jobs runs diff clean. A non-null `meta` adds a top-level
// "meta" provenance object (build/compiler/git/RSS/wall-clock); callers
// that byte-compare output (tests, the determinism CI diffs) pass null or
// strip it first.
void write_json(std::ostream& os, const SweepSpec& spec,
                const SweepResult& result,
                const obs::RunMeta* meta = nullptr);

// write_json to `path` (BENCH_<name>.json convention). Returns false when
// the file cannot be opened.
bool write_json_file(const std::string& path, const SweepSpec& spec,
                     const SweepResult& result,
                     const obs::RunMeta* meta = nullptr);

std::string default_json_path(const SweepSpec& spec);

// Prints the paper's tables for a sweep result. Cells are grouped by every
// swept axis except the algorithm (groups in order of first appearance, so
// fig4a yields one group per validation scale). Each group gets two tables
// — sorted-λ "mean ±stddev" at the error-bar nodes plus a mean row, one
// column per algorithm — at spec.base.coverage and at 50%, then the
// improvement of every cell over the group's first at the median node and,
// when the group has an ideal cell, the share of the first->ideal gap each
// other cell closes. A ratio whose denominator is not positive prints "-".
void print_tables(std::ostream& os, const SweepSpec& spec,
                  const SweepResult& result);

}  // namespace perigee::runner

#include "runner/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/meta.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runner/axes.hpp"
#include "runner/checkpoint.hpp"
#include "runner/json.hpp"
#include "runner/thread_pool.hpp"
#include "util/assert.hpp"
#include "util/table.hpp"

namespace perigee::runner {
namespace {

void append_label(std::string& label, std::string_view part) {
  if (!label.empty()) label += ' ';
  label += part;
}

// Why the blocks axis cannot re-cut the budget (empty when it can): a
// budget past INT_MAX would wrap the int round loop to no learning round,
// and a |B| that does not divide it would silently drop blocks.
std::string check_block_budget(const SweepSpec& spec) {
  if (spec.blocks_per_round.empty()) return {};
  constexpr std::int64_t kMaxRounds = std::numeric_limits<int>::max();
  std::vector<int> rounds = spec.rounds;
  if (rounds.empty()) rounds.push_back(spec.base.rounds);
  for (const int r : rounds) {
    const std::int64_t budget = std::int64_t{r} * spec.base.blocks_per_round;
    const std::string cut = std::to_string(r) + " x " +
                            std::to_string(spec.base.blocks_per_round);
    if (budget > kMaxRounds) {
      return "bad --blocks grid: block budget rounds x |B| = " + cut +
             " (want <= " + std::to_string(kMaxRounds) + ")";
    }
    for (const int b : spec.blocks_per_round) {
      // A |B| < 1 is the validity table's to refuse, per cell.
      if (b >= 1 && budget % b != 0) {
        return "bad --blocks grid: |B| = " + std::to_string(b) +
               " does not divide the block budget rounds x |B| = " + cut;
      }
    }
  }
  return {};
}

}  // namespace

std::vector<SweepCell> expand_grid(const SweepSpec& spec) {
  if (const std::string error = check_block_budget(spec); !error.empty()) {
    throw std::runtime_error(error);
  }
  // Table order == expansion nesting order (outermost first) == label
  // order. An unswept axis is one unlabeled option: the base value the cell
  // config already holds.
  const std::vector<SweepAxis>& axes = sweep_axes();
  std::vector<std::size_t> sizes;
  sizes.reserve(axes.size());
  std::size_t total = 1;
  for (const SweepAxis& axis : axes) {
    sizes.push_back(axis.size(spec));
    total *= std::max<std::size_t>(sizes.back(), 1);
  }

  // Mixed-radix decode of the cell index, first axis most significant —
  // exactly the order nested loops would visit.
  std::vector<SweepCell> cells;
  cells.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    SweepCell cell;
    cell.index = i;
    cell.config = spec.base;
    std::size_t radix = total;
    std::size_t rest = i;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      if (sizes[a] == 0) continue;
      radix /= sizes[a];
      const std::size_t value = rest / radix;
      rest %= radix;
      axes[a].apply(spec, value, cell.config);
      append_label(cell.label, std::string(axes[a].label) + "=" +
                                   axes[a].value_text(spec, value));
    }
    if (cell.label.empty()) cell.label = "base";
    if (const std::string error = core::config_error(cell.config);
        !error.empty()) {
      throw std::invalid_argument("cell '" + cell.label + "': " + error);
    }
    cells.push_back(std::move(cell));
  }
  return cells;
}

SweepRunner::SweepRunner(int jobs) : workers_(resolve_jobs(jobs)) {}

SweepResult SweepRunner::run(const SweepSpec& spec,
                             const Progress& progress) const {
  return run(spec, SweepOptions{}, progress);
}

SweepResult SweepRunner::run(const SweepSpec& spec, const SweepOptions& options,
                             const Progress& progress) const {
  // A single shard only covers its 1/k of the grid; aggregate_slots would
  // (rightly) refuse the gap. Shard callers go run_slots -> write_shard_file.
  PERIGEE_ASSERT(options.shard_count == 1);
  return aggregate_slots(spec, run_slots(spec, options, progress));
}

std::vector<SlotCurves> SweepRunner::run_slots(const SweepSpec& spec,
                                               const SweepOptions& options,
                                               const Progress& progress) const {
  PERIGEE_ASSERT(spec.seeds >= 1);
  PERIGEE_ASSERT(options.shard_count >= 1);
  PERIGEE_ASSERT(options.shard_index >= 0 &&
                 options.shard_index < options.shard_count);
  PERIGEE_ASSERT(!options.resume || !options.checkpoint_dir.empty());

  const std::vector<SweepCell> cells = expand_grid(spec);
  const auto seeds = static_cast<std::size_t>(spec.seeds);
  const std::size_t jobs_total = cells.size() * seeds;
  const auto shard_count = static_cast<std::size_t>(options.shard_count);
  const auto shard_index = static_cast<std::size_t>(options.shard_index);
  const auto mine = [&](std::size_t j) { return j % shard_count == shard_index; };

  std::optional<CheckpointStore> store;
  if (!options.checkpoint_dir.empty()) {
    store.emplace(options.checkpoint_dir, grid_fingerprint(spec));
    store->prepare();
  }

  // One pre-assigned slot per job j = cell * seeds + seed: jobs never
  // contend on shared state, and downstream aggregation order is fixed —
  // this is what makes the result independent of worker count, scheduling,
  // shard splits, and crash/resume boundaries.
  std::vector<SlotCurves> slots(jobs_total);
  std::vector<char> have(jobs_total, 0);

  if (options.resume && store) {
    for (SlotCurves& slot : store->load_all()) {
      // The fingerprint matched, so the checkpoint addresses this exact
      // grid; out-of-range indices mean a corrupted file, not a stale grid.
      if (slot.cell >= cells.size() || slot.seed >= seeds) {
        throw std::runtime_error("checkpoint slot (cell " +
                                 std::to_string(slot.cell) + ", seed " +
                                 std::to_string(slot.seed) +
                                 ") is outside the grid");
      }
      const std::size_t j = slot.cell * seeds + slot.seed;
      have[j] = 1;
      slots[j] = std::move(slot);
    }
  }

  std::size_t total = 0;    // this shard's share of the grid
  std::size_t resumed = 0;  // ... of which already checkpointed
  for (std::size_t j = 0; j < jobs_total; ++j) {
    if (!mine(j)) continue;
    ++total;
    if (have[j]) ++resumed;
  }
  PERIGEE_COUNTER_ADD("sweep.resume_skips",
                      static_cast<std::int64_t>(resumed));

  // Cross-cell build reuse: jobs that agree on every scenario-determining
  // axis (same scenario_signature — policy axes like algorithm, rounds and
  // churn excluded) share one lazily built master scenario. The first job
  // of a group builds it, the rest clone; the last one through frees it.
  struct BuildGroup {
    std::once_flag once;
    std::shared_ptr<const core::Scenario> scenario;
    std::atomic<std::size_t> remaining{0};
  };
  std::vector<std::unique_ptr<BuildGroup>> groups;
  std::vector<BuildGroup*> group_of(jobs_total, nullptr);
  if (options.reuse_builds) {
    std::map<std::string, std::vector<std::size_t>> by_signature;
    for (std::size_t j = 0; j < jobs_total; ++j) {
      if (!mine(j) || have[j]) continue;
      core::ExperimentConfig config = cells[j / seeds].config;
      config.seed += static_cast<std::uint64_t>(j % seeds);
      by_signature[scenario_signature(config)].push_back(j);
    }
    for (auto& [signature, members] : by_signature) {
      if (members.size() < 2) continue;  // nothing to share
      auto group = std::make_unique<BuildGroup>();
      group->remaining.store(members.size(), std::memory_order_relaxed);
      for (const std::size_t j : members) group_of[j] = group.get();
      groups.push_back(std::move(group));
    }
  }

  std::atomic<std::size_t> done{resumed};
  // Resumed slots count as instantly done; plain runs keep the historical
  // contract of exactly one progress call per completed job.
  if (progress && resumed > 0) progress(resumed, total);
  ThreadPool pool(workers_);
  for (std::size_t j = 0; j < jobs_total; ++j) {
    if (!mine(j) || have[j]) continue;
    pool.submit([&, j] {
      const std::size_t c = j / seeds;
      const std::size_t s = j % seeds;
      core::ExperimentConfig config = cells[c].config;
      config.seed += static_cast<std::uint64_t>(s);
      PERIGEE_TRACE_SPAN_ARGS(cell_span, "sweep_cell",
                              obs::TraceArgs()
                                  .arg("cell", cells[c].label)
                                  .arg("seed", config.seed)
                                  .json());
      BuildGroup* group = group_of[j];
      std::shared_ptr<const core::Scenario> prebuilt;
      if (group != nullptr) {
        bool built = false;
        std::call_once(group->once, [&] {
          group->scenario = std::make_shared<const core::Scenario>(
              core::build_scenario(config));
          built = true;
          PERIGEE_COUNTER_ADD("sweep.scenario_builds", 1);
        });
        if (!built) PERIGEE_COUNTER_ADD("sweep.scenario_reuses", 1);
        prebuilt = group->scenario;
      }
      core::CellCurves curves = core::run_cell_curves(config, prebuilt.get());
      if (group != nullptr &&
          group->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        group->scenario.reset();  // last user; `prebuilt` copies keep theirs
      }
      slots[j] = SlotCurves{c, s, std::move(curves.lambda),
                            std::move(curves.lambda50)};
      have[j] = 1;
      if (store && store->save(slots[j])) {
        PERIGEE_COUNTER_ADD("sweep.checkpoint_writes", 1);
      }
      if (progress) {
        progress(done.fetch_add(1, std::memory_order_relaxed) + 1, total);
      }
    });
  }
  pool.wait();

  std::vector<SlotCurves> out;
  out.reserve(total);
  for (std::size_t j = 0; j < jobs_total; ++j) {
    if (!mine(j)) continue;
    PERIGEE_ASSERT(have[j]);
    out.push_back(std::move(slots[j]));
  }
  return out;
}

SweepResult aggregate_slots(const SweepSpec& spec,
                            std::vector<SlotCurves> slots) {
  std::vector<SweepCell> cells = expand_grid(spec);
  const auto seeds = static_cast<std::size_t>(spec.seeds);

  std::vector<std::vector<std::vector<double>>> lambda(cells.size());
  std::vector<std::vector<std::vector<double>>> lambda50(cells.size());
  std::vector<std::vector<char>> have(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    lambda[c].resize(seeds);
    lambda50[c].resize(seeds);
    have[c].assign(seeds, 0);
  }

  for (SlotCurves& slot : slots) {
    if (slot.cell >= cells.size() || slot.seed >= seeds) {
      throw std::runtime_error("slot (cell " + std::to_string(slot.cell) +
                               ", seed " + std::to_string(slot.seed) +
                               ") is outside the grid");
    }
    if (have[slot.cell][slot.seed]) {
      throw std::runtime_error("duplicate slot (cell " +
                               std::to_string(slot.cell) + ", seed " +
                               std::to_string(slot.seed) + ")");
    }
    have[slot.cell][slot.seed] = 1;
    lambda[slot.cell][slot.seed] = std::move(slot.lambda);
    lambda50[slot.cell][slot.seed] = std::move(slot.lambda50);
  }

  std::size_t missing = 0;
  for (const auto& cell_have : have) {
    for (const char h : cell_have) missing += h == 0;
  }
  if (missing > 0) {
    throw std::runtime_error(
        "incomplete sweep coverage: " + std::to_string(missing) + " of " +
        std::to_string(cells.size() * seeds) + " (cell, seed) slots missing");
  }

  SweepResult result;
  result.cells.reserve(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    CellResult cr;
    cr.cell = std::move(cells[c]);
    cr.curve = metrics::aggregate_sorted_curves(std::move(lambda[c]));
    cr.curve50 = metrics::aggregate_sorted_curves(std::move(lambda50[c]));
    result.cells.push_back(std::move(cr));
  }
  return result;
}

SweepResult merge_shards(const SweepSpec& spec,
                         const std::vector<std::string>& paths) {
  if (paths.empty()) throw std::runtime_error("merge: no shard files given");
  const std::string fingerprint = grid_fingerprint(spec);
  const int shard_count = static_cast<int>(paths.size());
  std::vector<char> seen(paths.size(), 0);
  std::vector<SlotCurves> slots;
  for (const std::string& path : paths) {
    ShardFile shard = read_shard_file(path, fingerprint);
    if (shard.shard_count != shard_count) {
      throw std::runtime_error(path + ": written as shard of " +
                               std::to_string(shard.shard_count) + " but " +
                               std::to_string(shard_count) + " files given");
    }
    if (shard.shard_index < 0 || shard.shard_index >= shard_count) {
      throw std::runtime_error(path + ": shard index out of range");
    }
    if (seen[static_cast<std::size_t>(shard.shard_index)]) {
      throw std::runtime_error(path + ": duplicate shard " +
                               std::to_string(shard.shard_index));
    }
    seen[static_cast<std::size_t>(shard.shard_index)] = 1;
    for (SlotCurves& slot : shard.slots) slots.push_back(std::move(slot));
  }
  // aggregate_slots rejects any remaining gap or overlap between shards.
  return aggregate_slots(spec, std::move(slots));
}

std::string default_shard_path(const SweepSpec& spec, int shard_index,
                               int shard_count) {
  return "BENCH_" + spec.name + ".shard" + std::to_string(shard_index) +
         "of" + std::to_string(shard_count) + ".json";
}

ProgressPrinter::ProgressPrinter(std::ostream& os, std::string label)
    : os_(os), label_(std::move(label)) {}

void ProgressPrinter::operator()(std::size_t done, std::size_t total) {
  const std::lock_guard<std::mutex> lock(mutex_);
  // fetch_add in the runner and this lock are not one atomic step, so a
  // larger count can arrive first; printing the straggler would make the
  // meter jump backwards.
  if (dirty_ && done < last_done_) return;
  last_done_ = done;
  dirty_ = true;
  os_ << '\r' << label_ << done << '/' << total << std::flush;
}

void ProgressPrinter::finish() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!dirty_) return;
  os_ << '\n' << std::flush;
  dirty_ = false;
}

namespace {

void write_curve(JsonWriter& w, const metrics::Curve& curve) {
  w.begin_object();
  w.field("mean", curve.mean);
  w.field("stddev", curve.stddev);
  w.end_object();
}

}  // namespace

void write_json(std::ostream& os, const SweepSpec& spec,
                const SweepResult& result, const obs::RunMeta* meta) {
  JsonWriter w(os);
  w.begin_object();
  w.field("name", spec.name);
  w.key("spec");
  w.begin_object();
  w.field("seeds", static_cast<std::int64_t>(spec.seeds));
  w.field("base_seed", static_cast<std::int64_t>(spec.base.seed));
  w.field("coverage", spec.base.coverage);
  w.end_object();
  // `meta` is provenance, not results: it holds volatile facts (wall-clock,
  // RSS), so the golden fixture and the byte-determinism diffs run without
  // it and CI strips it (scripts/strip_meta.py) before comparing files.
  if (meta != nullptr) {
    w.key("meta");
    w.begin_object();
    obs::write_run_meta_fields(w, *meta);
    w.end_object();
  }
  w.key("cells");
  w.begin_array();
  for (const CellResult& cr : result.cells) {
    const core::ExperimentConfig& config = cr.cell.config;
    w.begin_object();
    w.field("label", cr.cell.label);
    for (const SweepAxis& axis : sweep_axes()) {
      if (!axis.written(spec)) continue;
      w.key(axis.json_key);
      axis.write_cell(w, config);
    }
    w.key("curve");
    write_curve(w, cr.curve);
    w.key("curve50");
    write_curve(w, cr.curve50);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

bool write_json_file(const std::string& path, const SweepSpec& spec,
                     const SweepResult& result, const obs::RunMeta* meta) {
  // Atomic temp-and-rename: a sweep interrupted mid-write (hours of cells
  // already computed elsewhere, ctrl-C, OOM kill) never leaves a truncated
  // results file where downstream tooling expects parsable JSON.
  return write_file_atomic(
      path, [&](std::ostream& os) { write_json(os, spec, result, meta); });
}

std::string default_json_path(const SweepSpec& spec) {
  return "BENCH_" + spec.name + ".json";
}

namespace {

using CellGroup = std::vector<const CellResult*>;

// A cell's label without its algorithm fragment. The algorithm is the
// outermost axis, so when swept its fragment leads the label.
std::string group_key(const std::string& label) {
  if (label.rfind("algorithm=", 0) != 0) return label;
  const std::size_t space = label.find(' ');
  return space == std::string::npos ? std::string() : label.substr(space + 1);
}

std::string algorithm_of(const CellResult& cr) {
  return std::string(core::algorithm_name(cr.cell.config.algorithm));
}

void print_curve_table(std::ostream& os, const std::string& title,
                       const CellGroup& cells,
                       metrics::Curve CellResult::*which) {
  util::print_banner(os, title);
  std::vector<std::string> header = {"node"};
  for (const CellResult* cr : cells) header.push_back(algorithm_of(*cr));
  util::Table table(std::move(header));
  const std::size_t n = (cells.front()->*which).mean.size();
  for (const std::size_t idx : metrics::errorbar_indices(n)) {
    std::vector<std::string> row = {std::to_string(idx)};
    for (const CellResult* cr : cells) {
      const metrics::Curve& curve = cr->*which;
      row.push_back(util::fmt(curve.mean[idx]) + " ±" +
                    util::fmt(curve.stddev[idx]));
    }
    table.add_row(std::move(row));
  }
  std::vector<std::string> mean_row = {"mean"};
  for (const CellResult* cr : cells) {
    mean_row.push_back(util::fmt(metrics::curve_mean(cr->*which)));
  }
  table.add_row(std::move(mean_row));
  table.print(os);
}

void print_comparisons(std::ostream& os, const CellGroup& cells) {
  const metrics::Curve& base = cells.front()->curve;
  const std::string base_name = algorithm_of(*cells.front());
  const std::size_t mid = base.mean.size() / 2;
  os << "improvement vs " << base_name << " at node " << mid << ":\n";
  for (std::size_t i = 1; i < cells.size(); ++i) {
    os << "  " << algorithm_of(*cells[i]) << ": ";
    if (base.mean[mid] > 0) {
      os << util::fmt(100.0 * metrics::improvement_at(cells[i]->curve, base,
                                                      mid),
                      1)
         << "%\n";
    } else {
      os << "-\n";
    }
  }

  const auto ideal = std::find_if(cells.begin() + 1, cells.end(), [](auto cr) {
    return cr->cell.config.algorithm == core::Algorithm::Ideal;
  });
  if (ideal == cells.end()) return;
  const double gap = base.mean[mid] - (*ideal)->curve.mean[mid];
  os << '\n';
  for (std::size_t i = 1; i < cells.size(); ++i) {
    if (cells[i] == *ideal) continue;
    os << "fraction of the " << base_name << "->ideal gap closed by "
       << algorithm_of(*cells[i]) << " at the median node: ";
    if (gap > 0) {
      const double closed = (base.mean[mid] - cells[i]->curve.mean[mid]) / gap;
      os << util::fmt(100.0 * closed, 1) << "%\n";
    } else {
      os << "-\n";
    }
  }
}

}  // namespace

void print_tables(std::ostream& os, const SweepSpec& spec,
                  const SweepResult& result) {
  std::vector<std::pair<std::string, CellGroup>> groups;
  for (const CellResult& cr : result.cells) {
    std::string key = group_key(cr.cell.label);
    auto group = std::find_if(groups.begin(), groups.end(),
                              [&](const auto& g) { return g.first == key; });
    if (group == groups.end()) {
      group = groups.insert(groups.end(), {std::move(key), {}});
    }
    group->second.push_back(&cr);
  }
  for (const auto& [key, cells] : groups) {
    const std::string title = key.empty() ? spec.name : spec.name + " " + key;
    print_curve_table(os,
                      title + ", " + util::fmt(100.0 * spec.base.coverage, 0) +
                          "% coverage (ms)",
                      cells, &CellResult::curve);
    print_curve_table(os, title + ", 50% coverage (ms)", cells,
                      &CellResult::curve50);
    if (cells.size() > 1) print_comparisons(os, cells);
  }
}

}  // namespace perigee::runner

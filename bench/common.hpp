// Shared plumbing for the benches whose output is not a λ table
// (convergence traces, edge-latency histograms, incremental adoption):
// flag handling, the --trace session and the --json curve dump. The paper's
// Figure 3 and 4 grids and the λ-table ablations are not benches:
// `perigee_sweep --figure <name>` runs them and prints their tables
// (runner::print_tables).
#pragma once

#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "metrics/curves.hpp"
#include "obs/meta.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runner/json.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace perigee::bench {

struct NamedCurve {
  std::string name;
  metrics::Curve curve;
};

// Registers the flags shared by every bench on this header, including the
// runner plumbing: --jobs N fans independent runs across a work-stealing
// pool (results are bit-identical at any value), --json <path> dumps the
// curves.
inline void add_common_flags(util::Flags& flags, int default_nodes,
                             int default_rounds) {
  flags.add_int("nodes", default_nodes, "network size");
  flags.add_int("rounds", default_rounds,
                "learning rounds (x100 blocks) for adaptive algorithms");
  flags.add_int("seed", 1, "base seed");
  flags.add_double("coverage", 0.90, "hash-power coverage for lambda");
  flags.add_int("jobs", 0, "worker threads (0 = all hardware threads)");
  flags.add_string("json", "", "also write curves to this JSON file");
  flags.add_string("trace", "",
                   "write a Chrome trace_event JSON of the run to this path "
                   "(requires a PERIGEE_TELEMETRY build)");
}

// RAII driver for the shared --trace flag: arms the span tracer for the
// bench's lifetime and writes the trace file (crash-safe temp-and-rename)
// on scope exit. Construct right after flags.parse().
class TraceSession {
 public:
  explicit TraceSession(const util::Flags& flags)
      : path_(flags.get_string("trace")) {
    if (path_.empty()) return;
    if (!obs::Tracer::instance().start(path_)) {
      std::cerr << "--trace ignored: requires a PERIGEE_TELEMETRY=ON build\n";
      path_.clear();
    }
  }
  ~TraceSession() {
    if (path_.empty()) return;
    if (obs::Tracer::instance().finish()) {
      std::cerr << "wrote " << path_ << "\n";
    } else {
      std::cerr << "cannot write " << path_ << "\n";
    }
  }
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

 private:
  std::string path_;
};

// Bounds for flags the benches narrow to int.
inline constexpr std::int64_t kIntMin = std::numeric_limits<int>::min();
inline constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

inline int jobs_from_flags(const util::Flags& flags) {
  return static_cast<int>(flags.get_int("jobs"));
}

// The experiment the shared flags describe. A value the validity table
// (core::config_error) refuses prints "bad --<flag> value" and yields
// nullopt, so the bench exits 1 before any work starts.
inline std::optional<core::ExperimentConfig> config_from_flags(
    const util::Flags& flags) {
  if (!flags.int_in_range("nodes", 0, kIntMax) ||
      !flags.int_in_range("rounds", kIntMin, kIntMax)) {
    return std::nullopt;
  }
  core::ExperimentConfig config;
  config.net.n = static_cast<std::size_t>(flags.get_int("nodes"));
  config.rounds = static_cast<int>(flags.get_int("rounds"));
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  config.coverage = flags.get_double("coverage");
  if (const std::string error = core::config_error(config); !error.empty()) {
    std::cerr << error << "\n";
    return std::nullopt;
  }
  return config;
}

// Writes the named curves as deterministic JSON when --json was given:
// {"title", "meta", "curves": [{"name", "mean", "stddev"}, ...]}. Returns
// false when the file cannot be written, so benches can exit nonzero
// instead of silently succeeding in a pipeline.
inline bool write_json_if_requested(const util::Flags& flags,
                                    const std::string& title,
                                    const std::vector<NamedCurve>& curves) {
  const std::string& path = flags.get_string("json");
  if (path.empty()) return true;
  // Temp-and-rename via write_file_atomic: an interrupted bench never
  // leaves a truncated curve file for a plotting pipeline to choke on.
  const bool ok = runner::write_file_atomic(path, [&](std::ostream& os) {
    runner::JsonWriter w(os);
    w.begin_object();
    w.field("title", title);
    // Same provenance block the sweep JSON carries; the curve members that
    // follow stay byte-stable, so strip `meta` before byte-diffing files.
    const obs::RunMeta meta = obs::capture_run_meta();
    w.key("meta");
    w.begin_object();
    obs::write_run_meta_fields(w, meta);
    w.end_object();
    w.key("curves");
    w.begin_array();
    for (const NamedCurve& c : curves) {
      w.begin_object();
      w.field("name", c.name);
      w.field("mean", c.curve.mean);
      w.field("stddev", c.curve.stddev);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    os << '\n';
  });
  if (!ok) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  std::cerr << "wrote " << path << "\n";
  return true;
}

}  // namespace perigee::bench

// Crash-safe checkpoint store and shard exchange format for the sweep
// service (runner/sweep.hpp).
//
// The unit of persistence is one completed (cell, seed) job's raw λ vectors
// — exactly the payload the runner aggregates into curves. Every file is
// written through write_file_atomic and tagged with the grid fingerprint, a
// 64-bit hash over every result-relevant field of the spec, so a resumed or
// merged run either reproduces the uninterrupted output byte for byte or
// refuses loudly: a checkpoint from a different grid can never be folded in
// silently. Doubles round-trip exactly (to_chars shortest form; non-finite
// λ — unreachable nodes — is spelled "inf"/"-inf"/"nan" because JSON
// numbers cannot carry it).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "runner/sweep.hpp"

namespace perigee::runner {

// The persisted unit is SlotCurves (runner/sweep.hpp): one completed
// (cell, seed) job's raw λ vectors.

// Hex FNV-1a over a canonical serialization of everything that determines
// the grid's results: seed count, the full base config (network options,
// limits, protocol params, scenario regimes, ...) and every swept axis.
// Wall-clock-only knobs (engine_jobs, incremental_csr) are excluded — a
// checkpoint taken at one engine worker count or CSR mode resumes under
// another.
std::string grid_fingerprint(const SweepSpec& spec);

// Canonical serialization of the fields build_scenario reads (network
// options, seed, hash model, relay, static scenario regimes, transmission —
// not algorithm/rounds/churn, which act only after the build). Jobs with
// equal signatures share one scenario build; see SweepOptions::reuse_builds.
std::string scenario_signature(const core::ExperimentConfig& config);

// Per-run checkpoint directory: one "cell<c>_seed<s>.json" per completed
// job. All methods throw std::runtime_error on malformed or foreign data;
// plain io failure on save is reported by return value so a full disk
// mid-sweep degrades to "no checkpoint for this job" instead of aborting
// the run.
class CheckpointStore {
 public:
  CheckpointStore(std::string dir, std::string fingerprint);

  const std::string& dir() const { return dir_; }

  // Creates the directory (and parents). Throws when creation fails.
  void prepare() const;

  // Atomically persists one completed job. Returns false on io error.
  bool save(const SlotCurves& slot) const;

  // Loads every job file in the directory. A missing directory is an empty
  // resume; a job file whose fingerprint differs from this run's throws —
  // it belongs to a different grid and must not be folded in.
  std::vector<SlotCurves> load_all() const;

  // Deletes the store's job files (by naming pattern) and the directory if
  // that leaves it empty. Foreign files are left alone. Best-effort: io
  // errors are swallowed — cleanup must never fail a finished sweep.
  void remove_all() const;

 private:
  std::string dir_;
  std::string fingerprint_;
};

// One shard's output: the slots of every job j (in expansion order,
// j = cell * seeds + seed) with j % shard_count == shard_index.
struct ShardFile {
  int shard_index = 0;
  int shard_count = 1;
  std::vector<SlotCurves> slots;  // sorted by (cell, seed)
};

// Atomically writes a shard exchange file. Returns false on io error.
bool write_shard_file(const std::string& path, const std::string& fingerprint,
                      const ShardFile& shard);

// Reads and validates a shard file. Throws std::runtime_error when the file
// is unreadable, malformed, or fingerprinted for a different grid.
ShardFile read_shard_file(const std::string& path,
                          const std::string& fingerprint);

}  // namespace perigee::runner

#include "runner/checkpoint.hpp"

#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "runner/axes.hpp"
#include "runner/json.hpp"

namespace perigee::runner {
namespace fs = std::filesystem;
namespace {

// ------------------------------------------------------- config signatures

// Everything build_scenario reads from the network options. `options` is
// expected to be pre-adjusted (seed stamped, adjust_network_options applied)
// so the signature matches what the build actually consumes.
void write_net_options(JsonWriter& w, const net::NetworkOptions& options) {
  w.key("net");
  w.begin_object();
  w.field("n", static_cast<std::int64_t>(options.n));
  w.field("seed", static_cast<std::int64_t>(options.seed));
  w.field("latency", static_cast<std::int64_t>(options.latency));
  w.field("jitter_frac", options.jitter_frac);
  w.field("access_min_ms", options.access_min_ms);
  w.field("access_max_ms", options.access_max_ms);
  w.field("embed_dim", static_cast<std::int64_t>(options.embed_dim));
  w.field("embed_scale_ms", options.embed_scale_ms);
  w.field("validation_mean_ms", options.validation_mean_ms);
  w.field("validation_spread", options.validation_spread);
  w.field("validation_scale", options.validation_scale);
  w.field("handshake_factor", options.handshake_factor);
  w.field("block_size_kb", options.block_size_kb);
  w.field("heterogeneous_bandwidth", options.heterogeneous_bandwidth);
  w.field("bandwidth_min_mbps", options.bandwidth_min_mbps);
  w.field("bandwidth_max_mbps", options.bandwidth_max_mbps);
  w.field("bandwidth_default_mbps", options.bandwidth_default_mbps);
  w.end_object();
}

// The build axes: the subset of the config that determines the output of
// build_scenario (and therefore which jobs may share one scenario build).
void write_build_fields(JsonWriter& w, const core::ExperimentConfig& config,
                        const net::NetworkOptions& adjusted_net) {
  write_net_options(w, adjusted_net);
  w.field("out_cap", static_cast<std::int64_t>(config.limits.out_cap));
  w.field("in_cap", static_cast<std::int64_t>(config.limits.in_cap));
  w.field("hash_model", mining::hash_model_name(config.hash_model));
  w.field("pool_fraction", config.pools.pool_fraction);
  w.field("pool_share", config.pools.pool_share);
  w.field("pool_latency_scale", config.pool_latency_scale);
  w.field("relay", config.relay);
  w.field("relay_members",
          static_cast<std::int64_t>(config.relay_config.members));
  w.field("relay_link_ms", config.relay_config.link_ms);
  w.field("relay_validation_scale", config.relay_config.validation_scale);
  w.field("relay_fanout", static_cast<std::int64_t>(config.relay_config.fanout));
  w.field("geo_concentration", config.scenario.geo.concentration);
  w.field("geo_hub", static_cast<std::int64_t>(config.scenario.geo.hub));
  const scenario::HeteroRegime& hetero = config.scenario.hetero;
  w.field("hetero", scenario::hetero_profile_name(hetero.profile));
  w.field("hetero_fast_fraction", hetero.fast_fraction);
  w.field("hetero_fast_bandwidth_mbps", hetero.fast_bandwidth_mbps);
  w.field("hetero_slow_bandwidth_mbps", hetero.slow_bandwidth_mbps);
  w.field("hetero_fast_validation_scale", hetero.fast_validation_scale);
  w.field("hetero_slow_validation_scale", hetero.slow_validation_scale);
  w.field("hetero_fast_hash_share", hetero.fast_hash_share);
  w.field("hetero_block_size_kb", hetero.block_size_kb);
  w.field("withhold_fraction", config.scenario.adversary.withhold_fraction);
  w.field("withhold_zero_hash", config.scenario.adversary.zero_hash);
}

// The remaining result-relevant fields: how the learning loop and the λ
// evaluations run on top of the built scenario. Wall-clock-only knobs
// (engine_jobs, incremental_csr) are deliberately absent — they are
// byte-parity-pinned elsewhere and must not invalidate resumes.
void write_policy_fields(JsonWriter& w, const core::ExperimentConfig& config) {
  w.field("algorithm", core::algorithm_name(config.algorithm));
  w.field("keep", static_cast<std::int64_t>(config.params.keep));
  w.field("explore", static_cast<std::int64_t>(config.params.explore));
  w.field("percentile", config.params.percentile);
  w.field("ucb_c", config.params.ucb_c);
  w.field("ucb_window", static_cast<std::int64_t>(config.params.ucb_window));
  w.field("rounds", static_cast<std::int64_t>(config.rounds));
  w.field("blocks_per_round",
          static_cast<std::int64_t>(config.blocks_per_round));
  w.field("churn_rate", config.scenario.churn.rate);
  w.field("churn_start_round",
          static_cast<std::int64_t>(config.scenario.churn.start_round));
  w.field("churn_downtime_rounds",
          static_cast<std::int64_t>(config.scenario.churn.downtime_rounds));
  const scenario::TransmissionRegime& tx = config.scenario.transmission;
  w.field("transmission", scenario::transmission_model_name(tx.model));
  w.field("tx_block_kb", tx.block_kb);
  w.field("tx_control_kb", tx.control_kb);
  w.field("tx_compact_blocks", tx.compact_blocks);
  w.field("tx_rate_scale", tx.rate_scale);
  w.field("tx_burst_kb", tx.burst_kb);
  w.field("partial_view", config.partial_view);
  w.field("addrman_capacity",
          static_cast<std::int64_t>(config.addrman_capacity));
  w.field("addrman_bootstrap",
          static_cast<std::int64_t>(config.addrman_bootstrap));
  w.field("message_level", config.message_level);
  w.field("coverage", config.coverage);
  w.field("checkpoints", static_cast<std::int64_t>(config.checkpoints));
}

// The exact options build_scenario hands to Network::build: seed stamped,
// scenario adjustments applied.
net::NetworkOptions adjusted_net_options(const core::ExperimentConfig& config) {
  net::NetworkOptions options = config.net;
  options.seed = config.seed;
  scenario::adjust_network_options(options, config.scenario);
  return options;
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value, 16);
  (void)ec;  // 16 bytes always fit a 64-bit hex value
  return std::string(buf, ptr);
}

// -------------------------------------------------------------- slot codec

// λ of an unreachable node is +inf; JSON numbers cannot carry non-finite
// values (the curve writer maps them to null for plotting, which does not
// round-trip). Checkpoints must restore the exact doubles the job computed,
// so non-finite entries are spelled as strings.
void write_lambda_array(JsonWriter& w, std::string_view key,
                        const std::vector<double>& values) {
  w.key(key);
  w.begin_array();
  for (const double v : values) {
    if (std::isfinite(v)) {
      w.value(v);
    } else if (std::isnan(v)) {
      w.value("nan");
    } else {
      w.value(v > 0 ? "inf" : "-inf");
    }
  }
  w.end_array();
}

std::vector<double> read_lambda_array(const JsonValue* value,
                                      const std::string& what) {
  if (value == nullptr || value->kind != JsonValue::Kind::Array) {
    throw std::runtime_error(what + ": missing λ array");
  }
  std::vector<double> out;
  out.reserve(value->items.size());
  for (const JsonValue& item : value->items) {
    if (item.kind == JsonValue::Kind::Number) {
      out.push_back(item.number);
    } else if (item.kind == JsonValue::Kind::String) {
      if (item.string == "inf") {
        out.push_back(std::numeric_limits<double>::infinity());
      } else if (item.string == "-inf") {
        out.push_back(-std::numeric_limits<double>::infinity());
      } else if (item.string == "nan") {
        out.push_back(std::numeric_limits<double>::quiet_NaN());
      } else {
        throw std::runtime_error(what + ": bad λ entry '" + item.string + "'");
      }
    } else {
      throw std::runtime_error(what + ": bad λ entry kind");
    }
  }
  return out;
}

void write_slot_body(JsonWriter& w, const SlotCurves& slot) {
  w.field("cell", static_cast<std::int64_t>(slot.cell));
  w.field("seed", static_cast<std::int64_t>(slot.seed));
  write_lambda_array(w, "lambda", slot.lambda);
  write_lambda_array(w, "lambda50", slot.lambda50);
}

std::size_t read_index(const JsonValue* value, const std::string& what) {
  if (value == nullptr || value->kind != JsonValue::Kind::Number ||
      value->number < 0 ||
      value->number != std::floor(value->number)) {
    throw std::runtime_error(what + ": bad index");
  }
  return static_cast<std::size_t>(value->number);
}

SlotCurves read_slot_body(const JsonValue& doc, const std::string& what) {
  SlotCurves slot;
  slot.cell = read_index(doc.find("cell"), what);
  slot.seed = read_index(doc.find("seed"), what);
  slot.lambda = read_lambda_array(doc.find("lambda"), what);
  slot.lambda50 = read_lambda_array(doc.find("lambda50"), what);
  return slot;
}

std::string slot_filename(std::size_t cell, std::size_t seed) {
  return "cell" + std::to_string(cell) + "_seed" + std::to_string(seed) +
         ".json";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

void check_fingerprint(const JsonValue& doc, const std::string& expected,
                       const std::string& what) {
  const JsonValue* fp = doc.find("fingerprint");
  if (fp == nullptr || fp->kind != JsonValue::Kind::String) {
    throw std::runtime_error(what + ": not a sweep checkpoint/shard file");
  }
  if (fp->string != expected) {
    throw std::runtime_error(
        what + ": grid fingerprint " + fp->string +
        " does not match this sweep's " + expected +
        " — it was produced by a different spec (axes, base config, seeds "
        "or seed base changed) and cannot be folded in");
  }
}

}  // namespace

std::string grid_fingerprint(const SweepSpec& spec) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_object();
  w.field("sig_version", static_cast<std::int64_t>(1));
  w.field("seeds", static_cast<std::int64_t>(spec.seeds));
  w.key("base");
  w.begin_object();
  // The fingerprint hashes the *raw* base (plus every axis) rather than the
  // expanded cells: cells are a pure function of exactly these inputs.
  net::NetworkOptions base_net = spec.base.net;
  base_net.seed = spec.base.seed;
  write_build_fields(w, spec.base, base_net);
  write_policy_fields(w, spec.base);
  w.end_object();
  w.key("axes");
  w.begin_object();
  for (const SweepAxis& axis : sweep_axes()) {
    if (!axis.written(spec)) continue;
    w.key(axis.fingerprint_key);
    axis.write_values(w, spec);
  }
  w.end_object();
  w.end_object();
  return hex64(fnv1a(os.str()));
}

std::string scenario_signature(const core::ExperimentConfig& config) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_object();
  // The adjusted options are what Network::build actually consumes, so two
  // configs whose raw options differ only in ways the adjustment cancels
  // (e.g. transmission=queue suppressing the hetero block-size patch when
  // no bandwidth tiers exist) still share a build.
  write_build_fields(w, config, adjusted_net_options(config));
  w.end_object();
  return os.str();
}

CheckpointStore::CheckpointStore(std::string dir, std::string fingerprint)
    : dir_(std::move(dir)), fingerprint_(std::move(fingerprint)) {}

void CheckpointStore::prepare() const {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_)) {
    throw std::runtime_error("cannot create checkpoint directory " + dir_);
  }
}

bool CheckpointStore::save(const SlotCurves& slot) const {
  const std::string path =
      (fs::path(dir_) / slot_filename(slot.cell, slot.seed)).string();
  return write_file_atomic(path, [&](std::ostream& os) {
    JsonWriter w(os, 0);
    w.begin_object();
    w.field("fingerprint", fingerprint_);
    write_slot_body(w, slot);
    w.end_object();
    os << '\n';
  });
}

std::vector<SlotCurves> CheckpointStore::load_all() const {
  std::vector<SlotCurves> slots;
  std::error_code ec;
  fs::directory_iterator it(dir_, ec);
  if (ec) return slots;  // no directory yet: nothing to resume
  for (const auto& entry : it) {
    if (!entry.is_regular_file() || entry.path().extension() != ".json") {
      continue;  // .tmp staging leftovers and foreign files
    }
    const std::string path = entry.path().string();
    // write_file_atomic guarantees any present .json is complete, so a
    // parse failure means foreign or corrupted data — refuse, don't guess.
    const JsonValue doc = JsonValue::parse(read_file(path));
    check_fingerprint(doc, fingerprint_, path);
    slots.push_back(read_slot_body(doc, path));
  }
  return slots;
}

void CheckpointStore::remove_all() const {
  std::error_code ec;
  fs::directory_iterator it(dir_, ec);
  if (ec) return;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    const bool ours = name.rfind("cell", 0) == 0 &&
                      name.find("_seed") != std::string::npos &&
                      (entry.path().extension() == ".json" ||
                       entry.path().extension() == ".tmp");
    if (ours) fs::remove(entry.path(), ec);
  }
  fs::remove(dir_, ec);  // only succeeds when empty; foreign files keep it
}

bool write_shard_file(const std::string& path, const std::string& fingerprint,
                      const ShardFile& shard) {
  return write_file_atomic(path, [&](std::ostream& os) {
    JsonWriter w(os, 0);
    w.begin_object();
    w.field("fingerprint", fingerprint);
    w.field("shard", static_cast<std::int64_t>(shard.shard_index));
    w.field("of", static_cast<std::int64_t>(shard.shard_count));
    w.key("slots");
    w.begin_array();
    for (const SlotCurves& slot : shard.slots) {
      w.begin_object();
      write_slot_body(w, slot);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    os << '\n';
  });
}

ShardFile read_shard_file(const std::string& path,
                          const std::string& fingerprint) {
  const JsonValue doc = JsonValue::parse(read_file(path));
  check_fingerprint(doc, fingerprint, path);
  ShardFile shard;
  shard.shard_index = static_cast<int>(read_index(doc.find("shard"), path));
  shard.shard_count = static_cast<int>(read_index(doc.find("of"), path));
  const JsonValue* slots = doc.find("slots");
  if (slots == nullptr || slots->kind != JsonValue::Kind::Array) {
    throw std::runtime_error(path + ": missing slots array");
  }
  shard.slots.reserve(slots->items.size());
  for (const JsonValue& item : slots->items) {
    shard.slots.push_back(read_slot_body(item, path));
  }
  return shard;
}

}  // namespace perigee::runner

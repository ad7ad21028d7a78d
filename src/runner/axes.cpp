#include "runner/axes.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <utility>

namespace perigee::runner {
namespace {

using Config = core::ExperimentConfig;

// How one axis spells its values: label text, JSON form, and the CSV item
// parser (nullopt = a misspelled item, reported together with `want`). The
// domain of a value is its flag's rule in the validity table, not the
// codec's.
template <typename T>
struct Codec {
  std::function<std::string(T)> text;
  std::function<void(JsonWriter&, T)> write;
  std::function<std::optional<T>(const std::string&)> parse;
  std::string want;
};

// An enumeration with a name()/from_name() pair.
template <typename T>
Codec<T> named(std::string_view (*name)(T),
               std::optional<T> (*from_name)(std::string_view),
               std::string want) {
  return {[name](T v) { return std::string(name(v)); },
          [name](JsonWriter& w, T v) { w.value(name(v)); },
          [from_name](const std::string& item) { return from_name(item); },
          std::move(want)};
}

// A two-valued axis spelled `off` / `on`. The JSON carries the spelling, or
// the bool itself where `json_bool` (relay, whose JSON predates the table).
Codec<bool> choice(std::string off, std::string on, bool json_bool) {
  const std::string want = off + ", " + on;
  return {[off, on](bool v) { return v ? on : off; },
          [off, on, json_bool](JsonWriter& w, bool v) {
            if (json_bool) {
              w.value(v);
            } else {
              w.value(v ? on : off);
            }
          },
          [off, on](const std::string& item) -> std::optional<bool> {
            if (item == on) return true;
            if (item == off) return false;
            return std::nullopt;
          },
          want};
}

Codec<double> real() {
  return {[](double v) { return format_double(v); },
          [](JsonWriter& w, double v) { w.value(v); }, parse_number,
          "a number"};
}

// An integer that narrows to T: at least T's lowest value and below its
// maximum + 1 (exact in double for int and std::size_t).
template <typename T>
Codec<T> integer() {
  using Limits = std::numeric_limits<T>;
  const std::string bound = "2^" + std::to_string(Limits::digits);
  return {[](T v) { return std::to_string(v); },
          [](JsonWriter& w, T v) { w.value(static_cast<std::int64_t>(v)); },
          [](const std::string& item) -> std::optional<T> {
            const auto v = parse_number(item);
            if (!v || *v != std::floor(*v) ||
                !(*v >= static_cast<double>(Limits::lowest()) &&
                  *v < static_cast<double>(Limits::max()) + 1.0)) {
              return std::nullopt;
            }
            return static_cast<T>(*v);
          },
          Limits::is_signed ? "an integer in [-" + bound + ", " + bound + ")"
                            : "an integer in [0, " + bound + ")"};
}

// Address-book capacity: "full" (no partial view) or a capacity.
using Capacity = std::optional<std::size_t>;

Codec<Capacity> address_book() {
  const Codec<std::size_t> capacity = integer<std::size_t>();
  return {[](Capacity k) { return k ? std::to_string(*k) : "full"; },
          [](JsonWriter& w, Capacity k) {
            if (k) {
              w.value(static_cast<std::int64_t>(*k));
            } else {
              w.value("full");
            }
          },
          [capacity](const std::string& item) -> std::optional<Capacity> {
            if (item == "full") return Capacity{};
            const auto k = capacity.parse(item);
            if (!k) return std::nullopt;
            return Capacity{*k};
          },
          "full or " + capacity.want};
}

// Fills the row's behaviour from its SweepSpec field, the config accessors
// and the value codec; `names` carries the flag, help, keys and visibility.
template <typename T, typename Get, typename Set>
SweepAxis row(SweepAxis names, std::vector<T> SweepSpec::*values, Get get,
              Set set, Codec<T> codec) {
  SweepAxis axis = std::move(names);
  axis.size = [values](const SweepSpec& spec) { return (spec.*values).size(); };
  axis.apply = [values, set](const SweepSpec& spec, std::size_t i,
                             Config& config) {
    set(config, T((spec.*values)[i]));
  };
  axis.value_text = [values, text = codec.text](const SweepSpec& spec,
                                                std::size_t i) {
    return text((spec.*values)[i]);
  };
  axis.write_values = [values, write = codec.write](JsonWriter& w,
                                                    const SweepSpec& spec) {
    w.begin_array();
    for (const T v : spec.*values) write(w, v);
    w.end_array();
  };
  axis.write_cell = [get, write = codec.write](JsonWriter& w,
                                               const Config& config) {
    write(w, get(config));
  };
  axis.parse = [values, set, flag = "--" + std::string(axis.flag), codec](
                   SweepSpec& spec, const std::string& csv) -> std::string {
    const std::vector<std::string> items = split_csv(csv);
    if (items.empty()) return "bad " + flag + " value '" + csv + "'";
    std::vector<T> parsed;
    for (const std::string& item : items) {
      std::optional<T> value = codec.parse(item);
      if (!value) {
        return "bad " + flag + " value '" + item + "' (want " + codec.want +
               ")";
      }
      Config trial = spec.base;
      set(trial, *value);
      if (std::string error = core::config_error(trial, flag);
          !error.empty()) {
        return error;
      }
      parsed.push_back(std::move(*value));
    }
    spec.*values = std::move(parsed);
    return {};
  };
  return axis;
}

// Block size of the bandwidth-spread regime: 1 MB blocks make the
// transmission term dominate low-bandwidth links.
constexpr double kSpreadBlockKb = 1000.0;

// Partial-view bootstrap: half the book plus one, capped at the paper
// default of 30 addresses.
constexpr std::size_t kMaxBootstrap = 30;

std::vector<SweepAxis> make_axes() {
  using core::Algorithm;
  std::string algorithms;
  for (const Algorithm a : core::all_algorithms()) {
    if (!algorithms.empty()) algorithms += ", ";
    algorithms += core::algorithm_name(a);
  }
  return {
      row({.flag = "algorithms", .help = "CSV algorithm axis, e.g. "
           "random,perigee-subset,ideal", .label = "algorithm",
           .fingerprint_key = "algorithms", .json_key = "algorithm"},
          &SweepSpec::algorithms, [](const Config& c) { return c.algorithm; },
          [](Config& c, Algorithm v) { c.algorithm = v; },
          named(core::algorithm_name, core::algorithm_from_name, algorithms)),
      row({.flag = "nodes", .help = "CSV network-size axis", .label = "n",
           .fingerprint_key = "nodes", .json_key = "nodes"},
          &SweepSpec::nodes, [](const Config& c) { return c.net.n; },
          [](Config& c, std::size_t v) { c.net.n = v; },
          integer<std::size_t>()),
      row({.flag = "rounds", .help = "CSV learning-round axis",
           .label = "rounds", .fingerprint_key = "rounds",
           .json_key = "rounds"},
          &SweepSpec::rounds, [](const Config& c) { return c.rounds; },
          [](Config& c, int v) { c.rounds = v; },
          integer<int>()),
      row({.flag = "hash", .help = "CSV hash-model axis: "
           "uniform,exponential,pools", .label = "hash",
           .fingerprint_key = "hash_models", .json_key = "hash_model"},
          &SweepSpec::hash_models, [](const Config& c) { return c.hash_model; },
          [](Config& c, mining::HashPowerModel v) { c.hash_model = v; },
          named(mining::hash_model_name, mining::hash_model_from_name,
                "uniform, exponential, pools")),
      row({.flag = "vscales", .help = "CSV validation-scale axis",
           .label = "vscale", .fingerprint_key = "validation_scales",
           .json_key = "validation_scale"},
          &SweepSpec::validation_scales,
          [](const Config& c) { return c.net.validation_scale; },
          [](Config& c, double v) { c.net.validation_scale = v; },
          real()),
      row({.flag = "relay", .help = "CSV relay axis: on,off", .label = "relay",
           .fingerprint_key = "relay", .json_key = "relay"},
          &SweepSpec::relay, [](const Config& c) { return c.relay; },
          [](Config& c, bool v) { c.relay = v; },
          choice("off", "on", /*json_bool=*/true)),
      row({.flag = "churn", .help = "CSV per-round churn-rate axis, e.g. "
           "0,0.02", .label = "churn", .fingerprint_key = "churn_rates",
           .json_key = "churn"},
          &SweepSpec::churn_rates,
          [](const Config& c) { return c.scenario.churn.rate; },
          [](Config& c, double v) { c.scenario.churn.rate = v; },
          real()),
      row({.flag = "hetero", .help = "CSV heterogeneity axis: "
           "off,bandwidth,validation,datacenter", .label = "hetero",
           .fingerprint_key = "hetero_profiles", .json_key = "hetero"},
          &SweepSpec::hetero_profiles,
          [](const Config& c) { return c.scenario.hetero.profile; },
          [](Config& c, scenario::HeteroProfile v) {
            c.scenario.hetero.profile = v;
          },
          named(scenario::hetero_profile_name,
                scenario::hetero_profile_from_name,
                "off, bandwidth, validation, datacenter")),
      row({.flag = "withhold", .help = "CSV withholding-fraction axis, e.g. "
           "0,0.1,0.2", .label = "withhold",
           .fingerprint_key = "withhold_fractions", .json_key = "withhold"},
          &SweepSpec::withhold_fractions,
          [](const Config& c) {
            return c.scenario.adversary.withhold_fraction;
          },
          [](Config& c, double v) {
            c.scenario.adversary.withhold_fraction = v;
          },
          real()),
      row({.flag = "transmission", .help = "CSV transmission-model axis: "
           "delay (pure propagation) and/or queue (token-bucket egress "
           "engine)", .label = "transmission",
           .fingerprint_key = "transmission_models",
           .json_key = "transmission"},
          &SweepSpec::transmission_models,
          [](const Config& c) { return c.scenario.transmission.model; },
          [](Config& c, scenario::TransmissionModel v) {
            c.scenario.transmission.model = v;
          },
          named(scenario::transmission_model_name,
                scenario::transmission_model_from_name, "delay, queue")),
      row({.flag = "ucb-c", .help = "CSV UCB confidence-constant axis in ms, "
           "e.g. 30,300,3000", .label = "ucb_c", .fingerprint_key = "ucb_c",
           .json_key = "ucb_c", .swept_only = true},
          &SweepSpec::ucb_cs, [](const Config& c) { return c.params.ucb_c; },
          [](Config& c, double v) { c.params.ucb_c = v; },
          real()),
      row({.flag = "explore", .help = "CSV exploration-slot axis ev; keep = "
           "dout - ev", .label = "explore", .fingerprint_key = "explore",
           .json_key = "explore", .swept_only = true},
          &SweepSpec::explore_slots,
          [](const Config& c) { return c.limits.out_cap - c.params.keep; },
          [](Config& c, int v) {
            // 64-bit, so an item near INT_MIN wraps to a refused keep < 0.
            c.params.keep =
                static_cast<int>(std::int64_t{c.limits.out_cap} - v);
          },
          integer<int>()),
      row({.flag = "blocks", .help = "CSV blocks-per-round axis |B| at a "
           "fixed block budget (rounds x |B| is kept)", .label = "blocks",
           .fingerprint_key = "blocks_per_round",
           .json_key = "blocks_per_round", .swept_only = true},
          &SweepSpec::blocks_per_round,
          [](const Config& c) { return c.blocks_per_round; },
          [](Config& c, int v) {
            // 64-bit budget; expand_grid has already refused one past
            // INT_MAX or one v does not divide (check_block_budget). A
            // v < 1 is left for the validity table to refuse.
            const std::int64_t rounds = c.rounds;
            if (v >= 1) {
              c.rounds = static_cast<int>(rounds * c.blocks_per_round / v);
            }
            c.blocks_per_round = v;
          },
          integer<int>()),
      row({.flag = "learning", .help = "CSV learning-observation axis: fast "
           "(engine deliveries) and/or gossip (message-level INV "
           "timestamps)", .label = "learning", .fingerprint_key = "learning",
           .json_key = "learning", .swept_only = true},
          &SweepSpec::gossip_learning,
          [](const Config& c) { return c.message_level; },
          [](Config& c, bool v) { c.message_level = v; },
          choice("fast", "gossip", /*json_bool=*/false)),
      row({.flag = "addrman", .help = "CSV address-book axis: full (every "
           "node knows all peers) and/or capacities of a gossiped partial "
           "view", .label = "addrman", .fingerprint_key = "addrman",
           .json_key = "addrman", .swept_only = true},
          &SweepSpec::addrman_capacities,
          [](const Config& c) {
            return c.partial_view ? Capacity{c.addrman_capacity} : Capacity{};
          },
          [](Config& c, Capacity k) {
            c.partial_view = k.has_value();
            if (!k) return;
            c.addrman_capacity = *k;
            c.addrman_bootstrap = std::min(*k / 2 + 1, kMaxBootstrap);
          },
          address_book()),
      row({.flag = "bandwidth", .help = "CSV bandwidth axis: uniform and/or "
           "spread (1 MB blocks, per-node bandwidth log-uniform in 3-186 "
           "Mbit/s)", .label = "bandwidth", .fingerprint_key = "bandwidth",
           .json_key = "bandwidth", .swept_only = true},
          &SweepSpec::bandwidth_spread,
          [](const Config& c) { return c.net.heterogeneous_bandwidth; },
          [](Config& c, bool v) {
            c.net.heterogeneous_bandwidth = v;
            c.net.block_size_kb = v ? kSpreadBlockKb : 0.0;
          },
          choice("uniform", "spread", /*json_bool=*/false)),
  };
}

}  // namespace

const std::vector<SweepAxis>& sweep_axes() {
  static const std::vector<SweepAxis> axes = make_axes();
  return axes;
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::optional<double> parse_number(const std::string& text) {
  // stod throws on garbage; a CLI wants a clean error.
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    if (used != text.size()) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace perigee::runner

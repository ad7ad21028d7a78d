// The sweep axes of a SweepSpec (runner/sweep.hpp) as one table.
//
// Each row holds everything that names or handles one axis: the
// perigee_sweep flag and its help, the CSV item parser, how a value lands
// in a cell's ExperimentConfig, the cell-label prefix, the grid-fingerprint
// key and the cell-JSON key. expand_grid, grid_fingerprint, write_json and
// perigee_sweep iterate the table and hold no per-axis code, so adding an
// axis is one SweepSpec field plus one row.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runner/json.hpp"
#include "runner/sweep.hpp"

namespace perigee::runner {

struct SweepAxis {
  std::string_view flag;             // perigee_sweep --<flag> <csv>
  std::string_view help;
  std::string_view label;            // cell label fragment "<label>=<value>"
  std::string_view fingerprint_key;  // member of the fingerprint's "axes"
  std::string_view json_key;         // member of every cell in write_json
  // The ten axes that predate the table always write their fingerprint
  // array (empty when not swept) and their cell-JSON member. Later rows
  // write both only when swept, so grids that leave them alone keep their
  // fingerprints and JSON bytes.
  bool swept_only = false;

  // Number of swept values; 0 means "not swept" (cells keep the base value
  // and the axis stays out of their labels).
  std::function<std::size_t(const SweepSpec&)> size{};
  // Stamps swept value i into a cell config. Runs in table order, so a row
  // may derive fields from the ones earlier rows set (--blocks reads the
  // cell's rounds).
  std::function<void(const SweepSpec&, std::size_t i, core::ExperimentConfig&)>
      apply{};
  // Label spelling of swept value i (the part after "<label>=").
  std::function<std::string(const SweepSpec&, std::size_t i)> value_text{};
  // The swept values as one JSON array (the fingerprint entry).
  std::function<void(JsonWriter&, const SweepSpec&)> write_values{};
  // A cell config's value of this axis (the cell-JSON entry).
  std::function<void(JsonWriter&, const core::ExperimentConfig&)> write_cell{};
  // Replaces the swept values with the items of a CSV flag value, each
  // stamped into spec.base and checked against its flag's rules in the
  // validity table (core::config_error). Returns an error message, empty on
  // success; a CSV with no items is an error, not a silent run of the base
  // value.
  std::function<std::string(SweepSpec&, const std::string& csv)> parse{};

  // Whether the fingerprint and the cell JSON carry this axis for `spec`.
  bool written(const SweepSpec& spec) const {
    return !swept_only || size(spec) > 0;
  }
};

// Table order is the expansion nesting order (outermost first), the label
// order, the fingerprint order and the cell-JSON order.
const std::vector<SweepAxis>& sweep_axes();

// Splits a CSV flag value, dropping empty items.
std::vector<std::string> split_csv(const std::string& text);

// The whole of `text` as a number; nullopt on garbage or trailing text.
std::optional<double> parse_number(const std::string& text);

}  // namespace perigee::runner

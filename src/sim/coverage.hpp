/// \file
/// \brief The λ metric's settle observer (§2.2): hash power accumulated in
/// settle order, each coverage threshold recorded as it is crossed.
///
/// λv is the earliest arrival at which the nodes holding v's block carry a
/// target share of the hash power. Every relaxation in this repo — the
/// delay solver's bucket and heap walks, the egress solver's event loop,
/// the ideal bound's dense Dijkstra — settles nodes in ascending arrival
/// order, so λ needs no sort of the arrival stripe: a `CoverageObserver`
/// sees each settle in pop order, adds the settled node's power, and the
/// relaxation stops as soon as the highest requested coverage is reached.
///
/// Bit-equality with the sorted (arrival, power) scan of
/// `metrics::lambda_for_broadcast`: nodes that arrive at exactly the same
/// time form a group, and a group is added only once a later arrival (or
/// the end of the relaxation) closes it, in ascending power order — the
/// order the sorted scan adds them in. Floating-point sums therefore see
/// the same operands in the same order, and each threshold test is the
/// same `acc >= coverage * total - 1e-12` comparison.
#pragma once

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <span>
#include <vector>

#include "net/network.hpp"
#include "net/types.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace perigee::sim {

/// λ per requested coverage, in input order, each with one slot per batch
/// entry: `times[k][s]` is source `s`'s λ at coverage `k`.
using CoverageTimes = std::vector<std::vector<double>>;

/// Batch constants of a λ pass: every node's hash power and the requested
/// coverage thresholds, ascending.
class CoverageTargets {
 public:
  /// Thresholds for `coverages` (each in (0, 1], any order) over
  /// `network`'s hash powers. The total is accumulated in NodeId order, as
  /// `metrics::lambda_for_broadcast` does.
  CoverageTargets(const net::Network& network,
                  std::span<const double> coverages) {
    PERIGEE_ASSERT(!coverages.empty());
    const std::size_t n = network.size();
    powers_.resize(n);
    double total = 0;
    for (net::NodeId v = 0; v < n; ++v) {
      powers_[v] = network.profile(v).hash_power;
      total += powers_[v];
    }
    order_.resize(coverages.size());
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
      return coverages[a] < coverages[b];
    });
    need_.reserve(coverages.size());
    for (const std::size_t k : order_) {
      PERIGEE_ASSERT(coverages[k] > 0.0 && coverages[k] <= 1.0);
      // Tolerate fp round-off in normalized hash powers.
      need_.push_back(coverages[k] * total - 1e-12);
    }
  }

  /// Number of requested coverages.
  std::size_t size() const { return need_.size(); }
  /// Hash power of node `v`.
  double power(net::NodeId v) const { return powers_[v]; }
  /// Accumulated power that meets the `i`-th smallest coverage.
  double need(std::size_t i) const { return need_[i]; }
  /// Input index of the `i`-th smallest coverage.
  std::size_t order(std::size_t i) const { return order_[i]; }

 private:
  std::vector<double> powers_;
  std::vector<double> need_;
  std::vector<std::size_t> order_;
};

/// One source's coverage accumulation into slot `slot` of every vector of
/// `times` (each already sized). Construct per source; report every settle
/// through `settle` in nondecreasing arrival order, stop relaxing when it
/// returns true, and call `finish` once either way — after it, every
/// coverage's slot is written. `group` is reusable storage for the open
/// equal-arrival group (a lane buffer).
class CoverageObserver {
 public:
  CoverageObserver(const CoverageTargets& targets, std::vector<double>& group,
                   CoverageTimes& times, std::size_t slot)
      : targets_(targets), group_(group), times_(times), slot_(slot) {
    group_.clear();
  }

  /// Node `v` settled at `arrival`. Returns true once the highest coverage
  /// is reached; the rest of the relaxation cannot change any λ.
  bool settle(net::NodeId v, double arrival) {
    if (arrival != time_) {
      if (close_group()) return true;
      time_ = arrival;
    }
    group_.push_back(targets_.power(v));
    return false;
  }

  /// Closes the last group; coverages it does not reach are +inf.
  void finish() {
    if (next_ < targets_.size() && !close_group()) {
      for (std::size_t i = next_; i < targets_.size(); ++i) {
        times_[targets_.order(i)][slot_] = util::kInf;
      }
    }
  }

 private:
  // Adds the open group at time_ in ascending power order, recording every
  // threshold crossed; true once all are.
  bool close_group() {
    if (group_.size() > 1) std::sort(group_.begin(), group_.end());
    for (const double power : group_) {
      acc_ += power;
      while (acc_ >= targets_.need(next_)) {
        times_[targets_.order(next_)][slot_] = time_;
        if (++next_ == targets_.size()) return true;
      }
    }
    group_.clear();
    return false;
  }

  const CoverageTargets& targets_;
  std::vector<double>& group_;
  CoverageTimes& times_;
  std::size_t slot_;
  double time_ = 0.0;   // arrival of the open group
  double acc_ = 0.0;    // power of every closed group
  std::size_t next_ = 0;  // smallest coverage not yet reached
};

/// The observer the round shape runs with: settles go unreported and the
/// relaxation always drains, at no cost once inlined.
struct NoSettleObserver {
  bool settle(net::NodeId, double) const { return false; }
};

}  // namespace perigee::sim

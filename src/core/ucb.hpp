// UCBScoring (paper §4.2.2): per-neighbor delay estimates with confidence
// bounds accumulated over the rounds a neighbor has stayed connected
// (Eq. 3-4). A neighbor is disconnected only when its lower confidence bound
// exceeds some neighbor's upper bound — i.e. when it is statistically
// distinguishable as worse — which prevents evicting a good neighbor on a
// noisy single-block round. Designed for |B| = 1 rounds.
//
// Implementation note: the paper's multiset union over a neighbor's entire
// connection lifetime grows without bound, making the per-round percentile
// O(history · log history) and the whole run quadratic. We keep a sliding
// window of the most recent `ucb_window` (W) samples: a ring of W slots in
// arrival order that grows to W and then overwrites its oldest slot. Beyond
// a few hundred samples the confidence interval is already narrow, and a
// bounded window also adapts faster when the network drifts.
//
// The estimator reads only two order statistics of the n windowed samples,
// ranks lo = ⌊q(n−1)⌋ and lo+1, so the window is split. `top` holds the
// T = n − lo largest samples sorted descending (its last entry is rank lo,
// the one before it rank lo+1); `low` holds the other samples unsorted.
// Invariant: every `top` sample is >= every `low` sample. Each ring slot
// records where its sample sits, so evicting it needs no search. Once the
// window is full, an add replaces the oldest sample:
//   - evicted and new sample both low: one overwrite in place, O(1);
//   - the new sample lands in `top`: a sift of the hole inside `top`
//     (and, if the evicted one was low, the minimum of `top` moves down
//     into the freed `low` position);
//   - a `top` sample is evicted and the new one lands low: the maximum of
//     `low`, found by a linear scan, refills `top`.
// With q = 0.9 and W = 256, T is 27. For samples in random order about q²
// of adds are the in-place overwrite and about q(1−q) need the scan; a
// fully sorted copy paid two binary searches and a shift of ~W/3 doubles on
// every add. While the window fills, T = n − lo(n) grows with n and the
// boundary moves by one sample at a time (up by the same scan). The
// multiset is the same as a sorted copy's, so the bounds are the same
// doubles. The half-width depends only on n and is recomputed only when n
// changes, i.e. while the window fills.
#pragma once

#include <cstdint>
#include <vector>

#include "core/params.hpp"
#include "sim/selector.hpp"

namespace perigee::core {

// The sample window of one UCB arm, split as the implementation note above
// describes. UcbSelector keeps one per outgoing neighbor.
class UcbWindow {
 public:
  // Adds a sample to a window of at most `capacity` samples, evicting the
  // oldest once full, split for the q-percentile. `capacity` and `q` must
  // stay the same from one clear() to the next.
  void add(double value, std::size_t capacity, double q);
  // Empties the window, keeping its storage.
  void clear();
  std::size_t size() const { return count_; }
  // util::percentile_sorted of the windowed samples at the q the window is
  // split for; +inf when empty.
  double percentile(double q) const;

 private:
  static constexpr std::uint32_t kTop = std::uint32_t{1} << 31;

  // Fill phase: adds a sample in a fresh slot, then moves the boundary
  // until `top_` holds T = n − lo(n) samples.
  void grow(double value, double q);
  // Removes top_[at] and inserts `value` from `slot`, sifting the hole to
  // the value's sorted position.
  void top_replace(std::size_t at, double value, std::uint32_t slot);
  void set_low(std::size_t at, double value, std::uint32_t slot);
  std::size_t low_argmax() const;

  std::size_t count_ = 0;   // samples held; grows to the capacity
  std::size_t oldest_ = 0;  // ring slot the next eviction overwrites
  // Per ring slot: its sample's index in `low_`, or kTop | its index in
  // `top_`.
  std::vector<std::uint32_t> place_;
  std::vector<double> top_;              // the T largest samples, descending
  std::vector<std::uint32_t> top_slot_;  // ring slot of each top entry
  std::vector<double> low_;              // the other samples, unsorted
  std::vector<std::uint32_t> low_slot_;  // ring slot of each low entry
};

class UcbSelector final : public sim::NeighborSelector {
 public:
  explicit UcbSelector(PerigeeParams params = {}) : params_(params) {}

  void on_round_end(net::NodeId self, sim::RoundContext& ctx) override;
  // A rejoining node is a fresh participant: all confidence-bound history
  // refers to connections its predecessor held, so drop every arm.
  void on_reset(net::NodeId self) override;
  const char* name() const override { return "perigee-ucb"; }

  struct Bounds {
    double estimate;  // 90th percentile of windowed samples
    double lcb;
    double ucb;
    std::size_t samples;
  };

  // Current bounds for an outgoing neighbor (for tests/inspection); returns
  // zero-sample bounds if the neighbor is unknown.
  Bounds bounds_for(net::NodeId neighbor) const;

 private:
  // The most recent finite relative delivery times of one connected
  // neighbor.
  struct Arm {
    net::NodeId neighbor = 0;
    UcbWindow window;
    double half_width = 0;  // c·sqrt(ln n / 2n) at n = window.size()
  };

  // arms_[0, live_) are the current outgoing neighbors' arms, in the
  // adjacency order of the last round, looked up by linear search (at most
  // out_cap). arms_[live_, size) are spare storage from arms dropped by a
  // disconnect or on_reset, reused before any new arm is allocated.
  std::vector<Arm> arms_;
  std::size_t live_ = 0;
  PerigeeParams params_;

  Bounds compute_bounds(const Arm& arm) const;
};

}  // namespace perigee::core

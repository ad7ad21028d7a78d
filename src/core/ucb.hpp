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
// window of the most recent `ucb_window` (W) samples: a ring buffer in
// arrival order that grows to W and then overwrites its oldest slot, plus a
// sorted copy for O(1) percentiles. Once the window is full, an insert finds
// the evicted and the new sample's positions by binary search and shifts
// only the span between them by one slot: O(log W) compares and one move of
// up to W doubles, no allocation. Beyond a few hundred samples the
// confidence interval is already narrow, and a bounded window also adapts
// faster when the network drifts.
#pragma once

#include <vector>

#include "core/params.hpp"
#include "sim/selector.hpp"

namespace perigee::core {

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
  // Sliding window of the most recent finite relative delivery times of one
  // connected neighbor, kept both in arrival order (for eviction) and sorted
  // (for O(1) percentiles).
  struct Arm {
    net::NodeId neighbor = 0;
    std::vector<double> ring;    // arrival order; wraps once it holds W
    std::size_t oldest = 0;      // ring slot the next eviction overwrites
    std::vector<double> sorted;  // the ring's samples, ascending

    void add(double value, std::size_t window);
  };

  // One arm per current outgoing neighbor (at most out_cap), in the
  // adjacency order of the last round; looked up by linear search.
  std::vector<Arm> arms_;
  PerigeeParams params_;

  Bounds compute_bounds(const Arm& arm) const;
};

}  // namespace perigee::core

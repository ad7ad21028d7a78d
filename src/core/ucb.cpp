#include "core/ucb.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "topo/builders.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace perigee::core {

void UcbSelector::Arm::add(double value, std::size_t window) {
  PERIGEE_ASSERT(window > 0);
  if (ring.size() < window) {
    ring.push_back(value);
    sorted.insert(std::upper_bound(sorted.begin(), sorted.end(), value),
                  value);
    return;
  }
  const double evicted = std::exchange(ring[oldest], value);
  oldest = oldest + 1 == window ? 0 : oldest + 1;
  // Erasing the first sample equal to `evicted` and then inserting `value`
  // after its equals is one shift of the span between the two positions.
  const auto out = std::lower_bound(sorted.begin(), sorted.end(), evicted);
  PERIGEE_ASSERT(out != sorted.end());
  PERIGEE_ASSERT(*out == evicted);
  const auto in = std::upper_bound(sorted.begin(), sorted.end(), value);
  if (in > out) {
    *std::move(out + 1, in, out) = value;
  } else {
    std::move_backward(in, out, out + 1);
    *in = value;
  }
}

UcbSelector::Bounds UcbSelector::compute_bounds(const Arm& arm) const {
  Bounds b;
  b.samples = arm.sorted.size();
  if (arm.sorted.empty()) {
    // A neighbor with zero finite deliveries after a full round never
    // relayed anything: rank it worst with full confidence.
    b.estimate = util::kInf;
    b.lcb = util::kInf;
    b.ucb = util::kInf;
    return b;
  }
  b.estimate = util::percentile_sorted(arm.sorted, params_.percentile);
  const auto n = static_cast<double>(arm.sorted.size());
  const double half_width =
      params_.ucb_c * std::sqrt(std::log(std::max(n, 1.0)) / (2.0 * n));
  b.lcb = b.estimate - half_width;
  b.ucb = b.estimate + half_width;
  return b;
}

UcbSelector::Bounds UcbSelector::bounds_for(net::NodeId neighbor) const {
  const auto it = std::find_if(arms_.begin(), arms_.end(), [&](const Arm& arm) {
    return arm.neighbor == neighbor;
  });
  if (it == arms_.end()) return compute_bounds(Arm{});
  return compute_bounds(*it);
}

void UcbSelector::on_reset(net::NodeId) { arms_.clear(); }

void UcbSelector::on_round_end(net::NodeId self, sim::RoundContext& ctx) {
  const auto& obs = ctx.obs;
  const auto window = static_cast<std::size_t>(params_.ucb_window);

  // Line the arms up with the outgoing neighbors in adjacency order and fold
  // this round's finite relative timestamps into each one's window.
  std::size_t live = 0;
  for (std::size_t i = 0; i < obs.neighbor_count(self); ++i) {
    if (!obs.is_outgoing(self, i)) continue;
    const net::NodeId u = obs.neighbors(self)[i];
    auto it = std::find_if(arms_.begin() + static_cast<std::ptrdiff_t>(live),
                           arms_.end(),
                           [u](const Arm& arm) { return arm.neighbor == u; });
    if (it == arms_.end()) {
      arms_.emplace_back().neighbor = u;
      it = arms_.end() - 1;
    }
    std::iter_swap(it, arms_.begin() + static_cast<std::ptrdiff_t>(live));
    Arm& arm = arms_[live++];
    for (double t : obs.rel_times(self, i)) {
      if (std::isfinite(t)) arm.add(t, window);
    }
  }
  // Forget arms of neighbors no longer connected: if they are re-explored
  // later they start fresh, as the paper's per-connection history implies.
  arms_.erase(arms_.begin() + static_cast<std::ptrdiff_t>(live), arms_.end());
  if (arms_.size() < 2) return;

  // Disconnect rule: drop argmax lcb iff max lcb > min ucb.
  std::size_t worst = 0;
  double max_lcb = -util::kInf;
  double min_ucb = util::kInf;
  for (std::size_t k = 0; k < arms_.size(); ++k) {
    const Bounds b = compute_bounds(arms_[k]);
    // First strictly-greater lcb wins; arms are in adjacency order, so ties
    // resolve deterministically.
    if (b.lcb > max_lcb) {
      max_lcb = b.lcb;
      worst = k;
    }
    min_ucb = std::min(min_ucb, b.ucb);
  }
  if (max_lcb > min_ucb) {
    ctx.topology.disconnect(self, arms_[worst].neighbor);
    arms_.erase(arms_.begin() + static_cast<std::ptrdiff_t>(worst));
    if (ctx.addrman != nullptr) {
      topo::dial_peers_from_book(ctx.topology, self, 1, *ctx.addrman,
                                 ctx.rng);
    } else {
      topo::dial_random_peers(ctx.topology, self, 1, ctx.rng);
    }
  }
}

}  // namespace perigee::core

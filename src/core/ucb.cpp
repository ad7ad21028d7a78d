#include "core/ucb.hpp"

#include <algorithm>
#include <cmath>

#include "topo/builders.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace perigee::core {

void UcbWindow::clear() {
  count_ = 0;
  oldest_ = 0;
  place_.clear();
  top_.clear();
  top_slot_.clear();
  low_.clear();
  low_slot_.clear();
}

double UcbWindow::percentile(double q) const {
  if (count_ == 0) return util::kInf;
  // The last top entry is order statistic lo, the one before it lo + 1.
  const std::size_t t = top_.size();
  return util::percentile_from_ranks(top_[t - 1], top_[t > 1 ? t - 2 : 0],
                                     count_, q);
}

void UcbWindow::top_replace(std::size_t at, double value,
                            std::uint32_t slot) {
  auto move = [this](std::size_t from, std::size_t to) {
    top_[to] = top_[from];
    top_slot_[to] = top_slot_[from];
    place_[top_slot_[to]] = kTop | static_cast<std::uint32_t>(to);
  };
  std::size_t i = at;
  while (i > 0 && top_[i - 1] < value) {
    move(i - 1, i);
    --i;
  }
  while (i + 1 < top_.size() && top_[i + 1] > value) {
    move(i + 1, i);
    ++i;
  }
  top_[i] = value;
  top_slot_[i] = slot;
  place_[slot] = kTop | static_cast<std::uint32_t>(i);
}

void UcbWindow::set_low(std::size_t at, double value, std::uint32_t slot) {
  low_[at] = value;
  low_slot_[at] = slot;
  place_[slot] = static_cast<std::uint32_t>(at);
}

std::size_t UcbWindow::low_argmax() const {
  return static_cast<std::size_t>(
      std::max_element(low_.begin(), low_.end()) - low_.begin());
}

void UcbWindow::grow(double value, double q) {
  const auto slot = static_cast<std::uint32_t>(count_);
  place_.push_back(0);
  ++count_;
  // `top_` is never empty while `low_` holds samples, so a sample above the
  // top minimum is at least every low sample.
  if (top_.empty() || value > top_.back()) {
    top_.push_back(value);
    top_slot_.push_back(slot);
    top_replace(top_.size() - 1, value, slot);
  } else {
    low_.push_back(value);
    low_slot_.push_back(slot);
    place_[slot] = static_cast<std::uint32_t>(low_.size() - 1);
  }
  const std::size_t target = count_ - util::percentile_lower_rank(count_, q);
  while (top_.size() > target) {  // the top minimum moves down
    low_.push_back(top_.back());
    low_slot_.push_back(top_slot_.back());
    place_[top_slot_.back()] = static_cast<std::uint32_t>(low_.size() - 1);
    top_.pop_back();
    top_slot_.pop_back();
  }
  while (top_.size() < target) {  // the low maximum moves up
    const std::size_t m = low_argmax();
    const double up = low_[m];
    const std::uint32_t up_slot = low_slot_[m];
    set_low(m, low_.back(), low_slot_.back());
    low_.pop_back();
    low_slot_.pop_back();
    top_.push_back(up);
    top_slot_.push_back(up_slot);
    place_[up_slot] = kTop | static_cast<std::uint32_t>(top_.size() - 1);
  }
}

void UcbWindow::add(double value, std::size_t capacity, double q) {
  PERIGEE_ASSERT(capacity > 0 && capacity < kTop);
  if (count_ < capacity) {
    grow(value, q);
    return;
  }
  // Full: the new sample takes the oldest one's ring slot, and the sizes of
  // `top_` and `low_` stay as they are.
  const auto slot = static_cast<std::uint32_t>(oldest_);
  oldest_ = oldest_ + 1 == capacity ? 0 : oldest_ + 1;
  const std::uint32_t at = place_[slot];
  if ((at & kTop) == 0) {
    if (value > top_.back()) {
      // The top minimum drops into the freed low position.
      set_low(at, top_.back(), top_slot_.back());
      top_replace(top_.size() - 1, value, slot);
    } else {
      low_[at] = value;
    }
    return;
  }
  const std::size_t i = at & ~kTop;
  // The top minimum (the evicted sample itself, or a smaller one) is at
  // least every low sample, so a new sample not below it stays in `top_`;
  // otherwise it competes with the low maximum.
  if (value < top_.back() && !low_.empty()) {
    const std::size_t m = low_argmax();
    if (low_[m] > value) {
      const double up = low_[m];
      const std::uint32_t up_slot = low_slot_[m];
      set_low(m, value, slot);
      top_replace(i, up, up_slot);
      return;
    }
  }
  top_replace(i, value, slot);
}

UcbSelector::Bounds UcbSelector::compute_bounds(const Arm& arm) const {
  Bounds b;
  b.samples = arm.window.size();
  if (b.samples == 0) {
    // A neighbor with zero finite deliveries after a full round never
    // relayed anything: rank it worst with full confidence.
    b.estimate = util::kInf;
    b.lcb = util::kInf;
    b.ucb = util::kInf;
    return b;
  }
  b.estimate = arm.window.percentile(params_.percentile);
  b.lcb = b.estimate - arm.half_width;
  b.ucb = b.estimate + arm.half_width;
  return b;
}

UcbSelector::Bounds UcbSelector::bounds_for(net::NodeId neighbor) const {
  const auto live = arms_.begin() + static_cast<std::ptrdiff_t>(live_);
  const auto it = std::find_if(arms_.begin(), live, [&](const Arm& arm) {
    return arm.neighbor == neighbor;
  });
  if (it == live) return compute_bounds(Arm{});
  return compute_bounds(*it);
}

void UcbSelector::on_reset(net::NodeId) { live_ = 0; }

void UcbSelector::on_round_end(net::NodeId self, sim::RoundContext& ctx) {
  const auto& obs = ctx.obs;
  const auto window = static_cast<std::size_t>(params_.ucb_window);

  // Line the arms up with the outgoing neighbors in adjacency order and fold
  // this round's finite relative timestamps into each one's window.
  const auto peers = obs.out_peers(self);
  std::size_t matched = 0;
  for (std::size_t i = 0; i < peers.size(); ++i) {
    const net::NodeId u = peers[i];
    std::size_t k = matched;
    while (k < live_ && arms_[k].neighbor != u) ++k;
    if (k == live_) {
      // A new neighbor takes the first spare arm's storage.
      if (live_ == arms_.size()) arms_.emplace_back();
      arms_[live_].neighbor = u;
      arms_[live_++].window.clear();
    }
    if (k != matched) std::swap(arms_[k], arms_[matched]);
    Arm& arm = arms_[matched++];
    const std::size_t before = arm.window.size();
    for (double t : obs.rel_times(self, i)) {
      if (std::isfinite(t)) arm.window.add(t, window, params_.percentile);
    }
    // Eq. (3)-(4)'s half-width depends only on n, which stops changing
    // once the window is full.
    if (arm.window.size() != before) {
      const auto n = static_cast<double>(arm.window.size());
      const double spread = std::log(std::max(n, 1.0)) / (2.0 * n);
      arm.half_width = params_.ucb_c * std::sqrt(spread);
    }
  }
  // Arms of neighbors no longer connected become spare: if they are
  // re-explored later they start fresh, as the paper's per-connection
  // history implies.
  live_ = matched;
  if (live_ < 2) return;

  // Disconnect rule: drop argmax lcb iff max lcb > min ucb.
  std::size_t worst = 0;
  double max_lcb = -util::kInf;
  double min_ucb = util::kInf;
  for (std::size_t k = 0; k < live_; ++k) {
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
    // The dropped arm becomes the first spare; the others keep their order.
    std::rotate(arms_.begin() + static_cast<std::ptrdiff_t>(worst),
                arms_.begin() + static_cast<std::ptrdiff_t>(worst) + 1,
                arms_.begin() + static_cast<std::ptrdiff_t>(live_));
    --live_;
    if (ctx.addrman != nullptr) {
      topo::dial_peers_from_book(ctx.topology, self, 1, *ctx.addrman,
                                 ctx.rng);
    } else {
      topo::dial_random_peers(ctx.topology, self, 1, ctx.rng);
    }
  }
}

}  // namespace perigee::core

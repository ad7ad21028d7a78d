// Decision parity of the production scoring selectors against reference
// copies of their straightforward forms: Vanilla and Subset scoring by a
// copied-and-sorted percentile, and UCB keeping its windows in a deque plus
// a re-sorted vector and its arms in a std::map. Both sides run from the
// same seed over the same network, and every node's outgoing list must be
// identical after every round.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "core/perigee.hpp"
#include "core/rewire.hpp"
#include "obs/metrics.hpp"
#include "sim/rounds.hpp"
#include "topo/builders.hpp"
#include "util/stats.hpp"

namespace perigee::core {
namespace {

double sorted_copy_percentile(std::span<const double> sample, double q) {
  std::vector<double> copy(sample.begin(), sample.end());
  std::sort(copy.begin(), copy.end());
  return util::percentile_sorted(copy, q);
}

class RefVanilla final : public sim::NeighborSelector {
 public:
  explicit RefVanilla(PerigeeParams params) : params_(params) {}

  void on_round_end(net::NodeId self, sim::RoundContext& ctx) override {
    const auto& obs = ctx.obs;
    std::vector<std::pair<double, net::NodeId>> scored;
    for (std::size_t i = 0; i < obs.neighbor_count(self); ++i) {
      if (!obs.is_outgoing(self, i)) continue;
      const double score =
          sorted_copy_percentile(obs.rel_times(self, i), params_.percentile);
      scored.emplace_back(score, obs.neighbors(self)[i]);
    }
    if (scored.empty()) {
      retain_and_explore(ctx.topology, self, {}, ctx.rng, ctx.addrman);
      return;
    }
    std::sort(scored.begin(), scored.end());
    const auto keep_n = std::min<std::size_t>(
        static_cast<std::size_t>(params_.keep), scored.size());
    std::vector<net::NodeId> keep;
    for (std::size_t i = 0; i < keep_n; ++i) keep.push_back(scored[i].second);
    retain_and_explore(ctx.topology, self, keep, ctx.rng, ctx.addrman);
  }
  const char* name() const override { return "ref-vanilla"; }

 private:
  PerigeeParams params_;
};

// With `pruned` set, it also counts the candidates production Subset may
// skip without scoring: once an incumbent exists, those whose merged row's
// lower order statistic (rank floor(q·(blocks−1))) is already >= the
// incumbent's score.
class RefSubset final : public sim::NeighborSelector {
 public:
  explicit RefSubset(PerigeeParams params, std::uint64_t* pruned = nullptr)
      : params_(params), pruned_(pruned) {}

  void on_round_end(net::NodeId self, sim::RoundContext& ctx) override {
    const auto& obs = ctx.obs;
    const std::size_t blocks = obs.blocks_recorded();
    std::vector<net::NodeId> candidates;
    std::vector<std::span<const double>> rows;
    for (std::size_t i = 0; i < obs.neighbor_count(self); ++i) {
      if (!obs.is_outgoing(self, i)) continue;
      candidates.push_back(obs.neighbors(self)[i]);
      rows.push_back(obs.rel_times(self, i));
    }
    if (candidates.empty()) {
      retain_and_explore(ctx.topology, self, {}, ctx.rng, ctx.addrman);
      return;
    }
    const auto keep_n = std::min<std::size_t>(
        static_cast<std::size_t>(params_.keep), candidates.size());
    std::vector<double> best(blocks, util::kInf);
    std::vector<bool> taken(candidates.size(), false);
    std::vector<net::NodeId> keep;
    std::vector<double> merged(blocks);
    for (std::size_t step = 0; step < keep_n; ++step) {
      double best_score = util::kInf;
      std::size_t best_idx = candidates.size();
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        if (taken[c]) continue;
        for (std::size_t b = 0; b < blocks; ++b) {
          merged[b] = std::min(rows[c][b], best[b]);
        }
        const double score = sorted_copy_percentile(merged, params_.percentile);
        if (pruned_ != nullptr && blocks > 0 && best_idx != candidates.size()) {
          std::vector<double> sorted(merged);
          std::sort(sorted.begin(), sorted.end());
          const auto lo = static_cast<std::size_t>(
              params_.percentile * static_cast<double>(blocks - 1));
          *pruned_ += sorted[lo] >= best_score;
        }
        if (score < best_score ||
            (best_idx == candidates.size() && std::isinf(score))) {
          best_score = score;
          best_idx = c;
        }
      }
      taken[best_idx] = true;
      keep.push_back(candidates[best_idx]);
      for (std::size_t b = 0; b < blocks; ++b) {
        best[b] = std::min(best[b], rows[best_idx][b]);
      }
    }
    retain_and_explore(ctx.topology, self, keep, ctx.rng, ctx.addrman);
  }
  const char* name() const override { return "ref-subset"; }

 private:
  PerigeeParams params_;
  std::uint64_t* pruned_;
};

class RefUcb final : public sim::NeighborSelector {
 public:
  explicit RefUcb(PerigeeParams params) : params_(params) {}

  void on_reset(net::NodeId) override { arms_.clear(); }

  void on_round_end(net::NodeId self, sim::RoundContext& ctx) override {
    const auto& obs = ctx.obs;
    const auto window = static_cast<std::size_t>(params_.ucb_window);
    std::vector<net::NodeId> outgoing;
    for (std::size_t i = 0; i < obs.neighbor_count(self); ++i) {
      if (!obs.is_outgoing(self, i)) continue;
      const net::NodeId u = obs.neighbors(self)[i];
      outgoing.push_back(u);
      Arm& arm = arms_[u];
      for (double t : obs.rel_times(self, i)) {
        if (std::isfinite(t)) arm.add(t, window);
      }
    }
    for (auto it = arms_.begin(); it != arms_.end();) {
      if (std::find(outgoing.begin(), outgoing.end(), it->first) ==
          outgoing.end()) {
        it = arms_.erase(it);
      } else {
        ++it;
      }
    }
    if (outgoing.size() < 2) return;
    net::NodeId worst = outgoing.front();
    double max_lcb = -util::kInf;
    double min_ucb = util::kInf;
    for (net::NodeId u : outgoing) {
      const auto [lcb, ucb] = bounds(arms_[u]);
      if (lcb > max_lcb) {
        max_lcb = lcb;
        worst = u;
      }
      min_ucb = std::min(min_ucb, ucb);
    }
    if (max_lcb > min_ucb) {
      ctx.topology.disconnect(self, worst);
      arms_.erase(worst);
      topo::dial_random_peers(ctx.topology, self, 1, ctx.rng);
    }
  }
  const char* name() const override { return "ref-ucb"; }

 private:
  struct Arm {
    std::deque<double> recent;
    std::vector<double> sorted;

    void add(double value, std::size_t window) {
      if (recent.size() == window) {
        const double oldest = recent.front();
        recent.pop_front();
        sorted.erase(std::lower_bound(sorted.begin(), sorted.end(), oldest));
      }
      recent.push_back(value);
      sorted.insert(std::upper_bound(sorted.begin(), sorted.end(), value),
                    value);
    }
  };

  std::pair<double, double> bounds(const Arm& arm) const {
    if (arm.sorted.empty()) return {util::kInf, util::kInf};
    const double estimate =
        util::percentile_sorted(arm.sorted, params_.percentile);
    const auto n = static_cast<double>(arm.sorted.size());
    const double half_width =
        params_.ucb_c * std::sqrt(std::log(std::max(n, 1.0)) / (2.0 * n));
    return {estimate - half_width, estimate + half_width};
  }

  std::map<net::NodeId, Arm> arms_;
  PerigeeParams params_;
};

constexpr std::size_t kNodes = 200;

template <typename Ref>
std::vector<std::unique_ptr<sim::NeighborSelector>> ref_selectors(
    const PerigeeParams& params) {
  std::vector<std::unique_ptr<sim::NeighborSelector>> selectors;
  for (std::size_t i = 0; i < kNodes; ++i) {
    selectors.push_back(std::make_unique<Ref>(params));
  }
  return selectors;
}

// Runs production and reference side by side and compares every node's
// outgoing list after every round. `reset_every` > 0 resets a few nodes'
// selectors before every such round, as churn does for a rejoining node;
// `withhold_every` > 0 makes every such node a non-forwarder, so its
// listeners see +inf rows. Returns the number of rounds in which the
// production topology changed.
int expect_same_decisions(
    Algorithm algorithm,
    std::vector<std::unique_ptr<sim::NeighborSelector>> reference,
    const PerigeeParams& params, int rounds, int blocks_per_round,
    int reset_every = 0, net::NodeId withhold_every = 0) {
  net::NetworkOptions options;
  options.n = kNodes;
  options.seed = 3;
  net::Network network = net::Network::build(options);
  if (withhold_every > 0) {
    for (net::NodeId v = 1; v < kNodes; v += withhold_every) {
      network.mutable_profiles()[v].forwards = false;
    }
  }
  net::Topology prod_topology(kNodes);
  util::Rng build_rng(5);
  topo::build_random(prod_topology, build_rng);
  net::Topology ref_topology = prod_topology;

  sim::RoundRunner prod(network, prod_topology,
                        make_selectors(kNodes, algorithm, params),
                        blocks_per_round, 7);
  sim::RoundRunner ref(network, ref_topology, std::move(reference),
                       blocks_per_round, 7);
  int changed_rounds = 0;
  for (int round = 0; round < rounds; ++round) {
    if (reset_every > 0 && round % reset_every == 0) {
      for (net::NodeId v = static_cast<net::NodeId>(round % 13); v < kNodes;
           v += 17) {
        prod.reset_selector(v);
        ref.reset_selector(v);
      }
    }
    const auto before = prod_topology.version();
    prod.run_round();
    ref.run_round();
    changed_rounds += prod_topology.version() != before;
    for (net::NodeId v = 0; v < kNodes; ++v) {
      EXPECT_EQ(prod_topology.out(v), ref_topology.out(v))
          << "node " << v << " after round " << round;
      if (prod_topology.out(v) != ref_topology.out(v)) return -1;
    }
  }
  return changed_rounds;
}

TEST(SelectorParity, VanillaMatchesSortReference) {
  const PerigeeParams params;
  EXPECT_EQ(expect_same_decisions(Algorithm::PerigeeVanilla,
                                  ref_selectors<RefVanilla>(params), params,
                                  10, 100),
            10);
}

TEST(SelectorParity, SubsetMatchesSortReference) {
  const PerigeeParams params;
  EXPECT_EQ(expect_same_decisions(Algorithm::PerigeeSubset,
                                  ref_selectors<RefSubset>(params), params, 10,
                                  100),
            10);
}

// Subset against its reference in the corners of the pruning bound, which
// skips a candidate once at most `lo` entries of min(row, best) fall below
// the incumbent's score: one or two blocks per round (lo is 0), the 0th,
// 50th and 100th percentiles, and +inf rows from withholding neighbors.
// Besides the decisions, the number of candidates skipped must equal the
// reference's count of candidates the bound excludes — every one of them,
// boundary included.
void expect_subset_parity(const PerigeeParams& params, int blocks_per_round,
                          net::NodeId withhold_every = 0) {
  std::uint64_t excluded = 0;
  std::vector<std::unique_ptr<sim::NeighborSelector>> reference;
  for (std::size_t i = 0; i < kNodes; ++i) {
    reference.push_back(std::make_unique<RefSubset>(params, &excluded));
  }
  obs::Registry& registry = obs::Registry::instance();
  const std::uint64_t before = registry.scrape().counter("core.subset.pruned");
  EXPECT_GT(expect_same_decisions(Algorithm::PerigeeSubset,
                                  std::move(reference), params, 8,
                                  blocks_per_round, /*reset_every=*/0,
                                  withhold_every),
            0);
  EXPECT_GT(excluded, 0u);
  if (obs::telemetry_compiled() && registry.enabled()) {
    EXPECT_EQ(registry.scrape().counter("core.subset.pruned") - before,
              excluded);
  }
}

TEST(SelectorParity, SubsetOneBlockPerRound) {
  expect_subset_parity(PerigeeParams{}, 1);
}

TEST(SelectorParity, SubsetTwoBlocksPerRound) {
  expect_subset_parity(PerigeeParams{}, 2);
}

TEST(SelectorParity, SubsetExtremeAndMedianPercentiles) {
  for (const double q : {0.0, 0.5, 1.0}) {
    SCOPED_TRACE(q);
    PerigeeParams params;
    params.percentile = q;
    expect_subset_parity(params, 20);
  }
}

TEST(SelectorParity, SubsetWithWithholdingNeighbors) {
  for (const double q : {0.5, 0.9, 1.0}) {
    SCOPED_TRACE(q);
    PerigeeParams params;
    params.percentile = q;
    expect_subset_parity(params, 20, /*withhold_every=*/4);
  }
}

TEST(SelectorParity, UcbMatchesDequeReference) {
  const PerigeeParams params;
  EXPECT_GT(expect_same_decisions(Algorithm::PerigeeUcb,
                                  ref_selectors<RefUcb>(params), params, 200,
                                  1),
            0);
}

TEST(SelectorParity, UcbSmallWindowMatchesDequeReference) {
  // A window far below the round count makes every arm wrap many times.
  PerigeeParams params;
  params.ucb_window = 8;
  params.ucb_c = 50.0;
  EXPECT_GT(expect_same_decisions(Algorithm::PerigeeUcb,
                                  ref_selectors<RefUcb>(params), params, 200,
                                  1),
            0);
}

TEST(SelectorParity, UcbWithResetsMatchesDequeReference) {
  PerigeeParams params;
  params.ucb_window = 16;
  EXPECT_GT(expect_same_decisions(Algorithm::PerigeeUcb,
                                  ref_selectors<RefUcb>(params), params, 200,
                                  1, /*reset_every=*/25),
            0);
}

}  // namespace
}  // namespace perigee::core

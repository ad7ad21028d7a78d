#include "core/subset.hpp"

#include <algorithm>
#include <cmath>

#include "core/rewire.hpp"
#include "obs/metrics.hpp"
#include "util/stats.hpp"

namespace perigee::core {

void SubsetSelector::on_round_end(net::NodeId self, sim::RoundContext& ctx) {
  const auto& obs = ctx.obs;
  const std::size_t blocks = obs.blocks_recorded();

  // Candidate rows: relative timestamps of each outgoing neighbor.
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

  // Greedy complement selection (§4.3): best[b] is the group's per-block
  // delivery time so far; a candidate's marginal score is the percentile of
  // min(candidate, best).
  std::vector<double> best(blocks, util::kInf);
  std::vector<bool> taken(candidates.size(), false);
  std::vector<net::NodeId> keep;
  // Refilled for every candidate, so it is scored in place.
  std::vector<double> merged(blocks);
  keep.reserve(keep_n);
  // The score interpolates up from order statistic `lo` of merged, so it is
  // never below it. Once an incumbent exists, a candidate with at most `lo`
  // merged entries under best_score has that statistic >= best_score and
  // cannot win the strict < below: it is skipped without a selection.
  const bool prune = blocks > 0;
  const std::size_t lo =
      prune ? util::percentile_lower_rank(blocks, params_.percentile) : 0;
  PERIGEE_TELEMETRY_ONLY(std::uint64_t pruned = 0);

  for (std::size_t step = 0; step < keep_n; ++step) {
    double best_score = util::kInf;
    std::size_t best_idx = candidates.size();
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (taken[c]) continue;
      std::size_t below = 0;
      for (std::size_t b = 0; b < blocks; ++b) {
        merged[b] = std::min(rows[c][b], best[b]);
        below += merged[b] < best_score;
      }
      if (prune && best_idx != candidates.size() && below <= lo) {
        PERIGEE_TELEMETRY_ONLY(++pruned;)
        continue;
      }
      const double score =
          util::percentile_in_place(merged, params_.percentile);
      // Strict < keeps the lowest candidate index on ties: deterministic.
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
  PERIGEE_COUNTER_ADD("core.subset.pruned", pruned);

  retain_and_explore(ctx.topology, self, keep, ctx.rng, ctx.addrman);
}

}  // namespace perigee::core

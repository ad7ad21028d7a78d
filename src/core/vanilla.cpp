#include "core/vanilla.hpp"

#include <algorithm>

#include "core/rewire.hpp"
#include "util/stats.hpp"

namespace perigee::core {

void VanillaSelector::on_round_end(net::NodeId self, sim::RoundContext& ctx) {
  const auto& obs = ctx.obs;
  // Score the outgoing neighbors captured at round start; v's own outgoing
  // set cannot have changed mid-round.
  std::vector<std::pair<double, net::NodeId>> scored;
  std::vector<double> times;  // one neighbor's row, reordered by scoring
  const auto peers = obs.out_peers(self);
  for (std::size_t k = 0; k < peers.size(); ++k) {
    const auto row = obs.rel_times(self, k);
    times.assign(row.begin(), row.end());
    const double score = util::percentile_in_place(times, params_.percentile);
    scored.emplace_back(score, peers[k]);
  }
  if (scored.empty()) {
    // No outgoing neighbors (degenerate start): just explore.
    retain_and_explore(ctx.topology, self, {}, ctx.rng, ctx.addrman);
    return;
  }
  std::sort(scored.begin(), scored.end());
  const auto keep_n =
      std::min<std::size_t>(static_cast<std::size_t>(params_.keep),
                            scored.size());
  std::vector<net::NodeId> keep;
  keep.reserve(keep_n);
  for (std::size_t i = 0; i < keep_n; ++i) keep.push_back(scored[i].second);
  retain_and_explore(ctx.topology, self, keep, ctx.rng, ctx.addrman);
}

}  // namespace perigee::core

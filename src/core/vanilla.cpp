#include "core/vanilla.hpp"

#include <algorithm>

#include "core/rewire.hpp"
#include "core/score_scratch.hpp"
#include "util/stats.hpp"

namespace perigee::core {

void VanillaSelector::on_round_end(net::NodeId self, sim::RoundContext& ctx) {
  const auto& obs = ctx.obs;
  ScoreScratch& scratch = score_scratch();
  // Score the outgoing neighbors captured at round start; v's own outgoing
  // set cannot have changed mid-round. Each row is read where the table
  // computed it; only the percentile's survivors are copied.
  auto& scored = scratch.scored;
  scored.clear();
  const auto peers = obs.out_peers(self);
  for (std::size_t k = 0; k < peers.size(); ++k) {
    const double score = util::percentile(obs.rel_times(self, k),
                                          params_.percentile, scratch.select);
    scored.emplace_back(score, peers[k]);
  }
  auto& keep = scratch.keep;
  keep.clear();
  if (scored.empty()) {
    // No outgoing neighbors (degenerate start): just explore.
    retain_and_explore(ctx.topology, self, keep, ctx.rng, ctx.addrman);
    return;
  }
  std::sort(scored.begin(), scored.end());
  const auto keep_n =
      std::min<std::size_t>(static_cast<std::size_t>(params_.keep),
                            scored.size());
  for (std::size_t i = 0; i < keep_n; ++i) keep.push_back(scored[i].second);
  retain_and_explore(ctx.topology, self, keep, ctx.rng, ctx.addrman);
}

}  // namespace perigee::core

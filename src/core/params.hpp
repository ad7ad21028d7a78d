// Perigee protocol parameters (paper §4, §5.1 defaults).
#pragma once

#include "net/types.hpp"

namespace perigee::core {

struct PerigeeParams {
  // dv: neighbors retained by score at the end of a round. After retention
  // a node refills its outgoing slots to the topology's out_cap with random
  // peers, so the ev exploration slots of Algorithm 1 are out_cap - keep
  // (8 - 6 = 2 by default).
  int keep = net::kDefaultKeep;  // 6
  // Score quantile: a neighbor is rated by this percentile of its relative
  // delivery times (the paper uses the 90th everywhere).
  double percentile = net::kScorePercentile;  // 0.90
  // UCB exploration constant c in Eq. (3)-(4), in milliseconds (the paper's
  // timestamps are unnormalized, so c carries the delay scale).
  double ucb_c = 300.0;
  // Sliding-window size of the per-neighbor sample multiset kept by UCB
  // scoring (see core/ucb.hpp for why the window is bounded).
  int ucb_window = 256;
};

}  // namespace perigee::core

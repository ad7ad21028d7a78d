// Per-thread working set of the Vanilla and Subset score passes. Every
// buffer is cleared or overwritten before use and only ever grows, so after
// the first few nodes a round's scoring allocates nothing. One set per
// thread, not per node: the footprint is one node's worth of rows however
// large the network, and concurrent scoring threads never share a buffer.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "net/types.hpp"

namespace perigee::core {

struct ScoreScratch {
  std::vector<std::pair<double, net::NodeId>> scored;  // Vanilla (score, peer)
  std::vector<std::span<const double>> rows;  // Subset candidate rows
  std::vector<double> best;    // Subset group's per-block minimum
  std::vector<double> merged;  // Subset candidate merged with the group
  std::vector<bool> taken;     // Subset candidates already in the group
  std::vector<double> select;  // util::percentile's filter buffer
  std::vector<net::NodeId> keep;  // the retained out-peers
};

// The calling thread's scratch.
inline ScoreScratch& score_scratch() {
  thread_local ScoreScratch scratch;
  return scratch;
}

}  // namespace perigee::core

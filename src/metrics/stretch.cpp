#include "metrics/stretch.hpp"

#include <cmath>
#include <queue>

#include "util/assert.hpp"
#include "util/stats.hpp"

namespace perigee::metrics {

std::vector<double> latency_shortest_paths(const net::Topology& topology,
                                           const net::Network& network,
                                           net::NodeId src) {
  PERIGEE_ASSERT(src < topology.size());
  const std::size_t n = topology.size();
  std::vector<double> dist(n, util::kInf);
  dist[src] = 0.0;
  using Item = std::pair<double, net::NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
  queue.emplace(0.0, src);
  std::vector<bool> settled(n, false);
  while (!queue.empty()) {
    const auto [t, u] = queue.top();
    queue.pop();
    if (settled[u]) continue;
    settled[u] = true;
    for (const auto& link : topology.adjacency(u)) {
      if (settled[link.peer]) continue;
      const double w =
          link.is_infra() ? link.infra_ms : network.link_ms(u, link.peer);
      if (t + w < dist[link.peer]) {
        dist[link.peer] = t + w;
        queue.emplace(dist[link.peer], link.peer);
      }
    }
  }
  return dist;
}

StretchStats measure_stretch(const net::Topology& topology,
                             const net::Network& network, util::Rng& rng,
                             std::size_t sources, double min_direct_ms) {
  PERIGEE_ASSERT(sources >= 1);
  const std::size_t n = topology.size();
  std::vector<double> stretches;
  StretchStats stats;
  for (std::size_t s = 0; s < sources; ++s) {
    const auto src = static_cast<net::NodeId>(rng.uniform_index(n));
    const auto dist = latency_shortest_paths(topology, network, src);
    for (net::NodeId v = 0; v < n; ++v) {
      if (v == src) continue;
      const double direct = network.link_ms(src, v);
      if (direct < min_direct_ms) continue;
      if (std::isinf(dist[v])) {
        ++stats.unreachable;
        continue;
      }
      stretches.push_back(dist[v] / direct);
    }
  }
  stats.pairs = stretches.size();
  if (!stretches.empty()) {
    const auto summary = util::summarize(stretches);
    stats.mean = summary.mean;
    stats.p50 = summary.p50;
    stats.p90 = summary.p90;
    stats.max = summary.max;
  }
  return stats;
}

double pair_stretch(const net::Topology& topology, const net::Network& network,
                    net::NodeId a, net::NodeId b) {
  PERIGEE_ASSERT(a != b);
  const auto dist = latency_shortest_paths(topology, network, a);
  const double direct = network.link_ms(a, b);
  PERIGEE_ASSERT(direct > 0);
  return dist[b] / direct;
}

}  // namespace perigee::metrics

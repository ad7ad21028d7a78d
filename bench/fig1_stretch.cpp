// Figure 1: 1000 nodes embedded uniformly in the unit square. With random
// connectivity (3 links per node) the shortest path between two opposite
// corners meanders far beyond the Euclidean distance; a geometric graph
// (threshold connectivity) tracks the geodesic closely.
#include <iostream>
#include <limits>

#include "metrics/stretch.hpp"
#include "net/embedding.hpp"
#include "topo/builders.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace perigee;

  util::Flags flags;
  flags.add_int("nodes", 1000, "points in the unit square");
  flags.add_int("degree", 3, "random links per node (Figure 1 uses 3)");
  flags.add_int("seed", 1, "seed");
  flags.add_int("sources", 25, "stretch-sample sources");
  if (!flags.parse(argc, argv)) return 1;
  if (!flags.int_in_range("nodes", 2) ||
      !flags.int_in_range("degree", 1, std::numeric_limits<int>::max()) ||
      !flags.int_in_range("sources", 1)) {
    return 1;
  }

  const auto n = static_cast<std::size_t>(flags.get_int("nodes"));
  net::NetworkOptions options;
  options.n = n;
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  options.latency = net::NetworkOptions::LatencyKind::Euclidean;
  options.embed_dim = 2;
  options.embed_scale_ms = 1.0;  // distances reported in unit-square units
  const auto network = net::Network::build(options);

  // Corner pair: the nodes closest to (0,0) and, among the others, (1,1).
  auto closest_to = [&](double x, double y, net::NodeId skip) {
    net::NodeId best = 0;
    double best_d = 1e18;
    for (net::NodeId v = 0; v < n; ++v) {
      const auto& c = network.profile(v).coords;
      const double d = (x - c[0]) * (x - c[0]) + (y - c[1]) * (y - c[1]);
      if (v != skip && d < best_d) {
        best_d = d;
        best = v;
      }
    }
    return best;
  };
  const net::NodeId a = closest_to(0.0, 0.0, net::kInvalidNode);
  const net::NodeId b = closest_to(1.0, 1.0, a);

  // (a) random topology with `degree` outgoing links per node.
  net::Topology random_topo(
      n, {.out_cap = static_cast<int>(flags.get_int("degree")),
          .in_cap = static_cast<int>(n)});
  util::Rng rng(options.seed);
  topo::build_random(random_topo, rng);

  // (b) geometric graph with the Theorem-2 threshold (x1.2 for connectivity).
  const double r = net::geometric_threshold(n, 2, 1.2);
  net::Topology geo_topo(n, {.out_cap = static_cast<int>(n),
                             .in_cap = static_cast<int>(n)});
  topo::build_geometric_threshold(geo_topo, network, r);

  util::print_banner(std::cout, "Figure 1 - unit-square path stretch");
  std::cout << "corner nodes: (" << network.profile(a).coords[0] << ", "
            << network.profile(a).coords[1] << ") and ("
            << network.profile(b).coords[0] << ", "
            << network.profile(b).coords[1]
            << "), direct distance = " << util::fmt(network.link_ms(a, b), 3)
            << "\n";
  std::cout << "geometric threshold r = " << util::fmt(r, 4) << "\n\n";

  util::Rng s1(7), s2(7);
  const auto random_stats =
      metrics::measure_stretch(random_topo, network, s1,
                               static_cast<std::size_t>(flags.get_int("sources")),
                               2.0 * r);
  const auto geo_stats =
      metrics::measure_stretch(geo_topo, network, s2,
                               static_cast<std::size_t>(flags.get_int("sources")),
                               2.0 * r);

  util::Table table({"topology", "edges", "corner stretch", "median stretch",
                     "p90 stretch", "max"});
  table.add_row({"random (3 links)",
                 std::to_string(random_topo.num_p2p_edges()),
                 util::fmt(metrics::pair_stretch(random_topo, network, a, b), 2),
                 util::fmt(random_stats.p50, 2), util::fmt(random_stats.p90, 2),
                 util::fmt(random_stats.max, 2)});
  table.add_row({"geometric (r)",
                 std::to_string(geo_topo.num_p2p_edges()),
                 util::fmt(metrics::pair_stretch(geo_topo, network, a, b), 2),
                 util::fmt(geo_stats.p50, 2), util::fmt(geo_stats.p90, 2),
                 util::fmt(geo_stats.max, 2)});
  table.print(std::cout);
  std::cout << "\nExpected shape (paper Fig. 1): the random topology's paths "
               "are several times the Euclidean distance; the geometric "
               "graph stays within a small constant.\n";
  return 0;
}

// Spanner comparison (§3.3's "other efficient topology constructions"):
// geometric threshold graph vs Θ/Yao cone spanners vs the random topology,
// on stretch and edge budget. Cone spanners achieve the geometric graph's
// constant stretch with an O(k·n) edge budget and hard out-degree k — the
// property that makes them the theory-side analogue of a degree-capped p2p
// overlay.
#include <iostream>
#include <limits>

#include "metrics/stretch.hpp"
#include "net/embedding.hpp"
#include "topo/builders.hpp"
#include "topo/spanner.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace perigee;

  util::Flags flags;
  flags.add_int("nodes", 1000, "points in the unit square");
  flags.add_int("cones", 8, "cones per node for theta/yao");
  flags.add_int("sources", 15, "stretch-sample sources");
  flags.add_int("seed", 1, "seed");
  if (!flags.parse(argc, argv)) return 1;
  // Below 7 cones the construction runs but its stretch bound is undefined.
  if (!flags.int_in_range("nodes", 2) ||
      !flags.int_in_range("cones", 7, std::numeric_limits<int>::max()) ||
      !flags.int_in_range("sources", 1)) {
    return 1;
  }

  const auto n = static_cast<std::size_t>(flags.get_int("nodes"));
  const int cones = static_cast<int>(flags.get_int("cones"));
  net::NetworkOptions options;
  options.n = n;
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  options.latency = net::NetworkOptions::LatencyKind::Euclidean;
  options.embed_dim = 2;
  options.embed_scale_ms = 1.0;
  const auto network = net::Network::build(options);
  const auto sources =
      static_cast<std::size_t>(flags.get_int("sources"));

  util::print_banner(std::cout, "Spanner comparison - unit square, n = " +
                                    std::to_string(n));
  util::Table table({"construction", "edges", "max out-degree",
                     "median stretch", "p90 stretch", "max stretch"});

  auto measure = [&](const std::string& name, const net::Topology& t) {
    util::Rng rng(99);
    const auto stats = metrics::measure_stretch(t, network, rng, sources,
                                                0.05);
    int max_deg = 0;
    for (net::NodeId v = 0; v < t.size(); ++v) {
      max_deg = std::max(max_deg, t.out_count(v));
    }
    table.add_row({name, std::to_string(t.num_p2p_edges()),
                   std::to_string(max_deg), util::fmt(stats.p50, 2),
                   util::fmt(stats.p90, 2), util::fmt(stats.max, 2)});
  };

  {
    net::Topology t(n, {.out_cap = 8, .in_cap = static_cast<int>(n)});
    util::Rng rng(options.seed);
    topo::build_random(t, rng);
    measure("random (8 links)", t);
  }
  {
    const double r = net::geometric_threshold(n, 2, 1.2);
    net::Topology t(n, {.out_cap = static_cast<int>(n),
                        .in_cap = static_cast<int>(n)});
    topo::build_geometric_threshold(t, network, r);
    measure("geometric threshold", t);
  }
  {
    net::Topology t(n, {.out_cap = cones, .in_cap = static_cast<int>(n)});
    topo::build_cone_spanner(t, network, cones, topo::ConeGraphKind::Yao);
    measure("yao-" + std::to_string(cones), t);
  }
  {
    net::Topology t(n, {.out_cap = cones, .in_cap = static_cast<int>(n)});
    topo::build_cone_spanner(t, network, cones, topo::ConeGraphKind::Theta);
    measure("theta-" + std::to_string(cones), t);
  }
  table.print(std::cout);
  std::cout << "\nworst-case cone-spanner bound for k = " << cones << ": "
            << util::fmt(topo::cone_spanner_stretch_bound(cones), 2)
            << "x (observed stretch sits far below it)\n";
  return 0;
}

// Theorem 2 (Friedrich, Sauerwald & Stauffer): a geometric graph with
// threshold r = Θ((log n / n)^(1/d)) has constant stretch — the shortest
// path between well-separated nodes is at most a constant times their
// Euclidean distance, independent of n.
#include <iostream>

#include "metrics/stretch.hpp"
#include "net/embedding.hpp"
#include "topo/builders.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace perigee;

  util::Flags flags;
  flags.add_int("dim", 2, "embedding dimension");
  flags.add_double("factor", 1.2, "threshold factor on (log n / n)^(1/d)");
  flags.add_int("sources", 15, "stretch-sample sources");
  flags.add_int("seed", 1, "seed");
  if (!flags.parse(argc, argv)) return 1;
  if (!flags.int_in_range("dim", 1, net::kMaxEmbedDim) ||
      !flags.int_in_range("sources", 1)) {
    return 1;
  }
  // The negation also rejects NaN.
  if (const double factor = flags.get_double("factor"); !(factor > 0.0)) {
    std::cerr << "bad --factor value '" << factor << "' (want > 0)\n";
    return 1;
  }
  const int dim = static_cast<int>(flags.get_int("dim"));

  util::print_banner(std::cout,
                     "Theorem 2 - geometric-graph stretch stays constant");
  util::Table table({"n", "r", "edges", "median stretch", "p90 stretch",
                     "unreachable"});
  for (std::size_t n : {250u, 500u, 1000u, 2000u, 4000u}) {
    net::NetworkOptions options;
    options.n = n;
    options.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
    options.latency = net::NetworkOptions::LatencyKind::Euclidean;
    options.embed_dim = dim;
    options.embed_scale_ms = 1.0;
    const auto network = net::Network::build(options);

    const double r =
        net::geometric_threshold(n, dim, flags.get_double("factor"));
    net::Topology t(n, {.out_cap = static_cast<int>(n),
                        .in_cap = static_cast<int>(n)});
    topo::build_geometric_threshold(t, network, r);

    util::Rng srng(42);
    const auto stats = metrics::measure_stretch(
        t, network, srng, static_cast<std::size_t>(flags.get_int("sources")),
        4.0 * r);  // Theorem 2 applies to pairs with distance = omega(r)
    table.add_row({std::to_string(n), util::fmt(r, 4),
                   std::to_string(t.num_p2p_edges()),
                   util::fmt(stats.p50, 2), util::fmt(stats.p90, 2),
                   std::to_string(stats.unreachable)});
    std::cerr << "done: n=" << n << "\n";
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: median stretch is a small constant (~1.1-"
               "1.3) with no growth in n — contrast with Theorem 1's table.\n";
  return 0;
}

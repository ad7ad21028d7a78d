// Theorem 1 (Frieze & Pegden): on an Erdős–Rényi graph with p = c log n / n
// over points embedded in [0,1]^d, the network latency between two nodes is
// a log-factor worse than their Euclidean distance. Empirically: the median
// stretch grows with n.
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
  flags.add_double("c", 1.5, "edge-probability constant (p = c log n / n)");
  flags.add_int("sources", 15, "stretch-sample sources");
  flags.add_int("seed", 1, "seed");
  if (!flags.parse(argc, argv)) return 1;
  if (!flags.int_in_range("dim", 1, net::kMaxEmbedDim) ||
      !flags.int_in_range("sources", 1)) {
    return 1;
  }
  // The negation also rejects NaN.
  if (const double c = flags.get_double("c"); !(c >= 0.0)) {
    std::cerr << "bad --c value '" << c << "' (want >= 0)\n";
    return 1;
  }
  const int dim = static_cast<int>(flags.get_int("dim"));

  util::print_banner(std::cout,
                     "Theorem 1 - random-graph stretch grows with n");
  util::Table table({"n", "p", "edges", "median stretch", "p90 stretch"});
  for (std::size_t n : {250u, 500u, 1000u, 2000u, 4000u}) {
    net::NetworkOptions options;
    options.n = n;
    options.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
    options.latency = net::NetworkOptions::LatencyKind::Euclidean;
    options.embed_dim = dim;
    options.embed_scale_ms = 1.0;
    const auto network = net::Network::build(options);

    const double p = net::random_graph_probability(n, flags.get_double("c"));
    net::Topology t(n, {.out_cap = static_cast<int>(n),
                        .in_cap = static_cast<int>(n)});
    util::Rng rng(options.seed + n);
    topo::build_erdos_renyi(t, p, rng);

    util::Rng srng(42);
    const auto stats = metrics::measure_stretch(
        t, network, srng, static_cast<std::size_t>(flags.get_int("sources")),
        0.25);
    table.add_row({std::to_string(n), util::fmt(p, 4),
                   std::to_string(t.num_p2p_edges()),
                   util::fmt(stats.p50, 2), util::fmt(stats.p90, 2)});
    std::cerr << "done: n=" << n << "\n";
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: median stretch increases with n (the "
               "(log n)^(1-1/d) factor of Eq. 1); it never levels off to a "
               "constant.\n";
  return 0;
}

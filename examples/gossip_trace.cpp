// Protocol-realism walkthrough: trace one block through the message-level
// INV/GETDATA/BLOCK relay (the batch driver's announce solver) and compare
// against the delay solver's push model. Useful for understanding what
// δ(u,v) abstracts away.
//
//   ./examples/gossip_trace [--nodes N]
#include <algorithm>
#include <array>
#include <iostream>

#include "net/csr.hpp"
#include "sim/batch.hpp"
#include "topo/builders.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace perigee;

  util::Flags flags;
  flags.add_int("nodes", 200, "network size");
  flags.add_int("miner", 0, "block origin");
  flags.add_int("seed", 1, "seed");
  if (!flags.parse(argc, argv)) return 1;

  net::NetworkOptions options;
  options.n = static_cast<std::size_t>(flags.get_int("nodes"));
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  options.handshake_factor = 1.0;  // the announce solver models it explicitly
  const auto network = net::Network::build(options);

  net::Topology topology(network.size());
  util::Rng rng(options.seed);
  topo::build_random(topology, rng);
  const auto miner = static_cast<net::NodeId>(flags.get_int("miner"));

  // Both solvers' single-source path: a batch of one over a snapshot.
  const auto csr = net::CsrTopology::build(topology, network);
  const std::array<net::NodeId, 1> source{miner};
  sim::MultiSourceScratch scratch;
  sim::MultiSourceResult gossip;
  sim::MultiSourceResult pushed;
  sim::simulate_announce_batch(csr, source, scratch, gossip);
  sim::simulate_broadcast_batch(csr, source, scratch, pushed);

  const auto g = util::summarize(gossip.arrival_of(0));
  const auto p = util::summarize(pushed.arrival_of(0));

  util::Table table({"solver", "p50 arrival", "p90 arrival", "max"});
  table.add_row({"announce (INV/GETDATA/BLOCK)", util::fmt(g.p50),
                 util::fmt(g.p90), util::fmt(g.max)});
  table.add_row({"delay (push model)", util::fmt(p.p50), util::fmt(p.p90),
                 util::fmt(p.max)});
  table.print(std::cout);

  std::cout << "\nThe full handshake costs " << util::fmt(g.p50 / p.p50, 2)
            << "x the push latency at the median - the overhead the delay "
               "solver's handshake_factor folds into delta(u,v).\n";

  // A node's first INV: the earliest announcement over its neighbors, each
  // sent at the neighbor's relay time (the ready stripe) over the control
  // delta of the neighbor's link. Withholders never announce; the miner
  // announces its own block at 0.
  const auto ready = gossip.ready_of(0);
  const auto first_inv = [&](net::NodeId v) {
    if (v == miner) return 0.0;
    double first = util::kInf;
    for (const net::NodeId u : csr.peers(v)) {
      if (csr.forwards(u) || u == miner) {
        first = std::min(first, ready[u] + csr.control_delay(u, v));
      }
    }
    return first;
  };
  std::cout << "\nfirst INV vs block-in-hand for five sample nodes:\n";
  util::Table detail({"node", "first INV", "block arrival", "gap"});
  const auto arrival = gossip.arrival_of(0);
  for (net::NodeId v : {net::NodeId{3}, net::NodeId{50}, net::NodeId{100},
                        net::NodeId{150}, net::NodeId{199}}) {
    if (v >= network.size()) continue;
    const double first = first_inv(v);
    detail.add_row({std::to_string(v), util::fmt(first),
                    util::fmt(arrival[v]), util::fmt(arrival[v] - first)});
  }
  detail.print(std::cout);
  return 0;
}

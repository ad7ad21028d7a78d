// Compiled with PERIGEE_TELEMETRY removed (see CMakeLists.txt) and linked
// against the library, which is built with it. The scratch lanes this file
// constructs hold the engines' bucket queues and are filled by library
// code, so any header struct whose layout followed the define would corrupt
// the heap here. Runs one delay batch and one egress batch on valid input.
#ifdef PERIGEE_TELEMETRY
#error "this test must be compiled without PERIGEE_TELEMETRY"
#endif

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "net/csr.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/batch.hpp"
#include "sim/egress.hpp"
#include "topo/builders.hpp"
#include "util/rng.hpp"

namespace perigee::sim {
namespace {

TEST(TelemetryOffLink, DelayAndEgressBatchesRun) {
  net::NetworkOptions options;
  options.n = 40;
  options.seed = 7;
  const net::Network network = net::Network::build(options);
  net::Topology topology(options.n);
  util::Rng rng(7);
  topo::build_random(topology, rng);
  const net::CsrTopology csr = net::CsrTopology::build(topology, network);
  const std::vector<net::NodeId> sources = {0, 1, 2};

  MultiSourceScratch scratch;
  MultiSourceResult delay;
  simulate_broadcast_batch(csr, sources, scratch, delay);
  const EgressConfig config;
  const EgressPlan plan = EgressPlan::build(network, config);
  MultiSourceResult egress;
  simulate_broadcast_egress_batch(csr, config, plan, sources, scratch, egress);

  // Queues only add serialization and wait on top of each δ.
  for (std::size_t s = 0; s < sources.size(); ++s) {
    for (std::size_t v = 0; v < options.n; ++v) {
      const double d = delay.arrival_of(s)[v];
      ASSERT_TRUE(std::isfinite(d) && d >= 0.0) << s << " " << v;
      EXPECT_GE(egress.arrival_of(s)[v], d) << s << " " << v;
    }
  }
}

}  // namespace
}  // namespace perigee::sim

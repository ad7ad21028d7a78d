// Scale soak (integration tier): n = 10^5 broadcasts through the round
// loop's delay engine (one 8-source round batch across a 2-worker pool),
// held to
//
//  - completion: for every source, every BFS-reachable node gets a finite
//    arrival and every unreachable node stays +inf (exact count equality,
//    not a sample);
//  - byte parity with the Topology-walking oracle (tests/broadcast_oracle.hpp)
//    at this scale, every stripe;
//  - the whole process stays under a declared peak-RSS budget
//    (obs::peak_rss_kb, i.e. VmHWM), scaled up under sanitizer builds for
//    shadow/redzone cost.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "broadcast_oracle.hpp"
#include "net/csr.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "obs/meta.hpp"
#include "runner/thread_pool.hpp"
#include "sim/batch.hpp"
#include "topo/builders.hpp"
#include "util/rng.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERIGEE_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PERIGEE_TEST_SANITIZED 1
#endif
#endif

namespace perigee {
namespace {

constexpr std::size_t kNodes = 100000;
// Declared budget for the whole soak process at n = 10^5: snapshot (~60 MB
// with patchable slab slack) + topology + network + engine scratch + result
// stripes leave ample slack below this. Sanitizers multiply real memory by
// shadow + redzones; give them 4x.
#ifdef PERIGEE_TEST_SANITIZED
constexpr std::int64_t kPeakRssBudgetKb = 4 * std::int64_t{1048576};
#else
constexpr std::int64_t kPeakRssBudgetKb = 1048576;  // 1 GiB
#endif

std::size_t reachable_count(const net::CsrTopology& csr, net::NodeId src) {
  std::vector<char> seen(csr.size(), 0);
  std::vector<net::NodeId> stack{src};
  seen[src] = 1;
  std::size_t count = 1;
  while (!stack.empty()) {
    const net::NodeId u = stack.back();
    stack.pop_back();
    if (!csr.forwards(u) && u != src) continue;
    for (const net::NodeId v : csr.peers(u)) {
      if (seen[v] == 0) {
        seen[v] = 1;
        ++count;
        stack.push_back(v);
      }
    }
  }
  return count;
}

TEST(ScaleSoak, HundredThousandNodeBroadcastCompletesWithinBudget) {
  net::NetworkOptions options;
  options.n = kNodes;
  options.seed = 4242;
  const net::Network network = net::Network::build(options);
  net::Topology topology(kNodes);
  util::Rng rng(4242);
  topo::build_random(topology, rng);
  const net::CsrTopology csr = net::CsrTopology::build(topology, network);
  ASSERT_EQ(csr.size(), kNodes);

  const net::NodeId src = 12345;
  const std::size_t reachable = reachable_count(csr, src);
  // A random dout=8 digraph at this size is connected for all practical
  // purposes; guard the premise so a silently-empty graph cannot pass.
  ASSERT_GT(reachable, kNodes / 2);

  // One round-shaped batch of 8 miners across a 2-worker pool: every
  // stripe completes and is byte-equal to the oracle at this scale, not
  // just on the diff harness's small graphs.
  runner::ThreadPool pool(2);
  const std::vector<net::NodeId> miners = {src,   0,     1,     4242,
                                           31337, 50000, 77777, kNodes - 1};
  sim::MultiSourceScratch scratch;
  sim::MultiSourceResult batched;
  sim::simulate_broadcast_batch(csr, miners, scratch, batched, &pool);
  for (std::size_t s = 0; s < miners.size(); ++s) {
    SCOPED_TRACE(::testing::Message() << "miner=" << miners[s]);
    const auto arrival = batched.arrival_of(s);
    const auto ready = batched.ready_of(s);
    std::size_t finite = 0;
    for (const double a : arrival) finite += std::isfinite(a) ? 1 : 0;
    EXPECT_EQ(finite, reachable_count(csr, miners[s]));
    EXPECT_EQ(arrival[miners[s]], 0.0);
    EXPECT_EQ(ready[miners[s]], 0.0);

    const sim::BroadcastResult want =
        oracle::simulate_broadcast(topology, network, miners[s]);
    ASSERT_EQ(want.arrival.size(), arrival.size());
    EXPECT_EQ(std::memcmp(arrival.data(), want.arrival.data(),
                          kNodes * sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(ready.data(), want.ready.data(),
                          kNodes * sizeof(double)),
              0);
  }

  // The declared budget, asserted on the live process.
  const std::int64_t peak_kb = obs::peak_rss_kb();
  ASSERT_GT(peak_kb, 0) << "VmHWM unavailable";
  EXPECT_LT(peak_kb, kPeakRssBudgetKb)
      << "peak RSS " << peak_kb << " KiB exceeds the declared "
      << kPeakRssBudgetKb << " KiB scale budget";
}

}  // namespace
}  // namespace perigee

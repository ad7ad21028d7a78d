// Scale soak (integration tier): n = 10^5 broadcasts through both
// round-loop engines, held to
//
//  - completion: every BFS-reachable node gets a finite arrival, every
//    unreachable node stays +inf (exact count equality, not a sample);
//  - byte parity with the Topology-walking oracle (tests/broadcast_oracle.hpp)
//    at this scale, for the parallel delta-stepping engine (one source, a
//    2-worker team) and for the batched engine (one 8-source round batch
//    across a 2-worker pool, every stripe);
//  - the whole process stays under a declared peak-RSS budget
//    (obs::peak_rss_kb, i.e. VmHWM — the same number BENCH_scale.json
//    anchors), scaled up under sanitizer builds for shadow/redzone cost.
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
#include "sim/parallel.hpp"
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

  // The tentpole path: one source, a worker team inside the broadcast.
  runner::ThreadPool pool(2);
  sim::ParallelScratch scratch;
  sim::BroadcastResult result;
  sim::simulate_broadcast_parallel(csr, src, scratch, result, &pool);

  std::size_t finite = 0;
  for (const double a : result.arrival) finite += std::isfinite(a) ? 1 : 0;
  EXPECT_EQ(finite, reachable);
  EXPECT_EQ(result.arrival[src], 0.0);
  EXPECT_EQ(result.ready[src], 0.0);

  // Byte parity with the oracle holds at scale, not just on the diff
  // harness's small graphs.
  const sim::BroadcastResult reference =
      oracle::simulate_broadcast(topology, network, src);
  ASSERT_EQ(reference.arrival.size(), result.arrival.size());
  EXPECT_EQ(std::memcmp(reference.arrival.data(), result.arrival.data(),
                        kNodes * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(reference.ready.data(), result.ready.data(),
                        kNodes * sizeof(double)),
            0);

  // The production engine at scale: one round-shaped batch of 8 miners
  // across the pool, every stripe byte-equal to the oracle.
  const std::vector<net::NodeId> miners = {src,   0,     1,     4242,
                                           31337, 50000, 77777, kNodes - 1};
  sim::MultiSourceScratch batch_scratch;
  sim::MultiSourceResult batched;
  sim::simulate_broadcast_batch(csr, miners, batch_scratch, batched, &pool);
  for (std::size_t s = 0; s < miners.size(); ++s) {
    SCOPED_TRACE(::testing::Message() << "miner=" << miners[s]);
    const sim::BroadcastResult want =
        oracle::simulate_broadcast(topology, network, miners[s]);
    EXPECT_EQ(std::memcmp(batched.arrival_of(s).data(), want.arrival.data(),
                          kNodes * sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(batched.ready_of(s).data(), want.ready.data(),
                          kNodes * sizeof(double)),
              0);
  }

  // The budget BENCH_scale.json anchors, asserted on the live process.
  const std::int64_t peak_kb = obs::peak_rss_kb();
  ASSERT_GT(peak_kb, 0) << "VmHWM unavailable";
  EXPECT_LT(peak_kb, kPeakRssBudgetKb)
      << "peak RSS " << peak_kb << " KiB exceeds the declared "
      << kPeakRssBudgetKb << " KiB scale budget";
}

}  // namespace
}  // namespace perigee

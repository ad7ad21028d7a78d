// False-sharing regression guards for the batched engine's SoA layout
// (ISSUE 10 micro-pass): per-source result stripes must be padded to whole
// cache lines so adjacent pool workers never write the same line, and
// per-worker scratch lanes must start cache-line aligned. These are layout
// contracts — cheap to assert, expensive to rediscover with a profiler.
#include <gtest/gtest.h>

#include <cstdint>

#include "net/csr.hpp"
#include "sim/batch.hpp"
#include "topo/builders.hpp"
#include "util/rng.hpp"

namespace perigee {
namespace {

constexpr std::size_t kLine = 64;

// The compile-time halves of the guard (duplicated from the engine TUs so a
// header regression fails this test even if the TU asserts were dropped;
// the runtime alignment of the lane arena is checked below).
static_assert(alignof(sim::SourceLane) >= kLine,
              "SourceLane must be cache-line aligned");
static_assert(sizeof(sim::RelaxEntry) == 16,
              "bucket entries are packed to two per load pair");

TEST(BatchLayout, StripeStrideIsCacheLinePadded) {
  // Stride rounds nodes up to a whole line of doubles and never down.
  for (const std::size_t nodes :
       {std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{9},
        std::size_t{200}, std::size_t{1000}, std::size_t{1001}}) {
    const std::size_t stride = sim::MultiSourceResult::stride_for(nodes);
    EXPECT_GE(stride, nodes);
    EXPECT_EQ(stride % sim::MultiSourceResult::kLineDoubles, 0u)
        << "nodes=" << nodes;
    EXPECT_LT(stride - nodes, sim::MultiSourceResult::kLineDoubles);
  }
}

TEST(BatchLayout, AdjacentStripesNeverShareACacheLine) {
  // An unpadded n (not a multiple of 8 doubles) is the regression shape:
  // stripe s's last element and stripe s+1's first must sit on different
  // lines once the engine has laid the arena out.
  net::NetworkOptions options;
  options.n = 101;  // deliberately line-misaligned
  options.seed = 5;
  const net::Network network = net::Network::build(options);
  net::Topology topology(options.n);
  util::Rng rng(5);
  topo::build_random(topology, rng);
  const net::CsrTopology csr = net::CsrTopology::build(topology, network);

  const std::vector<net::NodeId> sources{0, 1, 2, 3};
  sim::MultiSourceScratch scratch;
  sim::MultiSourceResult result;
  sim::simulate_broadcast_batch(csr, sources, scratch, result);

  ASSERT_EQ(result.nodes, options.n);
  for (std::size_t s = 0; s + 1 < sources.size(); ++s) {
    const auto last =
        reinterpret_cast<std::uintptr_t>(&result.arrival_of(s).back());
    const auto next =
        reinterpret_cast<std::uintptr_t>(&result.arrival_of(s + 1).front());
    EXPECT_NE(last / kLine, next / kLine) << "stripe " << s;
    const auto rlast =
        reinterpret_cast<std::uintptr_t>(&result.ready_of(s).back());
    const auto rnext =
        reinterpret_cast<std::uintptr_t>(&result.ready_of(s + 1).front());
    EXPECT_NE(rlast / kLine, rnext / kLine) << "ready stripe " << s;
  }
  // The pad tail is invisible to consumers: spans are exactly nodes long.
  EXPECT_EQ(result.arrival_of(0).size(), result.nodes);
  EXPECT_EQ(result.arrival.size(), sources.size() * result.stride());
}

TEST(BatchLayout, ScratchLanesStartOnTheirOwnCacheLine) {
  sim::MultiSourceScratch scratch;
  scratch.ensure_lanes(4);
  for (std::size_t i = 0; i < scratch.lanes(); ++i) {
    const auto addr = reinterpret_cast<std::uintptr_t>(&scratch.lane(i));
    EXPECT_EQ(addr % kLine, 0u) << "lane " << i;
  }
}

}  // namespace
}  // namespace perigee

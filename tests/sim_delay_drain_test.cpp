// The delay solver's whole-bucket drain on the two sides of its ceiling.
//
// The bucket walk takes one bucket at a time, drops its stale entries and
// settles the rest in (qkey, key bits, node) order. That is the per-pop
// settle sequence only while the bucket width stays <= min δ / 2, so a
// snapshot whose ring budget widens the plan past that ceiling goes to the
// 4-ary heap instead. Two snapshots sit on either side of the line: one
// whose plan is exactly at the ceiling (the widest width the drain takes)
// and one a shift past it. On both, every source's arrival and ready
// stripes, and λ at 90%, 50% and 100% coverage, must equal the test
// oracle's (tests/broadcast_oracle.hpp) byte for byte, inline and pooled.
//
// The graph is built to exercise what the drain has to get right: δ on a
// 2^-12 ms lattice gives equal-arrival groups and several distinct
// arrivals inside one bucket; some nodes withhold (they settle but relay
// nothing); every node, the source included, has a nonzero Δv; and the λ
// passes stop inside a bucket with settles still pending in it.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <optional>
#include <vector>

#include "broadcast_oracle.hpp"
#include "metrics/eval.hpp"
#include "net/csr.hpp"
#include "obs/metrics.hpp"
#include "runner/thread_pool.hpp"
#include "sim/batch.hpp"
#include "sim/bucket_queue.hpp"
#include "sim/coverage.hpp"
#include "util/rng.hpp"

namespace perigee {
namespace {

constexpr std::size_t kNodes = 48;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// The plan the delay solver derives for `csr` (sim/batch.cpp's make_plan),
// before its ceiling check.
std::optional<sim::BucketQueueBase::FixedPlan> delay_plan(
    const net::CsrTopology& csr) {
  const double reach = csr.max_delay_ms() + csr.max_validation_ms();
  const double max_key = (static_cast<double>(csr.size()) + 1.0) * reach * 2.0;
  return sim::BucketQueueBase::plan_fixed(csr.min_delay_ms(), reach, max_key);
}

net::Network make_network() {
  net::NetworkOptions options;
  options.n = kNodes;
  options.seed = 9;
  net::Network network = net::Network::build(options);
  auto& profiles = network.mutable_profiles();
  for (std::size_t v = 0; v < kNodes; ++v) {
    profiles[v].validation_ms = 2.0 + 0.5 * static_cast<double>(v % 3);
    profiles[v].forwards = v % 7 != 3;
    profiles[v].hash_power = 1.0 + static_cast<double>(v % 4);
  }
  return network;
}

// A ring plus random chords, every link an infra link with δ on a 2^-12 ms
// lattice, plus one link of δ `tiny` between nodes 0 and kNodes / 2: the
// minimum δ, which fixes the bucket width.
net::Topology make_topology(double tiny) {
  net::Topology topology(kNodes);
  util::Rng rng(17);
  const auto lattice_delay = [&rng] {
    return 50.0 + static_cast<double>(rng.uniform_index(6)) +
           0x1p-12 * static_cast<double>(rng.uniform_index(3));
  };
  EXPECT_TRUE(topology.add_infra_edge(0, kNodes / 2, tiny));
  for (net::NodeId v = 0; v < kNodes; ++v) {
    topology.add_infra_edge(v, (v + 1) % kNodes, lattice_delay());
  }
  for (std::size_t k = 0; k < 2 * kNodes; ++k) {
    const auto u = static_cast<net::NodeId>(rng.uniform_index(kNodes));
    const auto v = static_cast<net::NodeId>(rng.uniform_index(kNodes));
    if (u != v) topology.add_infra_edge(u, v, lattice_delay());
  }
  return topology;
}

// The tiny δ, scanned downwards from 1/64 ms, at which the plan's shift
// first sits `past` shifts beyond its ceiling.
double tiny_delay_at(const net::Network& network, int past) {
  for (double tiny = 0x1p-6; tiny > 0x1p-14; tiny *= 0.97) {
    const auto csr = net::CsrTopology::build(make_topology(tiny), network);
    const auto plan = delay_plan(csr);
    if (plan.has_value() && plan->shift == plan->ceiling + past) return tiny;
  }
  ADD_FAILURE() << "no tiny delay puts the plan " << past
                << " shifts past its ceiling";
  return 0x1p-6;
}

std::uint64_t counter(const char* name) {
  return obs::Registry::instance().scrape().counter(name);
}

// Every source, through the round shape (arrival and ready stripes) and
// the λ shape, inline and on a 3-worker pool, against the oracle. With
// telemetry, also checks that `heap_sources` of the 4·kNodes sources took
// the delay solver's heap and the rest its buckets.
void expect_oracle_parity(const net::Topology& topology,
                          const net::Network& network,
                          std::uint64_t heap_sources) {
  const net::CsrTopology csr = net::CsrTopology::build(topology, network);
  std::vector<net::NodeId> sources(kNodes);
  for (net::NodeId v = 0; v < kNodes; ++v) sources[v] = v;
  const std::vector<double> coverages = {0.90, 0.50, 1.0};
  const sim::CoverageTargets targets(network, coverages);

  const bool live = obs::telemetry_compiled() &&
                    obs::Registry::instance().enabled();
  const std::uint64_t heap_before = counter("engine.heap.sources");
  const std::uint64_t bucket_before = counter("engine.bucket.sources");

  sim::MultiSourceScratch scratch;
  runner::ThreadPool pool(3);
  for (runner::ThreadPool* workers : {static_cast<runner::ThreadPool*>(nullptr),
                                      &pool}) {
    SCOPED_TRACE(workers == nullptr ? "inline" : "pooled");
    sim::MultiSourceResult out;
    sim::simulate_broadcast_batch(csr, sources, scratch, out, workers);
    sim::CoverageTimes times;
    sim::coverage_batch(csr, sources, scratch, targets, times, workers);
    for (std::size_t s = 0; s < kNodes; ++s) {
      const sim::BroadcastResult want =
          oracle::simulate_broadcast(topology, network, sources[s]);
      const auto arrival = out.arrival_of(s);
      const auto ready = out.ready_of(s);
      for (std::size_t v = 0; v < kNodes; ++v) {
        ASSERT_TRUE(same_bits(arrival[v], want.arrival[v]))
            << "source " << s << " node " << v;
        ASSERT_TRUE(same_bits(ready[v], want.ready[v]))
            << "source " << s << " node " << v;
      }
      for (std::size_t k = 0; k < coverages.size(); ++k) {
        ASSERT_TRUE(same_bits(
            times[k][s],
            metrics::lambda_for_broadcast(want, network, coverages[k])))
            << "source " << s << " coverage " << coverages[k];
      }
    }
  }
  if (!live) return;
  // Two batches (round shape, λ shape) of kNodes sources, twice.
  EXPECT_EQ(counter("engine.heap.sources") - heap_before, heap_sources);
  EXPECT_EQ(counter("engine.bucket.sources") - bucket_before,
            4 * kNodes - heap_sources);
}

TEST(DelayDrain, PlanAtTheCeilingDrainsBucketsLikeTheOracle) {
  const net::Network network = make_network();
  const net::Topology topology = make_topology(tiny_delay_at(network, 0));
  const net::CsrTopology csr = net::CsrTopology::build(topology, network);
  const auto plan = delay_plan(csr);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->shift, plan->ceiling);
  ASSERT_GT(csr.min_validation_ms(), 0.0);

  // The data must hold what the drain has to get right. Per source: an
  // arrival time two nodes share, a bucket holding two distinct arrival
  // times, and a 90% λ pass that stops with a settle still pending in the
  // bucket it stops in (the closing settle is the first arrival after λ,
  // so a second node at or after it in that bucket).
  const auto bucket_of = [&plan](double t) {
    return static_cast<std::uint32_t>(t * plan->grid.scale) >> plan->shift;
  };
  int shared_times = 0;
  int mixed_buckets = 0;
  int exits_inside = 0;
  for (net::NodeId src = 0; src < kNodes; ++src) {
    const auto want = oracle::simulate_broadcast(topology, network, src);
    std::map<double, int> per_time;
    std::map<std::uint32_t, std::map<double, int>> per_bucket;
    for (const double t : want.arrival) {
      if (t == util::kInf) continue;
      ++per_time[t];
      ++per_bucket[bucket_of(t)][t];
    }
    for (const auto& [t, count] : per_time) shared_times += count > 1;
    for (const auto& [b, times] : per_bucket) mixed_buckets += times.size() > 1;
    const double lambda = metrics::lambda_for_broadcast(want, network, 0.90);
    const auto closing = per_time.upper_bound(lambda);
    if (closing == per_time.end()) continue;
    int pending = 0;
    for (const auto& [t, count] : per_bucket[bucket_of(closing->first)]) {
      if (t >= closing->first) pending += count;
    }
    exits_inside += pending > 1;
  }
  EXPECT_GT(shared_times, 0);
  EXPECT_GT(mixed_buckets, 0);
  EXPECT_GT(exits_inside, 0);

  expect_oracle_parity(topology, network, 0);
}

TEST(DelayDrain, PlanPastTheCeilingTakesTheHeap) {
  const net::Network network = make_network();
  const net::Topology topology = make_topology(tiny_delay_at(network, 1));
  const net::CsrTopology csr = net::CsrTopology::build(topology, network);
  const auto plan = delay_plan(csr);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->shift, plan->ceiling + 1);

  expect_oracle_parity(topology, network, 4 * kNodes);
}

}  // namespace
}  // namespace perigee

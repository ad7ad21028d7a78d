// Property tests for the batch driver's monotone bucket queue: pops are
// globally non-decreasing in (key, node), nothing is lost or duplicated,
// and — the property the engines' byte-parity rests on — the pop sequence
// is *exactly* std::priority_queue<pair, greater<>> order for any monotone
// push/pop interleaving, including boundary keys, duplicates, and spans
// that force the bucket ring to grow and remap. Whole-bucket takes, the
// delay solver's drain, must hand over exactly the next run of those pops.
// The egress solver's entry gets the same mirror against a (time, seq)
// priority queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <queue>
#include <utility>
#include <vector>

#include "sim/batch.hpp"
#include "sim/bucket_queue.hpp"
#include "util/rng.hpp"

namespace perigee {
namespace {

using Item = std::pair<double, net::NodeId>;
using MinHeap = std::priority_queue<Item, std::vector<Item>, std::greater<>>;
using Queue = sim::BucketQueue<sim::RelaxEntry>;

// The fixed-point plan for a workload whose steps stay under `max_step` and
// whose keys stay under `max_key`. plan_fixed starts from the widest
// power-of-two width <= min_delay / 16, so min_delay = 16 * width yields a
// bucket width of at most `width` (exactly `width` for powers of two).
sim::BucketQueueBase::FixedPlan plan_for(double width, double max_step,
                                     double max_key) {
  return sim::BucketQueueBase::plan_fixed(16.0 * width, max_step, max_key)
      .value();
}

// Drives the queue and the reference heap through one random monotone
// workload: pushes stay >= the last popped key, interleaving is random.
// Fills `popped` with the popped sequence; asserts pq equivalence along the
// way (void so gtest fatal assertions are usable).
void run_mirrored(Queue& queue, util::Rng& rng,
                  const sim::BucketQueueBase::FixedPlan& plan, int ops,
                  double max_step, std::vector<Item>& popped) {
  queue.reset(plan);
  const double width = plan.width();
  popped.clear();
  MinHeap reference;
  double last_pop = 0.0;
  for (int i = 0; i < ops; ++i) {
    const bool do_push = reference.empty() || rng.uniform() < 0.55;
    if (do_push) {
      // Keys cluster near the monotone frontier, with occasional exact
      // bucket-boundary keys and exact duplicates of the last pop.
      double key = last_pop + rng.uniform() * max_step;
      const double r = rng.uniform();
      if (r < 0.1) key = last_pop;  // duplicate frontier key
      if (r >= 0.1 && r < 0.2) {
        // Exact bucket boundary: multiples of width are the fp edge case.
        key = width * static_cast<double>(static_cast<int>(key / width) + 1);
      }
      const auto node = static_cast<net::NodeId>(rng.uniform_index(64));
      queue.push(key, node);
      reference.emplace(key, node);
    } else {
      const auto [key, node] = reference.top();
      reference.pop();
      const sim::RelaxEntry got = queue.pop();
      ASSERT_EQ(got.key, key) << "op " << i;
      ASSERT_EQ(got.node, node) << "op " << i;
      popped.emplace_back(got.key, got.node);
      last_pop = key;
    }
    ASSERT_EQ(queue.size(), reference.size()) << "op " << i;
  }
  while (!reference.empty()) {
    const auto [key, node] = reference.top();
    reference.pop();
    const sim::RelaxEntry got = queue.pop();
    ASSERT_EQ(got.key, key);
    ASSERT_EQ(got.node, node);
    popped.emplace_back(got.key, got.node);
  }
  EXPECT_TRUE(queue.empty());
}

TEST(BucketQueue, EquivalentToPriorityQueueOnRandomMonotoneWorkloads) {
  util::Rng rng(1);
  Queue queue;  // deliberately reused across widths and seeds
  std::vector<Item> popped;
  for (const double width : {0.5, 1.0, 3.0, 0.01}) {
    // Keys grow by at most one step per pop: 400 ops stay under 400 steps.
    const auto plan = plan_for(width, width * 40.0, width * 40.0 * 800.0);
    for (int round = 0; round < 8; ++round) {
      run_mirrored(queue, rng, plan, 400, width * 40.0, popped);
    }
  }
}

TEST(BucketQueue, PopsAreMonotoneNonDecreasing) {
  util::Rng rng(2);
  Queue queue;
  std::vector<Item> popped;
  run_mirrored(queue, rng, plan_for(2.0, 25.0, 25.0 * 2400.0), 1200, 25.0,
               popped);
  ASSERT_FALSE(popped.empty());
  for (std::size_t i = 1; i < popped.size(); ++i) {
    // Keys never decrease: the monotone contract. (Node ids may — a push
    // at the frontier key with a smaller node id legally pops next.)
    EXPECT_LE(popped[i - 1].first, popped[i].first) << "pop " << i;
  }
}

TEST(BucketQueue, NoEntryLostOrDuplicated) {
  util::Rng rng(3);
  Queue queue;
  queue.reset(plan_for(1.0, 10.0, 10.0 * 6000.0));
  std::map<std::pair<double, net::NodeId>, int> pushed;
  double frontier = 0.0;
  for (int i = 0; i < 3000; ++i) {
    const double key = frontier + rng.uniform() * 10.0;
    const auto node = static_cast<net::NodeId>(rng.uniform_index(16));
    queue.push(key, node);
    ++pushed[{key, node}];
    // Drain a little so the frontier moves and buckets recycle.
    if (rng.uniform() < 0.3 && !queue.empty()) {
      const auto e = queue.pop();
      frontier = e.key;
      --pushed[{e.key, e.node}];
    }
  }
  while (!queue.empty()) {
    const auto e = queue.pop();
    --pushed[{e.key, e.node}];
  }
  for (const auto& [entry, count] : pushed) {
    EXPECT_EQ(count, 0) << "key " << entry.first << " node " << entry.second;
  }
}

TEST(BucketQueue, RingGrowthPreservesOrder) {
  // Push a burst, then a key far enough ahead to force several doublings of
  // the ring while earlier entries are still pending.
  Queue queue;
  queue.reset(plan_for(1.0, 30.0, 1e6));
  util::Rng rng(4);
  MinHeap reference;
  for (int i = 0; i < 50; ++i) {
    const double key = rng.uniform() * 30.0;
    queue.push(key, static_cast<net::NodeId>(i));
    reference.emplace(key, static_cast<net::NodeId>(i));
  }
  for (const double far : {5000.0, 80000.0, 500000.0}) {
    queue.push(far, net::NodeId{999});
    reference.emplace(far, 999);
  }
  while (!reference.empty()) {
    const auto [key, node] = reference.top();
    reference.pop();
    const auto got = queue.pop();
    EXPECT_EQ(got.key, key);
    EXPECT_EQ(got.node, node);
  }
  EXPECT_TRUE(queue.empty());
}

TEST(BucketQueue, ResetDiscardsPendingEntries) {
  Queue queue;
  queue.reset(plan_for(1.0, 1.0, 200.0));
  for (int i = 0; i < 100; ++i) {
    queue.push(static_cast<double>(i) * 0.7, static_cast<net::NodeId>(i));
  }
  EXPECT_EQ(queue.size(), 100u);
  queue.reset(plan_for(0.25, 1.0, 200.0));
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.width(), 0.25);
  queue.push(3.0, net::NodeId{7});
  const auto e = queue.pop();
  EXPECT_EQ(e.key, 3.0);
  EXPECT_EQ(e.node, 7u);
}

// ---- ties and 1-ulp neighbors ------------------------------------------
//
// Quantization may only coarsen the bucket index, never reorder pops:
// qkey ties fall through to the exact double key, so the pop sequence is
// still *exactly* std::priority_queue<pair<double, NodeId>, greater<>>
// order.

// Same harness as run_mirrored but with tie and 1-ulp-apart keys mixed in:
// those collide to one qkey, so ordering must come from the exact double
// compare behind it.
void run_mirrored_fixed(Queue& queue, util::Rng& rng,
                        const sim::BucketQueueBase::FixedPlan& plan, int ops,
                        double max_step, std::vector<Item>& popped) {
  queue.reset(plan);
  const double gen_width = plan.width();
  popped.clear();
  MinHeap reference;
  double last_pop = 0.0;
  const auto push_both = [&](double key, net::NodeId node) {
    queue.push(key, node);
    reference.emplace(key, node);
  };
  for (int i = 0; i < ops; ++i) {
    const bool do_push = reference.empty() || rng.uniform() < 0.55;
    if (do_push) {
      double key = last_pop + rng.uniform() * max_step;
      const double r = rng.uniform();
      if (r < 0.1) key = last_pop;  // exact duplicate of the frontier
      if (r >= 0.1 && r < 0.2) {
        // Exact quantization-grid boundary: multiples of the bucket width.
        key = gen_width *
              static_cast<double>(static_cast<int>(key / gen_width) + 1);
      }
      const auto node = static_cast<net::NodeId>(rng.uniform_index(64));
      push_both(key, node);
      if (r >= 0.2 && r < 0.35) {
        // A 1-ulp neighbor: same qkey, strictly greater double key. Must
        // pop after `key` regardless of node id or push order.
        push_both(std::nextafter(key, std::numeric_limits<double>::infinity()),
                  static_cast<net::NodeId>(rng.uniform_index(64)));
      }
      if (r >= 0.35 && r < 0.45) {
        // Exact key tie with a different node: pops in node order.
        push_both(key, static_cast<net::NodeId>(rng.uniform_index(64)));
      }
    } else {
      const auto [key, node] = reference.top();
      reference.pop();
      const sim::RelaxEntry got = queue.pop();
      ASSERT_EQ(got.key, key) << "op " << i;
      ASSERT_EQ(got.node, node) << "op " << i;
      popped.emplace_back(got.key, got.node);
      last_pop = key;
    }
    ASSERT_EQ(queue.size(), reference.size()) << "op " << i;
  }
  while (!reference.empty()) {
    const auto [key, node] = reference.top();
    reference.pop();
    const sim::RelaxEntry got = queue.pop();
    ASSERT_EQ(got.key, key);
    ASSERT_EQ(got.node, node);
    popped.emplace_back(got.key, got.node);
  }
  EXPECT_TRUE(queue.empty());
}

TEST(BucketQueueFixed, MatchesPriorityQueueOnRandomMonotoneWorkloads) {
  util::Rng rng(21);
  Queue queue;  // reused across plans: reset must fully rewind
  std::vector<Item> popped;
  // (min_delay, max_reach) pairs spanning fine and coarse grids; max_key
  // mirrors the engines' slack bound (2x reach).
  const std::pair<double, double> ranges[] = {
      {0.5, 20000.0}, {6.0, 9000.0}, {0.03, 800.0}};
  for (const auto& [min_delay, reach] : ranges) {
    const auto plan =
        sim::BucketQueueBase::plan_fixed(min_delay, reach, reach * 2.0);
    ASSERT_TRUE(plan.has_value()) << "min_delay " << min_delay;
    for (int round = 0; round < 6; ++round) {
      run_mirrored_fixed(queue, rng, *plan, 500, min_delay * 30.0, popped);
      ASSERT_FALSE(popped.empty());
    }
  }
}

TEST(BucketQueueFixed, PlanRejectsDegenerateRanges) {
  // min-δ = 0 quantizes to 0 -> no power-of-two bucket width exists -> the
  // engine must fall back to the d-ary heap (batch.cpp's plan).
  EXPECT_FALSE(sim::BucketQueueBase::plan_fixed(0.0, 100.0, 200.0).has_value());
  EXPECT_FALSE(
      sim::BucketQueueBase::plan_fixed(-1.0, 100.0, 200.0).has_value());
  EXPECT_FALSE(
      sim::BucketQueueBase::plan_fixed(std::numeric_limits<double>::infinity(),
                                   100.0, 200.0)
          .has_value());
  EXPECT_FALSE(sim::BucketQueueBase::plan_fixed(
                   1.0, std::numeric_limits<double>::infinity(), 200.0)
                   .has_value());
  // A key span over ~2^31x the min delay cannot both hold max_key in the
  // u32 image and resolve min_delay to the >= 2 grid units a power-of-two
  // width needs.
  EXPECT_FALSE(sim::BucketQueueBase::plan_fixed(1e-6, 5e6, 1e7).has_value());
  // A huge reach/min-delay ratio alone is fine: the plan widens buckets to
  // fit the ring budget (pop order still exact via the sorted active
  // bucket), past the ceiling whole-bucket takes need.
  const auto wide = sim::BucketQueueBase::plan_fixed(1e-6, 1e3, 2e3);
  ASSERT_TRUE(wide.has_value());
  EXPECT_FALSE(wide->within_ceiling());
  // Ordinary simulation scales are in, and when no widening is needed the
  // derived width brackets min_delay into [16*width, 32*width) — the
  // occupancy sweet spot, well under the delta-stepping ceiling, so thin
  // buckets keep the active-bucket sort near-free.
  const auto plan = sim::BucketQueueBase::plan_fixed(6.0, 2000.0, 4000.0);
  ASSERT_TRUE(plan.has_value());
  EXPECT_LE(plan->width() * 16.0, 6.0);
  EXPECT_GT(plan->width() * 32.0, 6.0);
}

// ---- whole-bucket draining (the delay solver) --------------------------
//
// take_bucket hands over the smallest pending bucket unsorted, and
// sort_pop_order puts it in pop order. Under the delay solver's ceiling no
// push lands in a bucket already taken, so every take, sorted, must be
// exactly the reference heap's next pops, and what stays pending must lie
// in later buckets.

std::uint64_t bucket_of(const sim::BucketQueueBase::FixedPlan& plan,
                        double key) {
  return static_cast<std::uint32_t>(key * plan.grid.scale) >> plan.shift;
}

// Bytes behind the queue and the caller's take buffer together.
std::size_t drain_bytes(const Queue& queue,
                        const std::vector<sim::RelaxEntry>& taken) {
  return queue.memory_bytes() + taken.capacity() * sizeof(sim::RelaxEntry);
}

// Takes buckets until the queue is empty. After each take, every taken
// entry spawns up to three pushes at least two bucket widths past its key
// (the ceiling's guarantee), with exact ties and 1-ulp neighbors mixed in,
// until `budget` pushes were made. Checks each take against the reference
// heap, and that a take never allocates (it swaps storage).
void run_taken(Queue& queue, util::Rng& rng,
               const sim::BucketQueueBase::FixedPlan& plan, int budget,
               std::vector<sim::RelaxEntry>& taken, int& multi_takes) {
  queue.reset(plan);
  MinHeap reference;
  const double width = plan.width();
  const auto push_both = [&](double key, net::NodeId node) {
    queue.push(key, node);
    reference.emplace(key, node);
    --budget;
  };
  for (int i = 0; i < 6; ++i) {
    push_both(rng.uniform() * 40.0 * width,
              static_cast<net::NodeId>(rng.uniform_index(64)));
  }
  while (!queue.empty()) {
    const std::size_t bytes = drain_bytes(queue, taken);
    queue.take_bucket(taken);
    ASSERT_EQ(drain_bytes(queue, taken), bytes);
    ASSERT_FALSE(taken.empty());
    if (taken.size() > 1) ++multi_takes;
    Queue::sort_pop_order(taken.data(), taken.size());
    const std::uint64_t bucket = bucket_of(plan, taken.front().key);
    for (const sim::RelaxEntry& e : taken) {
      ASSERT_EQ(std::uint64_t{e.qkey} >> plan.shift, bucket);
      const auto [key, node] = reference.top();
      reference.pop();
      ASSERT_EQ(e.key, key);
      ASSERT_EQ(e.node, node);
    }
    ASSERT_EQ(queue.size(), reference.size());
    if (!reference.empty()) {
      ASSERT_GT(bucket_of(plan, reference.top().first), bucket);
    }
    for (const sim::RelaxEntry& e : taken) {
      const auto spawn = rng.uniform_index(4);
      for (std::uint64_t k = 0; k < spawn && budget > 0; ++k) {
        const double key = e.key + 2.0 * width + rng.uniform() * 30.0 * width;
        const auto node = static_cast<net::NodeId>(rng.uniform_index(64));
        push_both(key, node);
        const double r = rng.uniform();
        if (r < 0.2) {
          push_both(key, static_cast<net::NodeId>(rng.uniform_index(64)));
        } else if (r < 0.35) {
          push_both(
              std::nextafter(key, std::numeric_limits<double>::infinity()),
              static_cast<net::NodeId>(rng.uniform_index(64)));
        }
      }
    }
  }
  EXPECT_TRUE(reference.empty());
}

TEST(BucketQueueTake, TakesAreTheSmallestBucketInPopOrder) {
  util::Rng rng(41);
  Queue queue;  // reused across plans and rounds
  std::vector<sim::RelaxEntry> taken;
  int multi_takes = 0;
  // The delay solver's plans: no widening (3 shifts under the ceiling) and
  // a reach wide enough to push the width up to the ceiling itself.
  for (const double reach : {40.0, 2.0e4}) {
    const auto plan = sim::BucketQueueBase::plan_fixed(1.0, reach, 1e7);
    ASSERT_TRUE(plan.has_value());
    ASSERT_TRUE(plan->within_ceiling());
    for (int round = 0; round < 8; ++round) {
      run_taken(queue, rng, *plan, 800, taken, multi_takes);
    }
  }
  EXPECT_GT(multi_takes, 50);
}

TEST(BucketQueueTake, InterleavesWithPopAndReset) {
  // A take after pops resumes at the smallest pending bucket, and a reset
  // drops what is pending, taken buffer untouched.
  Queue queue;
  const auto plan = plan_for(1.0, 10.0, 1e4);
  queue.reset(plan);
  for (const double key : {0.5, 0.25, 3.5, 3.25, 3.5, 9.0}) {
    queue.push(key, static_cast<net::NodeId>(key * 4.0));
  }
  EXPECT_EQ(queue.pop().key, 0.25);
  std::vector<sim::RelaxEntry> taken;
  queue.take_bucket(taken);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].key, 0.5);
  queue.take_bucket(taken);
  Queue::sort_pop_order(taken.data(), taken.size());
  ASSERT_EQ(taken.size(), 3u);
  EXPECT_EQ(taken[0].key, 3.25);
  EXPECT_EQ(taken[1].key, 3.5);
  EXPECT_EQ(taken[2].key, 3.5);
  queue.push(5.0, net::NodeId{1});
  EXPECT_EQ(queue.pop().key, 5.0);
  EXPECT_EQ(queue.size(), 1u);
  queue.reset(plan);
  EXPECT_TRUE(queue.empty());
  queue.push(2.0, net::NodeId{4});
  queue.take_bucket(taken);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].node, 4u);
  EXPECT_TRUE(queue.empty());
}

TEST(BucketQueueTake, RepeatedWorkloadStopsAllocating) {
  // A take swaps storage with the ring (run_taken checks that it never
  // allocates), so buffers migrate between slots and only grow until each
  // holds the largest bucket it meets: replaying one workload settles on a
  // fixed footprint instead of growing with every pass.
  Queue queue;
  std::vector<sim::RelaxEntry> taken;
  const auto plan = sim::BucketQueueBase::plan_fixed(1.0, 40.0, 1e7);
  ASSERT_TRUE(plan.has_value());
  int multi_takes = 0;
  std::vector<std::size_t> footprint;
  for (int pass = 0; pass < 40; ++pass) {
    util::Rng rng(42);
    run_taken(queue, rng, *plan, 600, taken, multi_takes);
    footprint.push_back(drain_bytes(queue, taken));
  }
  for (std::size_t pass = 30; pass < footprint.size(); ++pass) {
    EXPECT_EQ(footprint[pass], footprint.back()) << "pass " << pass;
  }
  EXPECT_LE(footprint.back(), 4 * footprint.front());
}

// ---- the egress solver's entry -----------------------------------------
//
// sim::EgressEvent orders by (time, seq), seq being the solver's monotone
// schedule counter. The egress loop pushes many events at exactly the time
// it is handling (zero validation, lattice delays), which lands them in
// the active, already-sorted bucket.

struct EventAfter {
  bool operator()(const sim::EgressEvent& a, const sim::EgressEvent& b) const {
    return b < a;
  }
};
using EventHeap = std::priority_queue<sim::EgressEvent,
                                      std::vector<sim::EgressEvent>,
                                      EventAfter>;
using EventQueue = sim::BucketQueue<sim::EgressEvent>;

// Mirrors the queue against the (time, seq) heap through `ops` random
// monotone operations. Times sit on a 0.25 ms lattice, so exact ties are
// common and only `seq` separates them; `far` > 0 adds pushes that far
// ahead of the frontier, which force the ring to grow while entries pend.
// Counts pushes that landed on the frontier's own time right after a pop
// (the active sorted bucket) in `active_pushes`.
void run_mirrored_events(EventQueue& queue, util::Rng& rng,
                         const sim::BucketQueueBase::FixedPlan& plan, int ops,
                         double far, int& active_pushes) {
  queue.reset(plan);
  EventHeap reference;
  std::uint32_t seq = 0;
  double last_pop = 0.0;
  bool just_popped = false;
  const auto pop_both = [&](int op) {
    const sim::EgressEvent want = reference.top();
    reference.pop();
    const sim::EgressEvent got = queue.pop();
    ASSERT_EQ(got.key, want.key) << "op " << op;
    ASSERT_EQ(got.seq, want.seq) << "op " << op;
    ASSERT_EQ(got.node, want.node) << "op " << op;
    ASSERT_EQ(got.kind, want.kind) << "op " << op;
    last_pop = want.key;
  };
  for (int i = 0; i < ops; ++i) {
    const bool do_push = reference.empty() || rng.uniform() < 0.6;
    if (do_push) {
      double time =
          last_pop + 0.25 * static_cast<double>(rng.uniform_index(40));
      const double r = rng.uniform();
      if (r < 0.35) time = last_pop;  // an event at the time being handled
      if (far > 0.0 && r > 0.98) time = last_pop + far * rng.uniform();
      if (time == last_pop && just_popped) ++active_pushes;
      const auto node = static_cast<net::NodeId>(rng.uniform_index(32));
      const auto kind = static_cast<std::uint8_t>(rng.uniform_index(4));
      queue.push(time, node, seq, kind);
      reference.push({time, 0, node, seq, kind});
      ++seq;
      just_popped = false;
    } else {
      pop_both(i);
      just_popped = true;
    }
    ASSERT_EQ(queue.size(), reference.size()) << "op " << i;
  }
  while (!reference.empty()) pop_both(ops);
  EXPECT_TRUE(queue.empty());
}

TEST(BucketQueueEgress, MatchesTimeSeqPriorityQueue) {
  util::Rng rng(31);
  EventQueue queue;  // reused across plans and rounds
  int active_pushes = 0;
  // (min δ, reach) pairs: a fine grid where lattice ties share thin
  // buckets, and a coarse one where many distinct times share a bucket.
  const std::pair<double, double> ranges[] = {{1.0, 12.0}, {0.01, 4000.0}};
  for (const auto& [min_delay, reach] : ranges) {
    const auto plan =
        sim::BucketQueueBase::plan_fixed(min_delay, reach, 1e6);
    ASSERT_TRUE(plan.has_value()) << "min_delay " << min_delay;
    for (int round = 0; round < 6; ++round) {
      run_mirrored_events(queue, rng, *plan, 600, 0.0, active_pushes);
    }
  }
  EXPECT_GT(active_pushes, 100);
}

TEST(BucketQueueEgress, RingGrowthKeepsTimeSeqOrder) {
  util::Rng rng(32);
  EventQueue queue;
  int active_pushes = 0;
  const auto plan = sim::BucketQueueBase::plan_fixed(1.0, 12.0, 1e6);
  ASSERT_TRUE(plan.has_value());
  // Spans of up to 40000 ms against a 1/16 ms bucket width outgrow the
  // initial 64-slot ring many times over.
  for (int round = 0; round < 4; ++round) {
    run_mirrored_events(queue, rng, *plan, 800, 40000.0, active_pushes);
  }
  // The ring grew from 64 slots to at least 2^16.
  EXPECT_GE(queue.memory_bytes(),
            (std::size_t{1} << 16) * sizeof(std::vector<sim::EgressEvent>));
  EXPECT_GT(active_pushes, 0);
}

// ---- the announce solver's entry ---------------------------------------
//
// sim::AnnounceEntry orders by (time, to, from), node and announcer packed
// into one u64 tie. Lattice times and eight ids make exact key ties, and
// ties down to the node, common; the bucket queue and the solver's 4-ary
// heap fallback must both pop in std::priority_queue order.

struct AnnounceAfter {
  bool operator()(const sim::AnnounceEntry& a,
                  const sim::AnnounceEntry& b) const {
    return b < a;
  }
};

TEST(BucketQueueAnnounce, BucketsAndHeapMatchTimeToFromPriorityQueue) {
  util::Rng rng(33);
  sim::BucketQueue<sim::AnnounceEntry> queue;
  const auto plan = sim::BucketQueueBase::plan_fixed(1.0, 12.0, 1e6);
  ASSERT_TRUE(plan.has_value());
  const auto same = [](const sim::AnnounceEntry& a,
                       const sim::AnnounceEntry& b) {
    return a.key == b.key && a.node == b.node && a.announcer == b.announcer;
  };
  for (int round = 0; round < 6; ++round) {
    queue.reset(*plan);
    std::priority_queue<sim::AnnounceEntry, std::vector<sim::AnnounceEntry>,
                        AnnounceAfter>
        reference;
    std::vector<sim::AnnounceEntry> heap;
    double last_pop = 0.0;
    for (int op = 0; op < 600 || !reference.empty(); ++op) {
      if (op < 600 && (reference.empty() || rng.uniform() < 0.6)) {
        const double time =
            last_pop + 0.25 * static_cast<double>(rng.uniform_index(40));
        const auto node = static_cast<net::NodeId>(rng.uniform_index(8));
        const auto from = static_cast<net::NodeId>(rng.uniform_index(8));
        queue.push(time, node, from);
        reference.push({time, 0, node, from});
        sim::heap_push(heap, {time, 0, node, from});
      } else {
        const sim::AnnounceEntry want = reference.top();
        reference.pop();
        ASSERT_TRUE(same(queue.pop(), want)) << "op " << op;
        ASSERT_TRUE(same(sim::heap_pop(heap), want)) << "op " << op;
        last_pop = want.key;
      }
    }
    EXPECT_TRUE(queue.empty());
  }
}

}  // namespace
}  // namespace perigee

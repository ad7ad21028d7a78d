#include "core/ucb.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>

#include "sim/rounds.hpp"
#include "topo/builders.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perigee::core {
namespace {

struct World {
  explicit World(const std::vector<double>& xs) {
    net::NetworkOptions options;
    options.n = xs.size();
    options.latency = net::NetworkOptions::LatencyKind::Euclidean;
    options.embed_dim = 1;
    options.embed_scale_ms = 1.0;
    options.handshake_factor = 1.0;
    options.validation_mean_ms = 0.0;
    options.validation_spread = 0.0;
    network.emplace(net::Network::build(options));
    auto& profiles = network->mutable_profiles();
    for (std::size_t i = 0; i < xs.size(); ++i) {
      profiles[i].coords = {xs[i], 0, 0, 0, 0};
      profiles[i].hash_power = 0.0;
    }
  }
  std::optional<net::Network> network;
};

TEST(UcbBounds, ShrinkWithMoreSamples) {
  PerigeeParams params;
  params.ucb_c = 100.0;
  UcbSelector selector(params);
  // Unknown neighbor: zero samples -> infinite pessimism.
  const auto none = selector.bounds_for(42);
  EXPECT_EQ(none.samples, 0u);
  EXPECT_TRUE(std::isinf(none.estimate));
  EXPECT_TRUE(std::isinf(none.lcb));
}

TEST(UcbBounds, HalfWidthFormula) {
  // Drive samples through a real round so the arm fills, then check the
  // bound width against Eq. (3)-(4).
  World w({0.0, 10.0, 50.0, 200.0});
  w.network->mutable_profiles()[3].hash_power = 1.0;

  net::Topology t(4, {.out_cap = 2, .in_cap = 20});
  ASSERT_TRUE(t.connect(0, 1));
  ASSERT_TRUE(t.connect(0, 2));
  ASSERT_TRUE(t.connect(3, 1));
  ASSERT_TRUE(t.connect(3, 2));

  PerigeeParams params;
  params.ucb_c = 100.0;
  auto* ucb = new UcbSelector(params);
  std::vector<std::unique_ptr<sim::NeighborSelector>> selectors;
  selectors.emplace_back(ucb);
  for (int i = 1; i < 4; ++i) {
    selectors.push_back(std::make_unique<sim::StaticSelector>());
  }
  const int blocks = 16;
  sim::RoundRunner runner(*w.network, t, std::move(selectors), blocks, 5);
  runner.run_round();

  const auto b1 = ucb->bounds_for(1);
  ASSERT_EQ(b1.samples, static_cast<std::size_t>(blocks));
  const double expect_half =
      100.0 * std::sqrt(std::log(16.0) / (2.0 * 16.0));
  EXPECT_NEAR(b1.ucb - b1.estimate, expect_half, 1e-9);
  EXPECT_NEAR(b1.estimate - b1.lcb, expect_half, 1e-9);
  // Deterministic deliveries: rel times are constant, estimate == value.
  // Node 1 (x=10) always beats node 2 (x=50): rel(1)=0, rel(2)=40... but
  // echoes through 0 cap node 2's delivery at 10+0+50=60 vs direct 150+50.
  EXPECT_DOUBLE_EQ(b1.estimate, 0.0);
}

TEST(Ucb, DisconnectsStatisticallyWorseNeighbor) {
  // Node 0 dials two neighbors fed directly by the miner. On a line the
  // positional terms cancel, so the neighbors are separated by validation
  // delay: node 2 validates 80 ms slower and is the statistically worse
  // arm. With a small c the intervals separate after a handful of 1-block
  // rounds and the slow neighbor must be dropped.
  World w({0.0, 10.0, 800.0, 1000.0});
  w.network->mutable_profiles()[3].hash_power = 1.0;
  w.network->mutable_profiles()[2].validation_ms = 80.0;
  net::Topology t(4, {.out_cap = 2, .in_cap = 20});
  ASSERT_TRUE(t.connect(0, 1));
  ASSERT_TRUE(t.connect(0, 2));
  ASSERT_TRUE(t.connect(3, 1));
  ASSERT_TRUE(t.connect(3, 2));

  PerigeeParams params;
  params.ucb_c = 10.0;
  std::vector<std::unique_ptr<sim::NeighborSelector>> selectors;
  selectors.push_back(std::make_unique<UcbSelector>(params));
  for (int i = 1; i < 4; ++i) {
    selectors.push_back(std::make_unique<sim::StaticSelector>());
  }
  sim::RoundRunner runner(*w.network, t, std::move(selectors), 1, 6);
  runner.run_rounds(10);

  EXPECT_TRUE(t.has_out(0, 1));   // fast neighbor kept
  EXPECT_FALSE(t.has_out(0, 2));  // slow neighbor evicted
  EXPECT_EQ(t.out_count(0), 2);   // replacement dialed
}

TEST(Ucb, LargeCPreventsHastyEviction) {
  // Same geometry, but with a huge confidence constant the intervals always
  // overlap: nothing may be disconnected.
  World w({0.0, 10.0, 800.0, 1000.0});
  w.network->mutable_profiles()[3].hash_power = 1.0;
  w.network->mutable_profiles()[2].validation_ms = 80.0;
  net::Topology t(4, {.out_cap = 2, .in_cap = 20});
  ASSERT_TRUE(t.connect(0, 1));
  ASSERT_TRUE(t.connect(0, 2));
  ASSERT_TRUE(t.connect(3, 1));
  ASSERT_TRUE(t.connect(3, 2));

  PerigeeParams params;
  params.ucb_c = 1e7;
  std::vector<std::unique_ptr<sim::NeighborSelector>> selectors;
  selectors.push_back(std::make_unique<UcbSelector>(params));
  for (int i = 1; i < 4; ++i) {
    selectors.push_back(std::make_unique<sim::StaticSelector>());
  }
  sim::RoundRunner runner(*w.network, t, std::move(selectors), 1, 7);
  runner.run_rounds(10);
  EXPECT_TRUE(t.has_out(0, 1));
  EXPECT_TRUE(t.has_out(0, 2));
}

TEST(Ucb, WindowBoundsMemory) {
  World w({0.0, 10.0, 50.0, 200.0});
  w.network->mutable_profiles()[3].hash_power = 1.0;
  net::Topology t(4, {.out_cap = 2, .in_cap = 20});
  ASSERT_TRUE(t.connect(0, 1));
  ASSERT_TRUE(t.connect(0, 2));
  ASSERT_TRUE(t.connect(3, 1));
  ASSERT_TRUE(t.connect(3, 2));

  PerigeeParams params;
  params.ucb_c = 1e7;  // never evict, so arms only accumulate
  params.ucb_window = 8;
  auto* ucb = new UcbSelector(params);
  std::vector<std::unique_ptr<sim::NeighborSelector>> selectors;
  selectors.emplace_back(ucb);
  for (int i = 1; i < 4; ++i) {
    selectors.push_back(std::make_unique<sim::StaticSelector>());
  }
  sim::RoundRunner runner(*w.network, t, std::move(selectors), 1, 8);
  runner.run_rounds(50);
  EXPECT_EQ(ucb->bounds_for(1).samples, 8u);  // capped at the window
}

TEST(Ucb, SingleNeighborNeverDisconnected) {
  World w({0.0, 10.0});
  w.network->mutable_profiles()[1].hash_power = 1.0;
  net::Topology t(2, {.out_cap = 1, .in_cap = 20});
  ASSERT_TRUE(t.connect(0, 1));
  PerigeeParams params;
  params.ucb_c = 0.0;  // maximally trigger-happy
  std::vector<std::unique_ptr<sim::NeighborSelector>> selectors;
  selectors.push_back(std::make_unique<UcbSelector>(params));
  selectors.push_back(std::make_unique<sim::StaticSelector>());
  sim::RoundRunner runner(*w.network, t, std::move(selectors), 1, 9);
  runner.run_rounds(5);
  EXPECT_TRUE(t.has_out(0, 1));
}

// Wraps a UcbSelector and keeps a test-local oracle of one neighbor's
// window: a deque of its finite relative times, trimmed to the window.
struct WindowOracle final : sim::NeighborSelector {
  WindowOracle(PerigeeParams params, net::NodeId watched)
      : ucb(params),
        watched(watched),
        window(static_cast<std::size_t>(params.ucb_window)) {}

  void on_round_end(net::NodeId self, sim::RoundContext& ctx) override {
    const auto peers = ctx.obs.out_peers(self);
    for (std::size_t k = 0; k < peers.size(); ++k) {
      if (peers[k] != watched) continue;
      for (double t : ctx.obs.rel_times(self, k)) {
        if (!std::isfinite(t)) continue;
        history.push_back(t);
        recent.push_back(t);
        if (recent.size() > window) recent.pop_front();
      }
    }
    ucb.on_round_end(self, ctx);
  }
  const char* name() const override { return "ucb-window-oracle"; }

  double expected_estimate(double q) const {
    std::vector<double> sorted(recent.begin(), recent.end());
    std::sort(sorted.begin(), sorted.end());
    return util::percentile_sorted(sorted, q);
  }

  UcbSelector ucb;
  net::NodeId watched;
  std::size_t window;
  std::deque<double> recent;    // the oracle window
  std::vector<double> history;  // every sample fed, in order
};

// Node 0's only outgoing neighbor is 1 (so it is never disconnected); 2 is
// an incoming neighbor. Eight miners at distinct points feed both, so
// neighbor 1's relative time takes a few values per miner, in random order
// and with many repeats. Checks the arm's window against the oracle's after
// every round.
void expect_window_matches_oracle(double q, int window) {
  SCOPED_TRACE(testing::Message() << "q " << q << " window " << window);
  const std::vector<std::pair<double, double>> points = {
      {0, 0},    {10, 0},   {-10, 0}, {40, 30}, {-35, 20}, {5, -60},
      {-80, -5}, {70, -40}, {0, 90},  {-20, -45}, {25, 15}};
  net::NetworkOptions options;
  options.n = points.size();
  options.latency = net::NetworkOptions::LatencyKind::Euclidean;
  options.embed_dim = 2;
  options.embed_scale_ms = 1.0;
  options.handshake_factor = 1.0;
  options.validation_mean_ms = 0.0;
  options.validation_spread = 0.0;
  net::Network network = net::Network::build(options);
  auto& profiles = network.mutable_profiles();
  for (std::size_t i = 0; i < points.size(); ++i) {
    profiles[i].coords = {points[i].first, points[i].second, 0, 0, 0};
    profiles[i].hash_power = i >= 3 ? 1.0 : 0.0;
  }
  net::Topology t(points.size(), {.out_cap = 2, .in_cap = 20});
  ASSERT_TRUE(t.connect(0, 1));
  ASSERT_TRUE(t.connect(2, 0));
  for (net::NodeId m = 3; m < points.size(); ++m) {
    ASSERT_TRUE(t.connect(m, 1));
    ASSERT_TRUE(t.connect(m, 2));
  }

  PerigeeParams params;
  params.ucb_window = window;
  params.ucb_c = 0.0;
  params.percentile = q;
  auto* oracle = new WindowOracle(params, 1);
  std::vector<std::unique_ptr<sim::NeighborSelector>> selectors;
  selectors.emplace_back(oracle);
  for (std::size_t i = 1; i < points.size(); ++i) {
    selectors.push_back(std::make_unique<sim::StaticSelector>());
  }
  sim::RoundRunner runner(network, t, std::move(selectors), 1, 11);
  for (int round = 0; round < 300; ++round) {
    runner.run_round();
    ASSERT_TRUE(t.has_out(0, 1));
    const auto b = oracle->ucb.bounds_for(1);
    ASSERT_EQ(b.samples, oracle->recent.size()) << "round " << round;
    ASSERT_EQ(b.estimate, oracle->expected_estimate(q)) << "round " << round;
  }
  // The feed really overflowed the window with repeats and decreases.
  const auto& h = oracle->history;
  EXPECT_GT(h.size(), static_cast<std::size_t>(window));
  std::vector<double> distinct = h;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  EXPECT_GE(distinct.size(), 3u);
  EXPECT_LT(distinct.size(), h.size());
  EXPECT_FALSE(std::is_sorted(h.begin(), h.end()));
}

TEST(UcbArmWindow, EvictsOldestAndStaysSorted) {
  // The arm keeps only the n − ⌊q(n−1)⌋ largest samples sorted, so the
  // percentile sweeps the split: q = 0 keeps every sample sorted, q = 1
  // only the maximum.
  for (const double q : {0.0, 0.5, 0.9, 1.0}) {
    for (const int window : {1, 2, 7, 256}) {
      expect_window_matches_oracle(q, window);
    }
  }
}

// Sample `step` of a feed that stresses the split: random values, half of
// them from four repeated ones so ties straddle the boundary, then a
// falling run (every eviction from the sorted part needs a refill) and a
// rising run (every new sample enters the sorted part).
double split_feed(int step, util::Rng& rng) {
  if (step < 1000) {
    return rng.bernoulli(0.5) ? std::floor(rng.uniform(0.0, 4.0))
                              : rng.uniform(0.0, 4.0);
  }
  if (step < 2000) return 4.0 - 0.001 * (step - 1000);
  return 0.001 * (step - 2000);
}

TEST(UcbWindow, MatchesSortedOracleOnSplitStressFeeds) {
  for (const double q : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    for (const std::size_t capacity : {1, 2, 3, 7, 16, 256}) {
      SCOPED_TRACE(testing::Message() << "q " << q << " capacity "
                                      << capacity);
      util::Rng rng(17);
      UcbWindow window;
      std::deque<double> recent;
      std::vector<double> sorted;
      for (int step = 0; step < 3000; ++step) {
        if (step == 2500) {  // reused storage must start clean
          window.clear();
          recent.clear();
        }
        const double value = split_feed(step, rng);
        window.add(value, capacity, q);
        recent.push_back(value);
        if (recent.size() > capacity) recent.pop_front();
        sorted.assign(recent.begin(), recent.end());
        std::sort(sorted.begin(), sorted.end());
        ASSERT_EQ(window.size(), recent.size()) << "step " << step;
        ASSERT_EQ(window.percentile(q), util::percentile_sorted(sorted, q))
            << "step " << step;
      }
    }
  }
}

}  // namespace
}  // namespace perigee::core

// Engine micro-benchmarks (google-benchmark): per-block broadcast cost on
// every engine over a compiled CSR snapshot, CSR compile and refresh cost,
// message-level gossip cost, observation recording, scoring costs, and the
// sampling primitives.
// These bound the wall-clock of the figure benches: one Figure-3 curve is
// rounds x blocks broadcasts plus n subset-scorings per round.
//
// Two ratios at Arg(1000) — the fig3a grid size — are anchored and gated
// (scripts/check_bench_regression.py; ARCHITECTURE.md "Release perf truth"
// names the perfbench layer each one explains):
//  - BENCH_queuing.json: BM_BroadcastEgressUnlimited / BM_RelaxInnerLoop;
//  - BENCH_incremental_csr.json: BM_CsrChurnRefreshPatch /
//    BM_CsrChurnRefreshRebuild.
#include <benchmark/benchmark.h>

#include <array>
#include <span>

#include "core/perigee.hpp"
#include "obs/meta.hpp"
#include "metrics/eval.hpp"
#include "mining/sampler.hpp"
#include "net/csr.hpp"
#include "scenario/driver.hpp"
#include "sim/batch.hpp"
#include "sim/egress.hpp"
#include "sim/observations.hpp"
#include "sim/rounds.hpp"
#include "topo/builders.hpp"
#include "util/stats.hpp"

namespace {

using namespace perigee;

struct Fixture {
  explicit Fixture(std::size_t n) : topology(n) {
    net::NetworkOptions options;
    options.n = n;
    options.seed = 7;
    network.emplace(net::Network::build(options));
    util::Rng rng(7);
    topo::build_random(topology, rng);
  }
  std::optional<net::Network> network;
  net::Topology topology;
};

// The single-source delay path: one source through the batched engine as a
// batch of one (u32 fixed-point bucket keys, whole-bucket drain, branch-free
// row scan) over a prebuilt CSR — no λ accumulation, no compile, no pool, so
// iterations price the relaxation hot loop and nothing else. It is the
// denominator of the engine ratios anchored in BENCH_queuing.json.
void BM_RelaxInnerLoop(benchmark::State& state) {
  Fixture f(static_cast<std::size_t>(state.range(0)));
  const net::CsrTopology csr =
      net::CsrTopology::build(f.topology, *f.network);
  sim::MultiSourceScratch scratch;
  sim::MultiSourceResult result;
  std::array<net::NodeId, 1> source{0};
  for (auto _ : state) {
    sim::simulate_broadcast_batch(csr, source, scratch, result);
    benchmark::DoNotOptimize(result.arrival.data());
    source[0] = (source[0] + 1) % static_cast<net::NodeId>(csr.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RelaxInnerLoop)->Arg(200)->Arg(1000)->Arg(4000);

// The queuing-engine pair recorded in BENCH_queuing.json. The egress DES
// (sim/egress.hpp) runs twice, each time as a batch of one through the same
// driver as BM_RelaxInnerLoop: in its ∞-rate parity corner, where it
// computes the exact BM_RelaxInnerLoop arrivals through the event loop — so
// egress_unlimited_speedup (this / BM_RelaxInnerLoop items_per_second)
// prices the pure DES overhead and the soft gate bars it at n=1000 — and
// under finite profile rates with 200 KB blocks plus INV chatter, the
// congestion grid's per-block workload (egress_queue_speedup, recorded
// alongside).
void BM_BroadcastEgressUnlimited(benchmark::State& state) {
  Fixture f(static_cast<std::size_t>(state.range(0)));
  const net::CsrTopology csr =
      net::CsrTopology::build(f.topology, *f.network);
  sim::EgressConfig config;
  config.unlimited_rate = true;
  config.block_bytes = 0.0;
  config.control_bytes = 0.0;
  const sim::EgressPlan plan = sim::EgressPlan::build(*f.network, config);
  sim::EgressScratch scratch;
  sim::MultiSourceResult result;
  std::array<net::NodeId, 1> source{0};
  for (auto _ : state) {
    sim::simulate_broadcast_egress_batch(csr, config, plan, source, scratch,
                                         result);
    benchmark::DoNotOptimize(result.arrival.data());
    source[0] = (source[0] + 1) % static_cast<net::NodeId>(csr.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BroadcastEgressUnlimited)->Arg(200)->Arg(1000)->Arg(4000);

void BM_BroadcastEgress(benchmark::State& state) {
  Fixture f(static_cast<std::size_t>(state.range(0)));
  const net::CsrTopology csr =
      net::CsrTopology::build(f.topology, *f.network);
  sim::EgressConfig config;  // 200 KB blocks over 33 Mbit/s profile rates
  config.control_bytes = 1000.0;
  const sim::EgressPlan plan = sim::EgressPlan::build(*f.network, config);
  sim::EgressScratch scratch;
  sim::MultiSourceResult result;
  std::array<net::NodeId, 1> source{0};
  for (auto _ : state) {
    sim::simulate_broadcast_egress_batch(csr, config, plan, source, scratch,
                                         result);
    benchmark::DoNotOptimize(result.arrival.data());
    source[0] = (source[0] + 1) % static_cast<net::NodeId>(csr.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BroadcastEgress)->Arg(200)->Arg(1000)->Arg(4000);

// Compile cost of the flat-graph snapshot: amortized over the K blocks of a
// round (fig grids: K = 100), so it must stay well under K broadcasts.
void BM_CsrBuild(benchmark::State& state) {
  Fixture f(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net::CsrTopology::build(f.topology, *f.network));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CsrBuild)->Arg(200)->Arg(1000)->Arg(4000);

// Multi-source λ evaluation: n broadcasts batched over one CSR + scratch
// (includes the compile; the pair below isolates the engines).
void BM_EvalAllSources(benchmark::State& state) {
  Fixture f(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        metrics::eval_all_sources(f.topology, *f.network, 0.90));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_EvalAllSources)->Arg(200)->Arg(1000)->Unit(benchmark::kMillisecond);

// Multi-source λ evaluation over a prebuilt CSR: the batched engine's
// all-sources workload without the compile (BM_EvalAllSources includes it).
void BM_MultiSourceBatched(benchmark::State& state) {
  Fixture f(static_cast<std::size_t>(state.range(0)));
  const net::CsrTopology csr = net::CsrTopology::build(f.topology, *f.network);
  sim::MultiSourceScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        metrics::eval_all_sources(csr, *f.network, 0.90, &scratch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_MultiSourceBatched)
    ->Arg(200)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// Round-shaped batch: |B| = 100 hash-weighted miners through the batched
// engine with materialized stripes, the RoundRunner dispatch shape.
void BM_BroadcastBatchRound(benchmark::State& state) {
  Fixture f(static_cast<std::size_t>(state.range(0)));
  const net::CsrTopology csr = net::CsrTopology::build(f.topology, *f.network);
  mining::AliasSampler sampler =
      mining::AliasSampler::from_hash_power(*f.network);
  util::Rng rng(11);
  std::vector<net::NodeId> miners(100);
  for (auto& m : miners) {
    m = static_cast<net::NodeId>(sampler.sample(rng));
  }
  sim::MultiSourceScratch scratch;
  sim::MultiSourceResult result;
  for (auto _ : state) {
    sim::simulate_broadcast_batch(csr, miners, scratch, result);
    benchmark::DoNotOptimize(result.arrival.data());
  }
  state.SetItemsProcessed(state.iterations() * miners.size());
}
BENCHMARK(BM_BroadcastBatchRound)
    ->Arg(200)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// One round of observations: begin_round, record_block for each of a
// |B| = 100 batch's stripes (the batch itself runs outside the clock), and
// one read of every node's out rows, which computes them. The reads belong
// to perfbench's `core.select_s` layer, the rest to `sim.observe_begin_s`
// and `sim.record_s`.
void BM_ObservationRound(benchmark::State& state) {
  Fixture f(static_cast<std::size_t>(state.range(0)));
  const net::CsrTopology csr = net::CsrTopology::build(f.topology, *f.network);
  mining::AliasSampler sampler =
      mining::AliasSampler::from_hash_power(*f.network);
  util::Rng rng(11);
  std::vector<net::NodeId> miners(100);
  for (auto& m : miners) {
    m = static_cast<net::NodeId>(sampler.sample(rng));
  }
  sim::MultiSourceScratch scratch;
  sim::MultiSourceResult result;
  sim::simulate_broadcast_batch(csr, miners, scratch, result);
  sim::ObservationTable obs;
  for (auto _ : state) {
    obs.begin_round(f.topology, miners.size());
    for (std::size_t b = 0; b < miners.size(); ++b) {
      obs.record_block(csr, miners[b], result.ready_of(b));
    }
    for (net::NodeId v = 0; v < f.topology.size(); ++v) {
      for (std::size_t k = 0; k < obs.out_peers(v).size(); ++k) {
        benchmark::DoNotOptimize(obs.rel_times(v, k).data());
      }
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * miners.size());
}
BENCHMARK(BM_ObservationRound)->Arg(200)->Arg(2500);

// Per-round topology-refresh pairs recorded in BENCH_incremental_csr.json:
// full flat-graph recompile vs the journal patch path, refresh isolated
// (mutations run outside the clock).
//
// Two round shapes bracket the workload spectrum:
//  - BM_CsrChurnRefresh*: a churn epoch at the default 2% rate — a few
//    hundred journaled deltas at n=1000. This is the anchored pair: the
//    acceptance bar at the fig3a grid size (n=1000) is >= 3x
//    items_per_second, and it is the shape the scenario sweeps pay every
//    round (topology mutation as the common case).
//  - BM_CsrRoundRefresh*: the heaviest shape — EVERY node replaces 2 of its
//    dout=8 out-edges (the subset selector's steady state), ~4n deltas, so
//    the patch touches nearly every row and the win compresses toward the
//    latency-resolution savings alone. Recorded alongside for transparency.
void csr_round_refresh(benchmark::State& state, bool patching) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Fixture f(n);
  net::CsrCache cache;
  cache.set_patching(patching);
  cache.get(f.topology, *f.network);
  util::Rng rng(9);
  for (auto _ : state) {
    state.PauseTiming();
    for (net::NodeId v = 0; v < n; ++v) {
      for (int r = 0; r < 2; ++r) {
        const auto& out = f.topology.out(v);
        if (out.empty()) break;
        f.topology.disconnect(v, out[rng.uniform_index(out.size())]);
      }
      topo::dial_random_peers(f.topology, v, 2, rng);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(&cache.get(f.topology, *f.network));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_CsrRoundRefreshRebuild(benchmark::State& state) {
  csr_round_refresh(state, false);
}
BENCHMARK(BM_CsrRoundRefreshRebuild)->Arg(200)->Arg(1000);

void BM_CsrRoundRefreshPatch(benchmark::State& state) {
  csr_round_refresh(state, true);
}
BENCHMARK(BM_CsrRoundRefreshPatch)->Arg(200)->Arg(1000);

void csr_churn_refresh(benchmark::State& state, bool patching) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Fixture f(n);
  net::CsrCache cache;
  cache.set_patching(patching);
  cache.get(f.topology, *f.network);
  scenario::ChurnRegime regime;
  regime.rate = 0.02;
  regime.start_round = 0;
  scenario::ChurnDriver driver(regime, f.topology, *f.network, 7);
  std::size_t round = 0;
  for (auto _ : state) {
    state.PauseTiming();
    driver.before_round(round++);
    state.ResumeTiming();
    benchmark::DoNotOptimize(&cache.get(f.topology, *f.network));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_CsrChurnRefreshRebuild(benchmark::State& state) {
  csr_churn_refresh(state, false);
}
BENCHMARK(BM_CsrChurnRefreshRebuild)->Arg(200)->Arg(1000);

void BM_CsrChurnRefreshPatch(benchmark::State& state) {
  csr_churn_refresh(state, true);
}
BENCHMARK(BM_CsrChurnRefreshPatch)->Arg(200)->Arg(1000);

// End-to-end round-loop wall-clock with the refresh folded in: the adaptive
// subset round (|B| = 100 blocks + scoring + rewiring) with journal patching
// vs forced recompiles — the "adaptive-sweep win" recorded alongside the
// isolated refresh pair in BENCH_incremental_csr.json.
void adaptive_round(benchmark::State& state, bool patching) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Fixture f(n);
  sim::RoundRunner runner(
      *f.network, f.topology,
      core::make_selectors(n, core::Algorithm::PerigeeSubset), 100, 7);
  runner.set_csr_patching(patching);
  for (auto _ : state) {
    runner.run_round();
  }
  state.SetItemsProcessed(state.iterations() * 100);  // blocks
}

void BM_AdaptiveRoundRebuild(benchmark::State& state) {
  adaptive_round(state, false);
}
BENCHMARK(BM_AdaptiveRoundRebuild)
    ->Arg(200)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_AdaptiveRoundPatched(benchmark::State& state) {
  adaptive_round(state, true);
}
BENCHMARK(BM_AdaptiveRoundPatched)
    ->Arg(200)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_GossipInv(benchmark::State& state) {
  Fixture f(static_cast<std::size_t>(state.range(0)));
  // The message-level relay as an announce batch of one. Hoist the
  // snapshot: this measures the solver alone (BM_CsrBuild prices the
  // compile).
  const net::CsrTopology csr = net::CsrTopology::build(f.topology, *f.network);
  sim::MultiSourceScratch scratch;
  sim::MultiSourceResult result;
  net::NodeId miner = 0;
  for (auto _ : state) {
    const std::array<net::NodeId, 1> source{miner};
    sim::simulate_announce_batch(csr, source, scratch, result);
    benchmark::DoNotOptimize(result.arrival.data());
    miner = (miner + 1) % static_cast<net::NodeId>(csr.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GossipInv)->Arg(200)->Arg(1000);

void BM_RoundWithSubsetScoring(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Fixture f(n);
  sim::RoundRunner runner(*f.network, f.topology,
                          core::make_selectors(n, core::Algorithm::PerigeeSubset),
                          100, 7);
  for (auto _ : state) {
    runner.run_round();
  }
  state.SetItemsProcessed(state.iterations() * 100);  // blocks
}
BENCHMARK(BM_RoundWithSubsetScoring)->Arg(200)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_RoundWithUcbScoring(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Fixture f(n);
  sim::RoundRunner runner(*f.network, f.topology,
                          core::make_selectors(n, core::Algorithm::PerigeeUcb),
                          1, 7);
  for (auto _ : state) {
    runner.run_round();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RoundWithUcbScoring)->Arg(200)->Arg(1000)->Unit(benchmark::kMillisecond);

// The churn-recompile path: every round the ChurnDriver tears down and
// redials a node fraction through the pre-round hook, so each round pays one
// CSR recompile (BM_CsrBuild) on top of the K broadcasts. Compare against
// BM_RoundWithSubsetScoring at the same Arg to see the churn overhead; the
// compile amortizes over K = 100 blocks exactly as on the rewire path.
void BM_ChurnRoundRecompile(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Fixture f(n);
  sim::RoundRunner runner(*f.network, f.topology,
                          core::make_selectors(n, core::Algorithm::PerigeeSubset),
                          100, 7);
  scenario::ChurnRegime regime;
  regime.rate = 0.02;
  regime.start_round = 0;
  scenario::ChurnDriver driver(regime, f.topology, *f.network, 7);
  runner.set_pre_round_hook([&](std::size_t round) {
    if (driver.before_round(round)) runner.refresh_hash_power();
    for (const net::NodeId v : driver.last_rejoined()) runner.reset_selector(v);
  });
  for (auto _ : state) {
    runner.run_round();
  }
  state.SetItemsProcessed(state.iterations() * 100);  // blocks
}
BENCHMARK(BM_ChurnRoundRecompile)->Arg(200)->Arg(1000)->Unit(benchmark::kMillisecond);

// The neighbor-scoring shape: the 90th percentile through the caller-scratch
// overload the selectors use, over 1024 distinct rows in turn, as scoring
// never sees one row twice running. Repeating a single row would let the
// branch predictor learn a selection's data-dependent branches:
// std::nth_element on one repeated 100-entry row reads about 9x faster than
// on fresh rows. Arg(100) is one |B| = 100 observation row.
void BM_Percentile(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kRows = 1024;
  util::Rng rng(3);
  std::vector<double> rows(kRows * n);
  for (double& x : rows) x = rng.uniform();
  std::vector<double> scratch;
  std::size_t i = 0;
  for (auto _ : state) {
    const std::span<const double> row(rows.data() + (i++ % kRows) * n, n);
    benchmark::DoNotOptimize(util::percentile(row, 0.9, scratch));
  }
}
BENCHMARK(BM_Percentile)->Arg(100)->Arg(1000);

void BM_AliasSampler(benchmark::State& state) {
  util::Rng rng(4);
  std::vector<double> weights;
  for (int i = 0; i < 1000; ++i) weights.push_back(rng.exponential(1.0));
  mining::AliasSampler sampler(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(rng));
  }
}
BENCHMARK(BM_AliasSampler);

void BM_TopologyRewire(benchmark::State& state) {
  Fixture f(1000);
  util::Rng rng(5);
  for (auto _ : state) {
    const auto v = static_cast<net::NodeId>(rng.uniform_index(1000));
    const auto out = f.topology.out(v);
    if (!out.empty()) {
      f.topology.disconnect(v, out.front());
      topo::dial_random_peers(f.topology, v, 1, rng);
    }
  }
}
BENCHMARK(BM_TopologyRewire);

void BM_EdgeDelay(benchmark::State& state) {
  Fixture f(1000);
  util::Rng rng(6);
  for (auto _ : state) {
    const auto u = static_cast<net::NodeId>(rng.uniform_index(1000));
    const auto v = static_cast<net::NodeId>(rng.uniform_index(1000));
    benchmark::DoNotOptimize(f.network->edge_delay_ms(u, v));
  }
}
BENCHMARK(BM_EdgeDelay);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the emitted context's
// `library_build_type` describes how the system libbenchmark shared object
// was compiled (the distro package self-reports "debug"), NOT how this
// binary was compiled — the two disagreeing in old anchors caused real
// confusion. The perigee_* context keys below carry this binary's own
// configure-time facts; the anchors copy them, and
// scripts/check_bench_regression.py --strict-build-type trusts
// perigee_build_type on both sides.
// See ARCHITECTURE.md, "Release perf truth".
int main(int argc, char** argv) {
  const perigee::obs::RunMeta meta = perigee::obs::capture_run_meta();
  benchmark::AddCustomContext("perigee_build_type", meta.build_type);
  benchmark::AddCustomContext("perigee_compiler", meta.compiler);
  benchmark::AddCustomContext("perigee_cxx_flags", meta.cxx_flags);
  benchmark::AddCustomContext("perigee_git_sha", meta.git_sha);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

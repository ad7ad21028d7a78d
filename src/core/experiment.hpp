// One-call experiment harness reproducing the paper's evaluation pipeline
// (§5.1): build a network scenario, construct the initial topology, run the
// protocol's learning rounds, and measure λv for every node. One
// sim::Relaxer, built from the scenario's transmission regime, runs every
// broadcast of an experiment — the rounds, the checkpoints and the final
// λ — so the harness never chooses an engine itself.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/params.hpp"
#include "core/perigee.hpp"
#include "metrics/curves.hpp"
#include "mining/hashpower.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "scenario/scenario.hpp"
#include "sim/relaxer.hpp"
#include "topo/relay.hpp"

namespace perigee::core {

struct ExperimentConfig {
  net::NetworkOptions net;        // n, latency kind, validation scale, ...
  net::TopologyLimits limits;     // dout = 8, din <= 20

  Algorithm algorithm = Algorithm::PerigeeSubset;
  PerigeeParams params;

  // Learning schedule for the adaptive variants. Vanilla/Subset run `rounds`
  // rounds of `blocks_per_round` blocks; UCB (a |B|=1 method) runs
  // rounds * blocks_per_round single-block rounds, so every variant sees the
  // same number of mined blocks. Static baselines skip the loop entirely.
  int rounds = 40;
  int blocks_per_round = net::kDefaultBlocksPerRound;

  mining::HashPowerModel hash_model = mining::HashPowerModel::Uniform;
  mining::PoolsConfig pools;
  // Figure 4(b): scale applied to links between pool members (1 = off).
  double pool_latency_scale = 1.0;

  // Figure 4(c): install the fast relay overlay before the p2p topology.
  bool relay = false;
  topo::RelayConfig relay_config;

  // Declarative scenario regimes (src/scenario): static regimes (hetero
  // tiers, geo clustering, withholding adversaries) mutate the built network
  // once; the churn regime runs a seeded join/leave schedule between rounds
  // via scenario::ChurnDriver; the transmission regime gives the
  // experiment's sim::Relaxer an egress config, so every round and λ
  // evaluation runs the queued egress engine (sim/egress.hpp,
  // docs/TRANSMISSION_MODEL.md) instead of the delay-only relaxation.
  // Default-constructed == inert: results are bit-identical to configs that
  // predate the scenario layer.
  scenario::ScenarioSpec scenario;

  // Partial-view peer discovery (§2.1 addrMan / §6): when enabled, each node
  // knows only a bounded address book — bootstrapped with `addrman_bootstrap`
  // random addresses and refreshed by per-round gossip — and exploration
  // samples from it instead of the global node set. Off by default, matching
  // the paper's "each node knows all IPs" evaluation assumption.
  bool partial_view = false;
  std::size_t addrman_capacity = 100;
  std::size_t addrman_bootstrap = 30;

  // When true, the learning rounds run the message-level relay (the
  // relaxer's announce solver, sim/batch.hpp): neighbors are scored by INV
  // announcement timestamps (footnote 3 of the paper) instead of block
  // delivery times. λ is evaluated the same way either way. About 1.15x the
  // wall-clock of delivery learning (one n=1000, 10-round Subset run on a
  // 4-CPU Xeon: 0.54 vs 0.47 s); used to validate that the fast abstraction
  // does not change outcomes. run_incremental does not read it.
  bool message_level = false;

  double coverage = 0.90;
  // Number of intermediate λ evaluations during learning (0 = none).
  int checkpoints = 0;

  // Source-level parallelism inside one experiment: > 1 runs each round's
  // block batch and every λ evaluation across a runner::ThreadPool of this
  // many workers (0 = all hardware threads). Results are byte-identical at
  // any value — the batched engine writes per-source slots — so this only
  // changes wall-clock. run_incremental_multi_seed raises it automatically
  // when it has more workers than seeds.
  int engine_jobs = 1;

  // Incremental CSR maintenance across the round loop: the runner's snapshot
  // cache absorbs each round's rewiring by replaying the topology's mutation
  // journal instead of recompiling the flat graph. Patched and recompiled
  // snapshots are byte-identical (the differential harness pins this), so
  // disabling it only changes wall-clock — kept as a switch for A/B
  // measurement (BENCH_incremental_csr.json) and bisection.
  bool incremental_csr = true;

  // Kept only for perfbench/replay.cpp's `require_mirrored`; nothing in src/
  // reads it, and it goes with ROADMAP item 1(c).
  sim::RelaxEngine relax_engine = sim::RelaxEngine::Batched;

  // Master seed: drives network construction, hash power, initial topology,
  // mining and exploration.
  std::uint64_t seed = 1;

  // Throws std::invalid_argument with the text of the first rule of the
  // validity table (core/validity.cpp) this config breaks. Every run_*
  // entry point below and build_scenario call it before any work;
  // build_initial_topology, which takes a built scenario, does not.
  void validate() const;
};

// The first rule of the validity table `config` breaks, as the text
// validate() throws; empty when none. A non-empty `key` (a perigee_sweep
// flag such as "--explore", or a field path such as "net.jitter_frac") checks
// only the rules with that key.
std::string config_error(const ExperimentConfig& config,
                         std::string_view key = {});

struct Checkpoint {
  std::size_t blocks_mined = 0;  // cumulative blocks at this checkpoint
  double mean_lambda = 0;        // mean λ (at config.coverage) across nodes
  double median_lambda = 0;
};

struct ExperimentResult {
  std::string algorithm;
  std::vector<double> lambda;    // per-node λ at config.coverage (unsorted)
  std::vector<double> lambda50;  // per-node λ at 50% coverage
  std::vector<double> edge_latencies;  // final p2p edge link latencies
  std::vector<Checkpoint> checkpoints;
};

// The scenario shared by an experiment and its ideal bound: network with
// hash power assigned (and pool latency scaling applied), plus the relay
// overlay if configured.
struct Scenario {
  net::Network network;
  net::Topology topology;
  std::vector<net::NodeId> pool_members;
  std::vector<net::NodeId> relay_members;
};

// Builds the scenario: network, hash power, latency decorators, infra
// overlay. The topology contains only infra edges on return. Validates
// `config` first.
Scenario build_scenario(const ExperimentConfig& config);

// Deep copy of a built scenario: the network is cloned (fresh profile
// storage, latency model re-pointed), topology and member lists copied.
// Running on the clone is bit-identical to running on a fresh
// build_scenario of the same config — the sweep runner builds each distinct
// (topology axes, seed) scenario once and clones it across the cells that
// share it instead of resampling from scratch per cell.
Scenario clone_scenario(const Scenario& scenario);

// Installs the initial p2p topology for `algorithm` into the scenario
// (random start for adaptive variants; the baseline's own construction for
// static ones).
void build_initial_topology(const ExperimentConfig& config, Scenario& scenario);

// Learning rounds run_experiment runs for an adaptive or churned config:
// `rounds`, or rounds × blocks_per_round single-block rounds for UCB. In 64
// bits, so a caller can reject a count the int round loop cannot hold.
std::int64_t learning_rounds(const ExperimentConfig& config);

ExperimentResult run_experiment(const ExperimentConfig& config);

// run_experiment over a prebuilt scenario (taken by value: the round loop
// rewires the topology and churn mutates profiles). `scenario` must be the
// result of build_scenario / clone_scenario for a config whose topology
// axes and seed equal this config's — byte-identical to the one-argument
// form, which is just run_experiment(config, build_scenario(config)).
ExperimentResult run_experiment(const ExperimentConfig& config,
                                Scenario scenario);

// λv on the fully-connected topology of the same scenario. Always
// delay-only, even under the queued transmission regime: the bound models
// instantaneous fan-out to all n-1 peers, which no finite-rate sender can
// realize, so it stays a true lower bound (congestion grids therefore
// compare learned topologies against each other, not against the bound).
std::vector<double> run_ideal(const ExperimentConfig& config);

// run_ideal at config.coverage and 50% from one scenario + one Dijkstra
// pass per source (the sweep runner wants both coverages per cell).
struct IdealResult {
  std::vector<double> lambda;    // at config.coverage
  std::vector<double> lambda50;  // at 50% coverage
};
IdealResult run_ideal_both(const ExperimentConfig& config);

// run_ideal_both over a prebuilt scenario. Read-only: the ideal bound never
// mutates the scenario, so sweep cells evaluate it straight off the shared
// build without cloning.
IdealResult run_ideal_both(const ExperimentConfig& config,
                           const Scenario& scenario);

// The raw per-node λ vectors of one sweep cell run — the payload the sweep
// runner checkpoints per (cell, seed) and aggregates into curves.
// Dispatches Algorithm::Ideal to run_ideal_both and everything else to
// run_experiment. A non-null `prebuilt` scenario is evaluated directly
// (ideal) or cloned first (experiments); results are byte-identical with
// and without it.
struct CellCurves {
  std::vector<double> lambda;    // at config.coverage (unsorted)
  std::vector<double> lambda50;  // at 50% coverage
};
CellCurves run_cell_curves(const ExperimentConfig& config,
                           const Scenario* prebuilt = nullptr);

// Incremental-deployment ablation (§1.2): `adopter_fraction` of nodes run
// Perigee-Subset while the rest keep their random neighbors. λ is reported
// separately for the two groups. Throws std::invalid_argument for an
// `adopter_fraction` outside [0, 1] (NaN included), before any work.
struct IncrementalResult {
  std::vector<double> lambda_adopters;
  std::vector<double> lambda_others;
};
IncrementalResult run_incremental(const ExperimentConfig& config,
                                  double adopter_fraction);

// Repeats run_incremental with seeds seed, seed+1, ... and aggregates the
// sorted per-group curves. `jobs` > 1 fans the seeds out across a
// runner::ThreadPool; each seed lands in a pre-assigned slot aggregated in
// seed order, so any jobs value gives bit-identical curves (jobs <= 0 = all
// hardware threads). Throws std::invalid_argument, before any work, for
// what run_incremental refuses and for `num_seeds` < 1.
struct IncrementalCurves {
  metrics::Curve adopters;  // sorted-λ curve over adopter nodes
  metrics::Curve others;    // sorted-λ curve over holdout nodes
};
IncrementalCurves run_incremental_multi_seed(ExperimentConfig config,
                                             double adopter_fraction,
                                             int num_seeds, int jobs = 1);

}  // namespace perigee::core

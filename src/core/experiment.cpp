#include "core/experiment.hpp"

#include <algorithm>
#include <charconv>
#include <optional>
#include <stdexcept>
#include <string>

#include "metrics/edge_hist.hpp"
#include "metrics/eval.hpp"
#include "net/csr.hpp"
#include "obs/trace.hpp"
#include "runner/thread_pool.hpp"
#include "scenario/driver.hpp"
#include "sim/egress.hpp"
#include "sim/relaxer.hpp"
#include "sim/rounds.hpp"
#include "topo/builders.hpp"
#include "topo/coordinates.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

// Local `Scenario scenario` variables below shadow the scenario namespace;
// refer to the scenario layer through this alias.
namespace scn = perigee::scenario;

namespace perigee::core {
namespace {

// The scenario layer's KB-denominated transmission regime, converted to the
// engine's byte-denominated config (1 KB = 1000 bytes, matching the
// kilobyte/Mbit arithmetic of net::Network::edge_delay_from_link_ms).
sim::EgressConfig egress_config_from(const scn::TransmissionRegime& regime) {
  sim::EgressConfig config;
  config.block_bytes = regime.block_kb * 1000.0;
  config.control_bytes = regime.control_kb * 1000.0;
  config.compact_blocks = regime.compact_blocks;
  config.rate_scale = regime.rate_scale;
  config.burst_bytes = regime.burst_kb * 1000.0;
  return config;
}

// The relaxation resources of one experiment: the engine pool
// (config.engine_jobs; null runs inline) and the relaxer, which runs the
// queued-transmission engine when the scenario's transmission regime is
// active and the delay engine otherwise, with the rounds on the announce
// solver under `learning` Announce. Byte-identical at any worker count;
// every front end parallelizes across jobs instead and leaves engine_jobs
// at 1.
struct Relaxation {
  std::unique_ptr<runner::ThreadPool> pool;
  sim::Relaxer relaxer;
};

Relaxation make_relaxation(const ExperimentConfig& config,
                           sim::Relaxer::Learning learning) {
  std::unique_ptr<runner::ThreadPool> pool;
  if (config.engine_jobs != 1) {
    const unsigned workers = runner::resolve_jobs(config.engine_jobs);
    if (workers > 1) pool = std::make_unique<runner::ThreadPool>(workers);
  }
  std::optional<sim::EgressConfig> egress;
  if (config.scenario.transmission.enabled()) {
    egress = egress_config_from(config.scenario.transmission);
  }
  return Relaxation{std::move(pool),
                    sim::Relaxer(std::move(egress), learning)};
}

// One checkpoint's statistics from its λ vectors at {coverage, 0.50}.
Checkpoint make_checkpoint(std::size_t blocks_mined,
                           const std::vector<std::vector<double>>& lambdas) {
  Checkpoint cp;
  cp.blocks_mined = blocks_mined;
  cp.mean_lambda = util::mean(lambdas[0]);
  cp.median_lambda = util::percentile(lambdas[0], 0.5);
  cp.mean_lambda50 = util::mean(lambdas[1]);
  return cp;
}

}  // namespace

Scenario build_scenario(const ExperimentConfig& config) {
  config.validate();
  net::NetworkOptions net_options = config.net;
  net_options.seed = config.seed;
  scn::adjust_network_options(net_options, config.scenario);
  net::Network network = net::Network::build(net_options);

  util::Rng master(config.seed);
  util::Rng hash_rng = master.split(0x4A5);
  util::Rng relay_rng = master.split(0x9E1);

  std::vector<net::NodeId> pool_members =
      mining::assign_hash_power(network, config.hash_model, hash_rng,
                                config.pools);

  // Static scenario regimes overlay the sampled substrate: geo clustering
  // moves regions, hetero tiers rewrite bandwidth/validation (and, for the
  // datacenter mix, re-concentrate the hash power just assigned), the
  // adversary regime flips `forwards` off. Inert specs change nothing.
  scn::apply_static_regimes(network, config.scenario, config.seed);

  if (config.pool_latency_scale != 1.0 && !pool_members.empty()) {
    PERIGEE_ASSERT(config.net.latency == net::NetworkOptions::LatencyKind::Geo);
    std::vector<bool> is_pool(network.size(), false);
    for (net::NodeId v : pool_members) is_pool[v] = true;
    network.set_latency_model(std::make_unique<net::PairClassScaledModel>(
        network.make_geo_model(),
        [is_pool = std::move(is_pool)](net::NodeId v) { return is_pool[v]; },
        config.pool_latency_scale));
  }

  net::Topology topology(network.size(), config.limits);
  std::vector<net::NodeId> relay_members;
  if (config.relay) {
    relay_members =
        topo::install_relay_tree(topology, network, config.relay_config,
                                 relay_rng)
            .members;
  }
  return Scenario{std::move(network), std::move(topology),
                  std::move(pool_members), std::move(relay_members)};
}

Scenario clone_scenario(const Scenario& scenario) {
  return Scenario{scenario.network.clone(), scenario.topology,
                  scenario.pool_members, scenario.relay_members};
}

void build_initial_topology(const ExperimentConfig& config,
                            Scenario& scenario) {
  util::Rng topo_rng = util::Rng(config.seed).split(0x7090);
  switch (config.algorithm) {
    case Algorithm::Geographic:
      topo::build_geo_clusters(scenario.topology, scenario.network, topo_rng);
      break;
    case Algorithm::Kademlia:
      topo::build_kademlia(scenario.topology, topo_rng);
      break;
    case Algorithm::KNearestOracle:
      topo::build_k_nearest(scenario.topology, scenario.network, topo_rng);
      break;
    case Algorithm::CoordinateGreedy:
      topo::build_coordinate_greedy(scenario.topology, scenario.network,
                                    topo_rng);
      break;
    case Algorithm::Ideal:
      PERIGEE_ASSERT_MSG(false, "use run_ideal for the ideal bound");
      break;
    case Algorithm::Random:
    case Algorithm::PerigeeVanilla:
    case Algorithm::PerigeeUcb:
    case Algorithm::PerigeeSubset:
      // Adaptive variants start from an arbitrary random topology (§4.1).
      topo::build_random(scenario.topology, topo_rng);
      break;
  }
}

std::int64_t learning_rounds(const ExperimentConfig& config) {
  const std::int64_t rounds = config.rounds;
  return config.algorithm == Algorithm::PerigeeUcb
             ? rounds * config.blocks_per_round
             : rounds;
}

namespace {

// The learning phase of one experiment, run by both run_experiment and
// run_incremental: relaxation setup, the round loop with its address book
// and churn hook, the checkpoints, the final λ at {coverage, 0.50} and the
// final edge latencies. `scenario` carries the initial topology;
// `selectors` holds one selector per node. `config.algorithm` fixes the
// schedule (UCB's single-block rounds, static baselines' churn-only loop),
// not the selectors. `algorithm` is left empty in the result.
ExperimentResult learn(
    const ExperimentConfig& config, Scenario& scenario,
    std::vector<std::unique_ptr<sim::NeighborSelector>> selectors) {
  ExperimentResult result;

  // One pool and one relaxer serve the round loop, every checkpoint, and
  // the final λ evaluations; the relaxer moves into the round runner when
  // a round loop runs, so rounds and λ share its lane arena.
  Relaxation relax = make_relaxation(
      config, config.message_level ? sim::Relaxer::Learning::Announce
                                   : sim::Relaxer::Learning::Delivery);
  // λ at {coverage, 0.50} over an already-compiled snapshot: one pass per
  // source serves both coverages and stops at the higher one, so λ at
  // `coverage` is bit-equal to a single-coverage pass.
  const auto eval_both = [&](const net::CsrTopology& csr,
                             sim::Relaxer& relaxer) {
    return metrics::eval_all_sources_multi(
        csr, scenario.network, {config.coverage, 0.50}, relaxer,
        relax.pool.get());
  };
  const auto keep_final = [&](std::vector<std::vector<double>> lambdas) {
    result.lambda = std::move(lambdas[0]);
    result.lambda50 = std::move(lambdas[1]);
  };
  const auto final_eval = [&](const net::CsrTopology& csr,
                              sim::Relaxer& relaxer) {
    PERIGEE_TRACE_SPAN(final_eval_span, "final_eval");
    keep_final(eval_both(csr, relaxer));
  };

  // Static baselines normally skip the round loop (their selectors never
  // rewire, so rounds would be no-ops) — but under churn the rounds *do*
  // something: nodes leave and rejoin, so every algorithm must live through
  // the same schedule. Only the churned nodes themselves redial on rejoin;
  // static policies do not otherwise repair lost connections.
  if (is_adaptive(config.algorithm) || config.scenario.churn.enabled()) {
    // UCB is a |B|=1 method: same total block budget, shorter rounds.
    const bool ucb = config.algorithm == Algorithm::PerigeeUcb;
    const auto total_rounds = static_cast<int>(learning_rounds(config));
    // Static baselines reach this loop only under churn, and then only the
    // mutations matter: no selector reads the observations and no block
    // hook is installed, so simulate one block per round instead of |B|
    // discarded ones. The final λ depends only on the final topology either
    // way.
    const int blocks_per_round =
        ucb || !is_adaptive(config.algorithm) ? 1 : config.blocks_per_round;
    // What one round stands for on the blocks_mined checkpoint axis: static
    // baselines simulate 1 block but represent a full |B| budget, keeping
    // their convergence curves comparable to adaptive runs.
    const int budget_per_round = ucb ? 1 : config.blocks_per_round;

    sim::RoundRunner runner(scenario.network, scenario.topology,
                            std::move(selectors), blocks_per_round,
                            config.seed);
    runner.set_thread_pool(relax.pool.get());
    runner.set_csr_patching(config.incremental_csr);
    runner.set_relaxer(std::move(relax.relaxer));

    std::unique_ptr<net::AddrMan> addrman;
    if (config.partial_view) {
      addrman = std::make_unique<net::AddrMan>(scenario.network.size(),
                                               config.addrman_capacity);
      util::Rng boot_rng = util::Rng(config.seed).split(0xB007);
      addrman->bootstrap(boot_rng, config.addrman_bootstrap);
      addrman->add_neighbors_of(scenario.topology);
      runner.set_addrman(addrman.get());
    }

    std::unique_ptr<scn::ChurnDriver> churn;
    if (config.scenario.churn.enabled()) {
      // UCB spreads one update epoch over blocks_per_round single-block
      // rounds; the driver lands churn on epoch boundaries so every
      // algorithm endures the same schedule for the same block budget.
      const auto rounds_per_epoch =
          ucb ? static_cast<std::size_t>(config.blocks_per_round) : 1u;
      churn = std::make_unique<scn::ChurnDriver>(
          config.scenario.churn, scenario.topology, scenario.network,
          config.seed, addrman.get(), config.addrman_bootstrap,
          rounds_per_epoch);
      runner.set_pre_round_hook([&runner,
                                 driver = churn.get()](std::size_t round) {
        if (driver->before_round(round)) runner.refresh_hash_power();
        for (const net::NodeId v : driver->last_rejoined()) {
          runner.reset_selector(v);
        }
      });
    }

    // Checkpoints evaluate runner.current_csr(): the compile is served from
    // the runner's cache, so the next round (same topology version) reuses
    // it instead of compiling the same graph a second time. The last one
    // evaluates the final snapshot, so its pass is the final λ.
    std::vector<std::vector<double>> last_lambdas;
    const auto checkpoint = [&](std::size_t blocks_mined) {
      PERIGEE_TRACE_SPAN_ARGS(
          checkpoint_span, "checkpoint_eval",
          obs::TraceArgs().arg("blocks_mined", blocks_mined).json());
      last_lambdas = eval_both(runner.current_csr(), runner.relaxer());
      result.checkpoints.push_back(
          make_checkpoint(blocks_mined, last_lambdas));
    };
    if (config.checkpoints > 0) checkpoint(0);
    const int interval =
        config.checkpoints > 0
            ? std::max(1, total_rounds / config.checkpoints)
            : total_rounds;
    int done = 0;
    while (done < total_rounds) {
      const int step = std::min(interval, total_rounds - done);
      runner.run_rounds(step);
      done += step;
      if (config.checkpoints > 0) {
        checkpoint(static_cast<std::size_t>(done) *
                   static_cast<std::size_t>(budget_per_round));
      }
    }
    if (config.checkpoints > 0) {
      keep_final(std::move(last_lambdas));
    } else {
      // The final evaluation rides on the runner's cached compile and its
      // relaxer.
      final_eval(runner.current_csr(), runner.relaxer());
    }
  } else {
    // No round loop ran: one flat-graph compile serves the final
    // evaluation of the static topology.
    final_eval(net::CsrTopology::build(scenario.topology, scenario.network),
               relax.relaxer);
  }

  result.edge_latencies =
      metrics::p2p_edge_latencies(scenario.topology, scenario.network);
  return result;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  return run_experiment(config, build_scenario(config));
}

ExperimentResult run_experiment(const ExperimentConfig& config,
                                Scenario scenario) {
  config.validate();
  PERIGEE_TRACE_SPAN_ARGS(experiment_span, "experiment",
                          obs::TraceArgs()
                              .arg("algorithm", algorithm_name(config.algorithm))
                              .arg("nodes", config.net.n)
                              .arg("seed", config.seed)
                              .json());
  build_initial_topology(config, scenario);
  const std::size_t n = scenario.network.size();
  ExperimentResult result = learn(
      config, scenario, make_selectors(n, config.algorithm, config.params));
  result.algorithm = std::string(algorithm_name(config.algorithm));
  return result;
}

std::vector<double> run_ideal(const ExperimentConfig& config) {
  return run_ideal_both(config).lambda;
}

IdealResult run_ideal_both(const ExperimentConfig& config) {
  return run_ideal_both(config, build_scenario(config));
}

IdealResult run_ideal_both(const ExperimentConfig& config,
                           const Scenario& scenario) {
  config.validate();
  // The scenario topology holds only infra (relay) edges at this point;
  // overlaying them keeps the bound valid when a relay network exists.
  auto multi = metrics::eval_ideal_multi(
      scenario.network, {config.coverage, 0.50}, &scenario.topology);
  return IdealResult{std::move(multi[0]), std::move(multi[1])};
}

CellCurves run_cell_curves(const ExperimentConfig& config,
                           const Scenario* prebuilt) {
  config.validate();
  if (config.algorithm == Algorithm::Ideal) {
    IdealResult r = prebuilt != nullptr ? run_ideal_both(config, *prebuilt)
                                        : run_ideal_both(config);
    return CellCurves{std::move(r.lambda), std::move(r.lambda50)};
  }
  ExperimentResult r = prebuilt != nullptr
                           ? run_experiment(config, clone_scenario(*prebuilt))
                           : run_experiment(config);
  return CellCurves{std::move(r.lambda), std::move(r.lambda50)};
}

namespace {

// The adopter share is an argument, not a config field, so the validity
// table does not cover it.
void check_adopter_fraction(double adopter_fraction) {
  if (!(adopter_fraction >= 0.0 && adopter_fraction <= 1.0)) {
    char buf[32];
    char* end = std::to_chars(buf, buf + sizeof buf, adopter_fraction).ptr;
    throw std::invalid_argument("bad adopter_fraction value '" +
                                std::string(buf, end) +
                                "' (want a number in [0, 1])");
  }
}

}  // namespace

IncrementalResult run_incremental(const ExperimentConfig& config,
                                  double adopter_fraction) {
  check_adopter_fraction(adopter_fraction);
  // Everyone lives through the adopters' schedule: Perigee-Subset's rounds
  // of |B| blocks from a random start.
  ExperimentConfig subset = config;
  subset.algorithm = Algorithm::PerigeeSubset;
  Scenario scenario = build_scenario(subset);
  build_initial_topology(subset, scenario);

  const std::size_t n = scenario.network.size();
  util::Rng adopt_rng = util::Rng(config.seed).split(0xAD07);
  const auto k = static_cast<std::size_t>(adopter_fraction *
                                          static_cast<double>(n));
  std::vector<bool> adopter(n, false);
  for (std::size_t idx : adopt_rng.sample_indices(n, k)) adopter[idx] = true;

  std::vector<std::unique_ptr<sim::NeighborSelector>> selectors;
  selectors.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    selectors.push_back(adopter[v]
                            ? make_selector(Algorithm::PerigeeSubset,
                                            config.params)
                            : make_selector(Algorithm::Random));
  }
  const ExperimentResult learned =
      learn(subset, scenario, std::move(selectors));

  IncrementalResult result;
  for (std::size_t v = 0; v < n; ++v) {
    (adopter[v] ? result.lambda_adopters : result.lambda_others)
        .push_back(learned.lambda[v]);
  }
  return result;
}

}  // namespace perigee::core

#include "replay.hpp"

#include <cstring>
#include <map>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "core/perigee.hpp"
#include "metrics/edge_hist.hpp"
#include "metrics/eval.hpp"
#include "mining/sampler.hpp"
#include "net/csr.hpp"
#include "runner/checkpoint.hpp"
#include "scenario/driver.hpp"
#include "sim/batch.hpp"
#include "sim/egress.hpp"
#include "sim/observations.hpp"
#include "sim/selector.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace perigee;

const std::array<std::string_view, kLayerCount> kLayerNames = {
    "scenario.build", "topo.initial",   "scenario.churn",
    "sim.observe_begin", "net.csr",     "mining.sample",
    "sim.relax",      "sim.egress",     "sim.record",
    "core.select",    "metrics.lambda", "metrics.lambda_egress",
    "metrics.ideal",  "runner.checkpoint", "runner.json",
};

double LayerTimes::total() const {
  return std::accumulate(seconds.begin(), seconds.end(), 0.0);
}

namespace {

// Mirror of the file-local egress_config_from in core/experiment.cpp: the
// scenario layer's KB-denominated regime in the engine's bytes.
sim::EgressConfig egress_config_from(const scenario::TransmissionRegime& r) {
  sim::EgressConfig config;
  config.block_bytes = r.block_kb * 1000.0;
  config.control_bytes = r.control_kb * 1000.0;
  config.compact_blocks = r.compact_blocks;
  config.rate_scale = r.rate_scale;
  config.burst_bytes = r.burst_kb * 1000.0;
  return config;
}

void require_mirrored(const core::ExperimentConfig& config) {
  const char* why = nullptr;
  if (config.partial_view) why = "partial_view";
  if (config.message_level) why = "message_level";
  if (config.engine_jobs != 1) why = "engine_jobs != 1";
  if (config.checkpoints != 0) why = "checkpoints";
  if (config.relax_engine != sim::RelaxEngine::Batched) why = "relax_engine";
  if (why != nullptr) {
    throw std::invalid_argument(std::string("replay does not mirror ") + why);
  }
}

// run_experiment over `scenario`, one layer call at a time.
core::CellCurves replay_experiment(const core::ExperimentConfig& config,
                                   core::Scenario scenario,
                                   LayerTimes& times) {
  net::Network& network = scenario.network;
  net::Topology& topology = scenario.topology;
  timed(times, kTopoInitial,
        [&] { core::build_initial_topology(config, scenario); });

  // EvalEngine: λ evaluation state, separate from the round loop's.
  std::optional<sim::EgressConfig> egress;
  if (config.scenario.transmission.enabled()) {
    egress = egress_config_from(config.scenario.transmission);
  }
  sim::MultiSourceScratch eval_scratch;
  sim::EgressPlanCache eval_plans;
  sim::EgressScratch eval_egress_scratch;
  const auto lambda = [&](const net::CsrTopology& csr, double coverage) {
    if (egress.has_value()) {
      return timed(times, kLambdaEgress, [&] {
        return metrics::eval_all_sources_egress(
            csr, network, *egress, eval_plans.get(network, *egress), coverage,
            &eval_egress_scratch, nullptr);
      });
    }
    return timed(times, kLambda, [&] {
      return metrics::eval_all_sources(csr, network, coverage, &eval_scratch,
                                       nullptr);
    });
  };

  core::CellCurves out;
  if (!core::is_adaptive(config.algorithm) &&
      !config.scenario.churn.enabled()) {
    const net::CsrTopology csr = timed(times, kCsr, [&] {
      return net::CsrTopology::build(topology, network);
    });
    out.lambda = lambda(csr, config.coverage);
    out.lambda50 = lambda(csr, 0.50);
    metrics::p2p_edge_latencies(topology, network);
    return out;
  }

  const bool ucb = config.algorithm == core::Algorithm::PerigeeUcb;
  const int total_rounds =
      ucb ? config.rounds * config.blocks_per_round : config.rounds;
  const int blocks_per_round =
      ucb || !core::is_adaptive(config.algorithm) ? 1
                                                  : config.blocks_per_round;

  // RoundRunner's state, in its constructor's order.
  std::vector<std::unique_ptr<sim::NeighborSelector>> selectors =
      core::make_selectors(network.size(), config.algorithm, config.params);
  mining::AliasSampler sampler = timed(times, kSample, [&] {
    return mining::AliasSampler::from_hash_power(network);
  });
  util::Rng miner_rng = util::Rng(config.seed).split(0xB10C);
  util::Rng update_rng = util::Rng(config.seed).split(0x5E1E);
  sim::ObservationTable obs;
  net::CsrCache csr_cache;
  csr_cache.set_patching(config.incremental_csr);
  std::vector<net::NodeId> miners;
  sim::MultiSourceScratch batch_scratch;
  sim::MultiSourceResult batch;
  sim::EgressPlanCache round_plans;
  sim::EgressScratch round_egress_scratch;

  std::optional<scenario::ChurnDriver> churn;
  if (config.scenario.churn.enabled()) {
    const auto rounds_per_epoch =
        ucb ? static_cast<std::size_t>(config.blocks_per_round) : 1u;
    churn.emplace(config.scenario.churn, topology, network, config.seed,
                  nullptr, config.addrman_bootstrap, rounds_per_epoch);
  }

  for (std::size_t round = 0; round < static_cast<std::size_t>(total_rounds);
       ++round) {
    if (churn) {
      timed(times, kChurn, [&] {
        if (churn->before_round(round)) {
          sampler = mining::AliasSampler::from_hash_power(network);
        }
        for (const net::NodeId v : churn->last_rejoined()) {
          selectors[v]->on_reset(v);
        }
      });
    }
    timed(times, kObserveBegin, [&] {
      obs.begin_round(topology, static_cast<std::size_t>(blocks_per_round));
    });
    const net::CsrTopology& csr =
        timed(times, kCsr, [&]() -> const net::CsrTopology& {
          return csr_cache.get(topology, network);
        });
    timed(times, kSample, [&] {
      miners.resize(static_cast<std::size_t>(blocks_per_round));
      for (auto& miner : miners) {
        miner = static_cast<net::NodeId>(sampler.sample(miner_rng));
      }
    });
    if (egress.has_value()) {
      timed(times, kEgress, [&] {
        const sim::EgressPlan& plan = round_plans.get(network, *egress);
        sim::simulate_broadcast_egress_batch(csr, *egress, plan, miners,
                                             round_egress_scratch, batch,
                                             nullptr);
      });
    } else {
      timed(times, kRelax, [&] {
        sim::simulate_broadcast_batch(csr, miners, batch_scratch, batch,
                                      nullptr);
      });
    }
    timed(times, kRecord, [&] {
      for (std::size_t b = 0; b < miners.size(); ++b) {
        obs.record_block(csr, miners[b], batch.ready_of(b));
      }
    });
    timed(times, kSelect, [&] {
      std::vector<net::NodeId> order(topology.size());
      std::iota(order.begin(), order.end(), 0);
      update_rng.shuffle(order);
      sim::RoundContext ctx{obs, topology, network, update_rng, round,
                            nullptr};
      for (const net::NodeId v : order) selectors[v]->on_round_end(v, ctx);
    });
  }

  const net::CsrTopology& csr =
      timed(times, kCsr, [&]() -> const net::CsrTopology& {
        return csr_cache.get(topology, network);
      });
  out.lambda = lambda(csr, config.coverage);
  out.lambda50 = lambda(csr, 0.50);
  metrics::p2p_edge_latencies(topology, network);
  return out;
}

core::Scenario build_or_clone(const core::ExperimentConfig& config,
                              const core::Scenario* prebuilt,
                              LayerTimes& times) {
  return timed(times, kScenarioBuild, [&] {
    return prebuilt != nullptr ? core::clone_scenario(*prebuilt)
                               : core::build_scenario(config);
  });
}

}  // namespace

runner::SweepSpec workload_spec(std::string_view name, std::uint64_t seed) {
  using core::Algorithm;
  runner::SweepSpec spec;
  if (name == "learn") {
    // perigee_sweep --figure baseline --churn 0,0.05 --seeds 2
    spec.name = "baseline";
    spec.base.net.n = 200;
    spec.base.rounds = 10;
    spec.algorithms = {Algorithm::Random, Algorithm::PerigeeVanilla,
                       Algorithm::PerigeeUcb, Algorithm::PerigeeSubset,
                       Algorithm::Ideal};
    spec.churn_rates = {0.0, 0.05};
    spec.seeds = 2;
  } else if (name == "large-n") {
    // perigee_sweep --algorithms perigee-subset --nodes 2500 --rounds 3
    //     --seeds 1
    spec.algorithms = {Algorithm::PerigeeSubset};
    spec.nodes = {2500};
    spec.rounds = {3};
    spec.seeds = 1;
  } else if (name == "congestion") {
    // perigee_sweep --figure congestion --seeds 2
    spec.name = "congestion";
    spec.base.net.n = 200;
    spec.base.rounds = 12;
    spec.algorithms = {Algorithm::Random, Algorithm::PerigeeSubset};
    spec.transmission_models = {scenario::TransmissionModel::Delay,
                                scenario::TransmissionModel::Queue};
    spec.hetero_profiles = {scenario::HeteroProfile::Off,
                            scenario::HeteroProfile::Bandwidth};
    spec.seeds = 2;
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(name) +
                                "'");
  }
  spec.base.seed = seed;
  return spec;
}

JobPlan plan_jobs(const runner::SweepSpec& spec) {
  JobPlan plan;
  const std::vector<runner::SweepCell> cells = runner::expand_grid(spec);
  const auto seeds = static_cast<std::size_t>(spec.seeds);
  std::map<std::string, std::vector<std::size_t>> by_signature;
  for (std::size_t j = 0; j < cells.size() * seeds; ++j) {
    Job job;
    job.cell = j / seeds;
    job.seed = j % seeds;
    job.config = cells[job.cell].config;
    job.config.seed += static_cast<std::uint64_t>(job.seed);
    by_signature[runner::scenario_signature(job.config)].push_back(j);
    plan.jobs.push_back(std::move(job));
  }
  for (const auto& [signature, members] : by_signature) {
    if (members.size() < 2) continue;
    for (const std::size_t j : members) {
      plan.jobs[j].group = static_cast<int>(plan.groups);
    }
    ++plan.groups;
  }
  return plan;
}

GroupMasters::GroupMasters(const JobPlan& plan)
    : masters_(plan.groups) {}

const core::Scenario* GroupMasters::get(const Job& job, LayerTimes* times) {
  if (job.group < 0) return nullptr;
  auto& master = masters_[static_cast<std::size_t>(job.group)];
  if (!master) {
    const auto build = [&] {
      return std::make_unique<core::Scenario>(
          core::build_scenario(job.config));
    };
    master = times != nullptr ? timed(*times, kScenarioBuild, build) : build();
  }
  return master.get();
}

core::CellCurves replay_job(const core::ExperimentConfig& config,
                            const core::Scenario* prebuilt,
                            LayerTimes& times) {
  require_mirrored(config);
  if (config.algorithm == core::Algorithm::Ideal) {
    std::optional<core::Scenario> own;
    if (prebuilt == nullptr) {
      own.emplace(build_or_clone(config, nullptr, times));
      prebuilt = &*own;
    }
    auto multi = timed(times, kIdeal, [&] {
      return metrics::eval_ideal_multi(prebuilt->network,
                                       {config.coverage, 0.50},
                                       &prebuilt->topology);
    });
    return core::CellCurves{std::move(multi[0]), std::move(multi[1])};
  }
  return replay_experiment(config, build_or_clone(config, prebuilt, times),
                           times);
}

void setup_job(const Job& job, const core::Scenario* prebuilt,
               LayerTimes& times) {
  if (job.config.algorithm == core::Algorithm::Ideal) {
    // The bound reads a shared master in place; only a lone job builds.
    if (prebuilt == nullptr) build_or_clone(job.config, nullptr, times);
    return;
  }
  core::Scenario scenario = build_or_clone(job.config, prebuilt, times);
  timed(times, kTopoInitial,
        [&] { core::build_initial_topology(job.config, scenario); });
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace perfbench

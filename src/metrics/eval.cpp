#include "metrics/eval.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "runner/thread_pool.hpp"
#include "sim/batch.hpp"
#include "sim/egress.hpp"
#include "sim/relaxer.hpp"
#include "util/radix.hpp"

#include "util/assert.hpp"
#include "util/stats.hpp"

namespace perigee::metrics {
namespace {

// Accumulation over pairs already sorted ascending by (arrival, power):
// the earliest time at which cumulative power reaches
// coverage * total_power.
double coverage_time_sorted(
    const std::vector<std::pair<double, double>>& by_arrival,
    double total_power, double coverage) {
  PERIGEE_ASSERT(coverage > 0.0 && coverage <= 1.0);
  const double target = coverage * total_power;
  double acc = 0;
  for (const auto& [t, power] : by_arrival) {
    if (std::isinf(t)) break;  // unreachable tail
    acc += power;
    // Tolerate fp round-off in normalized hash powers.
    if (acc >= target - 1e-12) return t;
  }
  return util::kInf;
}

// Every requested threshold read off one sorted array: out[k][slot] is the
// coverage time at coverages[k]. The sort stays the caller's one expensive
// step per source; each threshold is a linear scan that usually stops early.
void coverage_times_sorted(
    const std::vector<std::pair<double, double>>& by_arrival,
    double total_power, const std::vector<double>& coverages,
    std::vector<std::vector<double>>& out, std::size_t slot) {
  for (std::size_t k = 0; k < coverages.size(); ++k) {
    out[k][slot] = coverage_time_sorted(by_arrival, total_power, coverages[k]);
  }
}

// The body every batched λ evaluation shares; only `broadcast(sources,
// sink)`, the streaming call behind the arrival stripes, differs. `arena`
// must be the lane arena that call runs in, so the sink's lane index
// addresses the lane whose sort buffers it fills. Hash powers (and their
// sum, accumulated in NodeId order exactly as lambda_for_broadcast does) are
// batch constants, extracted once. Each source is simulated once: its
// (arrival, power) pairs fill and sort in its lane's buffers, and every
// coverage reads its threshold from that one sorted array, so the
// evaluation is allocation-free per source. Returns one λ vector per
// coverage, in input order.
template <typename Broadcast>
std::vector<std::vector<double>> lambda_all_sources(
    const net::Network& network, const std::vector<double>& coverages,
    sim::MultiSourceScratch& arena, const Broadcast& broadcast) {
  PERIGEE_ASSERT(!coverages.empty());
  const std::size_t n = network.size();
  std::vector<std::vector<double>> lambda(coverages.size(),
                                          std::vector<double>(n));
  std::vector<double> powers(n);
  double total = 0;
  for (net::NodeId v = 0; v < n; ++v) {
    powers[v] = network.profile(v).hash_power;
    total += powers[v];
  }
  std::vector<net::NodeId> sources(n);
  std::iota(sources.begin(), sources.end(), net::NodeId{0});
  broadcast(sources, [&](std::size_t lane, std::size_t s,
                         std::span<const double> arrival,
                         std::span<const double> /*ready*/) {
    auto& buffers = arena.lane(lane);
    auto& by_arrival = buffers.by_arrival;
    by_arrival.resize(n);
    const double* arr = arrival.data();
    const double* pow = powers.data();
    for (std::size_t v = 0; v < n; ++v) {
      by_arrival[v] = {arr[v], pow[v]};
    }
    // Radix replaces std::sort but yields the identical sequence, so λ
    // stays bit-equal to lambda_for_broadcast on the same arrival set.
    util::radix_sort_arrival_pairs(by_arrival, buffers.sort_scratch);
    coverage_times_sorted(by_arrival, total, coverages, lambda, s);
  });
  return lambda;
}

}  // namespace

double lambda_for_broadcast(const sim::BroadcastResult& result,
                            const net::Network& network, double coverage) {
  PERIGEE_ASSERT(result.arrival.size() == network.size());
  std::vector<std::pair<double, double>> by_arrival;
  by_arrival.reserve(network.size());
  double total = 0;
  for (net::NodeId v = 0; v < network.size(); ++v) {
    const double power = network.profile(v).hash_power;
    total += power;
    by_arrival.emplace_back(result.arrival[v], power);
  }
  std::sort(by_arrival.begin(), by_arrival.end());
  return coverage_time_sorted(by_arrival, total, coverage);
}

std::vector<double> eval_all_sources(const net::Topology& topology,
                                     const net::Network& network,
                                     double coverage) {
  return eval_all_sources(net::CsrTopology::build(topology, network), network,
                          coverage);
}

std::vector<std::vector<double>> eval_all_sources_multi(
    const net::CsrTopology& csr, const net::Network& network,
    const std::vector<double>& coverages, sim::Relaxer& relaxer,
    runner::ThreadPool* pool) {
  PERIGEE_ASSERT(csr.size() == network.size());
  return lambda_all_sources(
      network, coverages, relaxer.arena(),
      [&](std::span<const net::NodeId> sources, const sim::SourceSink& sink) {
        relaxer.for_each_source(csr, network, sources, sink, pool);
      });
}

std::vector<double> eval_all_sources(const net::CsrTopology& csr,
                                     const net::Network& network,
                                     double coverage,
                                     sim::MultiSourceScratch* scratch,
                                     runner::ThreadPool* pool) {
  PERIGEE_ASSERT(csr.size() == network.size());
  sim::MultiSourceScratch local_scratch;
  sim::MultiSourceScratch& arena = scratch != nullptr ? *scratch
                                                      : local_scratch;
  return std::move(
      lambda_all_sources(
          network, {coverage}, arena,
          [&](std::span<const net::NodeId> sources,
              const sim::SourceSink& sink) {
            sim::for_each_source_broadcast(csr, sources, arena, sink, pool,
                                           /*need_ready=*/false);
          })
          .front());
}

std::vector<double> eval_all_sources_egress(const net::CsrTopology& csr,
                                            const net::Network& network,
                                            const sim::EgressConfig& config,
                                            const sim::EgressPlan& plan,
                                            double coverage,
                                            sim::EgressScratch* scratch,
                                            runner::ThreadPool* pool) {
  PERIGEE_ASSERT(csr.size() == network.size());
  sim::EgressScratch local_scratch;
  sim::EgressScratch& arena = scratch != nullptr ? *scratch : local_scratch;
  return std::move(
      lambda_all_sources(
          network, {coverage}, arena,
          [&](std::span<const net::NodeId> sources,
              const sim::SourceSink& sink) {
            sim::for_each_source_broadcast_egress(csr, config, plan, sources,
                                                  arena, sink, pool,
                                                  /*need_ready=*/false);
          })
          .front());
}

std::vector<double> eval_ideal(const net::Network& network, double coverage,
                               const net::Topology* infra) {
  return std::move(eval_ideal_multi(network, {coverage}, infra).front());
}

std::vector<std::vector<double>> eval_ideal_multi(
    const net::Network& network, const std::vector<double>& coverages,
    const net::Topology* infra) {
  PERIGEE_ASSERT(!coverages.empty());
  // Broadcast on the fully-connected topology. Direct delivery is not
  // always fastest — per-pair jitter can make a two-hop path through a fast
  // intermediary beat a slow direct link — so this is a dense Dijkstra per
  // source over a cached δ matrix, exactly what simulating the complete
  // graph would do, without materializing an O(n^2) Topology.
  const std::size_t n = network.size();
  std::vector<double> delta(n * n, 0.0);
  for (net::NodeId u = 0; u < n; ++u) {
    for (net::NodeId v = u + 1; v < n; ++v) {
      const double d = network.edge_delay_ms(u, v);
      delta[u * n + v] = d;
      delta[v * n + u] = d;
    }
  }
  if (infra != nullptr) {
    PERIGEE_ASSERT(infra->size() == n);
    for (const auto& [u, v] : infra->infra_edges()) {
      const double ms = *infra->infra_latency(u, v);
      delta[u * n + v] = std::min(delta[u * n + v], ms);
      delta[v * n + u] = std::min(delta[v * n + u], ms);
    }
  }

  std::vector<std::vector<double>> lambda(coverages.size(),
                                          std::vector<double>(n));
  std::vector<double> arrival(n), ready(n);
  std::vector<bool> settled(n);
  std::vector<std::pair<double, double>> by_arrival;
  for (net::NodeId src = 0; src < n; ++src) {
    arrival.assign(n, util::kInf);
    ready.assign(n, util::kInf);
    settled.assign(n, false);
    arrival[src] = 0.0;
    ready[src] = 0.0;
    for (std::size_t iter = 0; iter < n; ++iter) {
      // Dense min-selection: O(n) beats a heap on a complete graph.
      std::size_t u = n;
      double best = util::kInf;
      for (std::size_t i = 0; i < n; ++i) {
        if (!settled[i] && arrival[i] < best) {
          best = arrival[i];
          u = i;
        }
      }
      if (u == n) break;
      settled[u] = true;
      if (!network.profile(static_cast<net::NodeId>(u)).forwards && u != src) {
        continue;
      }
      const double r = ready[u];
      const double* row = delta.data() + u * n;
      for (std::size_t v = 0; v < n; ++v) {
        if (settled[v]) continue;
        const double cand = r + row[v];
        if (cand < arrival[v]) {
          arrival[v] = cand;
          ready[v] =
              cand + network.validation_ms(static_cast<net::NodeId>(v));
        }
      }
    }
    by_arrival.clear();
    double total = 0;
    for (net::NodeId u = 0; u < n; ++u) {
      const double power = network.profile(u).hash_power;
      total += power;
      by_arrival.emplace_back(arrival[u], power);
    }
    // One sort serves every coverage, as in the all-sources evaluation.
    // Pairs that compare equal are equal values, so std::sort's instability
    // cannot change which threshold is read.
    std::sort(by_arrival.begin(), by_arrival.end());
    coverage_times_sorted(by_arrival, total, coverages, lambda, src);
  }
  return lambda;
}

}  // namespace perigee::metrics

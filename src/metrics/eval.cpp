#include "metrics/eval.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "runner/thread_pool.hpp"
#include "sim/batch.hpp"
#include "sim/coverage.hpp"
#include "sim/egress.hpp"
#include "sim/relaxer.hpp"

#include "util/assert.hpp"
#include "util/stats.hpp"

namespace perigee::metrics {
namespace {

// The body every batched λ evaluation shares; only `coverage(sources,
// targets, times)`, the observed batch call behind it, differs. Every node
// is a source, so slot s of each λ vector is NodeId s.
template <typename Coverage>
std::vector<std::vector<double>> lambda_all_sources(
    const net::Network& network, const std::vector<double>& coverages,
    const Coverage& coverage) {
  const sim::CoverageTargets targets(network, coverages);
  std::vector<net::NodeId> sources(network.size());
  std::iota(sources.begin(), sources.end(), net::NodeId{0});
  sim::CoverageTimes lambda;
  coverage(std::span<const net::NodeId>(sources), targets, lambda);
  return lambda;
}

}  // namespace

double lambda_for_broadcast(const sim::BroadcastResult& result,
                            const net::Network& network, double coverage) {
  PERIGEE_ASSERT(result.arrival.size() == network.size());
  PERIGEE_ASSERT(coverage > 0.0 && coverage <= 1.0);
  std::vector<std::pair<double, double>> by_arrival;
  by_arrival.reserve(network.size());
  double total = 0;
  for (net::NodeId v = 0; v < network.size(); ++v) {
    const double power = network.profile(v).hash_power;
    total += power;
    by_arrival.emplace_back(result.arrival[v], power);
  }
  // The earliest arrival at which cumulative power, accumulated in
  // ascending (arrival, power) order, reaches coverage * total.
  std::sort(by_arrival.begin(), by_arrival.end());
  const double target = coverage * total;
  double acc = 0;
  for (const auto& [t, power] : by_arrival) {
    if (std::isinf(t)) break;  // unreachable tail
    acc += power;
    // Tolerate fp round-off in normalized hash powers.
    if (acc >= target - 1e-12) return t;
  }
  return util::kInf;
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
      network, coverages,
      [&](std::span<const net::NodeId> sources,
          const sim::CoverageTargets& targets, sim::CoverageTimes& lambda) {
        relaxer.coverage(csr, network, sources, targets, lambda, pool);
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
          network, {coverage},
          [&](std::span<const net::NodeId> sources,
              const sim::CoverageTargets& targets, sim::CoverageTimes& lambda) {
            sim::coverage_batch(csr, sources, arena, targets, lambda, pool);
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
          network, {coverage},
          [&](std::span<const net::NodeId> sources,
              const sim::CoverageTargets& targets, sim::CoverageTimes& lambda) {
            sim::coverage_egress_batch(csr, config, plan, sources, arena,
                                       targets, lambda, pool);
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

  // The dense walk settles in ascending (arrival, index) order, so the
  // batched λ's settle observer serves it too and each source stops at the
  // highest coverage.
  const sim::CoverageTargets targets(network, coverages);
  sim::CoverageTimes lambda(coverages.size(), std::vector<double>(n));
  std::vector<double> arrival(n), ready(n);
  std::vector<bool> settled(n);
  std::vector<double> group;
  for (net::NodeId src = 0; src < n; ++src) {
    arrival.assign(n, util::kInf);
    ready.assign(n, util::kInf);
    settled.assign(n, false);
    arrival[src] = 0.0;
    ready[src] = 0.0;
    sim::CoverageObserver observer(targets, group, lambda, src);
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
      if (observer.settle(static_cast<net::NodeId>(u), best)) break;
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
    observer.finish();
  }
  return lambda;
}

}  // namespace perigee::metrics

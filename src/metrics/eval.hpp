/// \file
/// \brief The paper's performance metric (§2.2): λv is the minimum time for a
/// block mined and broadcast by v to reach nodes totalling at least a target
/// fraction (default 90%) of the network's hash power.
#pragma once

#include <vector>

#include "net/csr.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/broadcast.hpp"
#include "sim/egress.hpp"

namespace perigee::runner {
class ThreadPool;
}  // namespace perigee::runner

namespace perigee::sim {
class Relaxer;
}  // namespace perigee::sim

namespace perigee::metrics {

/// λ for one broadcast: sorts nodes by arrival and accumulates hash power
/// (the miner's own power counts at time 0) until `coverage` of the total is
/// reached; +inf if the reachable set never covers it.
double lambda_for_broadcast(const sim::BroadcastResult& result,
                            const net::Network& network, double coverage);

/// λv for every source v (unsorted, index == NodeId). Compiles one
/// `net::CsrTopology` and runs all n sources through the batch driver's
/// delay solver (sim/batch.hpp), so the per-source cost is pure engine
/// work. Standalone convenience — callers that already hold a snapshot (the
/// experiment harness, the round loop's checkpoints) use the forms below and
/// skip the compile.
std::vector<double> eval_all_sources(const net::Topology& topology,
                                     const net::Network& network,
                                     double coverage = 0.90);

/// λv for every source at several coverages from one broadcast pass per
/// source, through `relaxer` — whichever engine it runs (delay or queued
/// egress) is the one λ reflects. Each source's arrivals are sorted once and
/// every threshold is read off that sorted array, so each λ is bit-equal to
/// the single-coverage calls below. Returns one λ vector per coverage, in
/// input order. `network` supplies the hash powers for the coverage
/// accumulation and must be the one the snapshot was built over. The
/// relaxer's lane arena is reused across evaluations; `pool` (optional) fans
/// sources across workers — λ output is byte-identical at any worker count.
std::vector<std::vector<double>> eval_all_sources_multi(
    const net::CsrTopology& csr, const net::Network& network,
    const std::vector<double>& coverages, sim::Relaxer& relaxer,
    runner::ThreadPool* pool = nullptr);

/// Single-coverage delay-only evaluation over a snapshot the caller already
/// compiled. `scratch` (optional) reuses the caller's lane arena.
std::vector<double> eval_all_sources(
    const net::CsrTopology& csr, const net::Network& network,
    double coverage = 0.90, sim::MultiSourceScratch* scratch = nullptr,
    runner::ThreadPool* pool = nullptr);

/// Single-coverage evaluation under the queued-transmission model: every
/// broadcast runs the egress solver (sim/egress.hpp), so λ reflects
/// serialization + queue wait. With `config.unlimited_rate` the result is
/// byte-identical to the delay-only form — the equivalence the diff harness
/// enforces. `plan` must be built from `network`'s current profiles
/// (`sim::EgressPlanCache`).
std::vector<double> eval_all_sources_egress(
    const net::CsrTopology& csr, const net::Network& network,
    const sim::EgressConfig& config, const sim::EgressPlan& plan,
    double coverage = 0.90, sim::EgressScratch* scratch = nullptr,
    runner::ThreadPool* pool = nullptr);

/// λv on the fully-connected topology ("ideal" in Figure 3), computed as a
/// dense per-source Dijkstra without materializing an O(n^2) Topology. When
/// `infra` is given, its infrastructure links (e.g. the §5.4 relay tree) are
/// overlaid on the complete graph so the bound stays a true lower bound for
/// scenarios where the overlay exists. Single-coverage wrapper over
/// eval_ideal_multi.
std::vector<double> eval_ideal(const net::Network& network,
                               double coverage = 0.90,
                               const net::Topology* infra = nullptr);

/// Same bound evaluated at several coverages from a single Dijkstra pass and
/// a single sort per source (the pass dominates; extra coverages are nearly
/// free). Returns one λ vector per coverage, in input order.
std::vector<std::vector<double>> eval_ideal_multi(
    const net::Network& network, const std::vector<double>& coverages,
    const net::Topology* infra = nullptr);

}  // namespace perigee::metrics

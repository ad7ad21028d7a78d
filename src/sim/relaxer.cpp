#include "sim/relaxer.hpp"

#include <utility>

namespace perigee::sim {

Relaxer::Relaxer(std::optional<EgressConfig> egress)
    : egress_(std::move(egress)) {}

void Relaxer::batch(const net::CsrTopology& csr, const net::Network& network,
                    std::span<const net::NodeId> sources,
                    MultiSourceResult& out, runner::ThreadPool* pool) {
  if (egress_.has_value()) {
    simulate_broadcast_egress_batch(csr, *egress_,
                                    plans_.get(network, *egress_), sources,
                                    arena_, out, pool);
  } else {
    simulate_broadcast_batch(csr, sources, arena_, out, pool);
  }
}

void Relaxer::coverage(const net::CsrTopology& csr,
                       const net::Network& network,
                       std::span<const net::NodeId> sources,
                       const CoverageTargets& targets, CoverageTimes& times,
                       runner::ThreadPool* pool) {
  if (egress_.has_value()) {
    coverage_egress_batch(csr, *egress_, plans_.get(network, *egress_),
                          sources, arena_, targets, times, pool);
  } else {
    coverage_batch(csr, sources, arena_, targets, times, pool);
  }
}

}  // namespace perigee::sim

#include "sim/relaxer.hpp"

#include <utility>

namespace perigee::sim {

Relaxer::Relaxer(std::optional<EgressConfig> egress, RelaxEngine engine)
    : egress_(std::move(egress)), engine_(engine) {}

void Relaxer::batch(const net::CsrTopology& csr, const net::Network& network,
                    std::span<const net::NodeId> sources,
                    MultiSourceResult& out, runner::ThreadPool* pool) {
  if (egress_.has_value()) {
    simulate_broadcast_egress_batch(csr, *egress_,
                                    plans_.get(network, *egress_), sources,
                                    arena_, out, pool);
  } else if (engine_ == RelaxEngine::ParallelDelta) {
    // Same stripe layout as the driver, but each source runs through the
    // delta-stepping team (workers cooperate *within* a source instead of
    // fanning out across sources — the winning shape when n is large and
    // the batch small). Stripe bytes are identical either way.
    out.prepare(csr.size(), sources);
    for (std::size_t s = 0; s < sources.size(); ++s) {
      simulate_broadcast_parallel(csr, sources[s], parallel_,
                                  out.arrival_data(s), out.ready_data(s),
                                  pool);
    }
  } else {
    simulate_broadcast_batch(csr, sources, arena_, out, pool);
  }
}

void Relaxer::for_each_source(const net::CsrTopology& csr,
                              const net::Network& network,
                              std::span<const net::NodeId> sources,
                              const SourceSink& sink,
                              runner::ThreadPool* pool) {
  if (egress_.has_value()) {
    for_each_source_broadcast_egress(csr, *egress_,
                                     plans_.get(network, *egress_), sources,
                                     arena_, sink, pool,
                                     /*need_ready=*/false);
  } else {
    for_each_source_broadcast(csr, sources, arena_, sink, pool,
                              /*need_ready=*/false);
  }
}

}  // namespace perigee::sim

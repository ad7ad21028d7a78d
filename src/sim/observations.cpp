#include "sim/observations.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "sim/gossip.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace perigee::sim {

void ObservationTable::begin_round(const net::Topology& topology,
                                   std::size_t blocks_per_round) {
  PERIGEE_ASSERT(blocks_per_round > 0);
  blocks_per_round_ = blocks_per_round;
  blocks_recorded_ = 0;
  // The arrays are reused across rounds. The out arrays are sized to the
  // whole adjacency (a bound on the rows) and filled branch-free: every
  // entry is written at the row cursor, which advances only for out-peers.
  const std::size_t n = topology.size();
  std::size_t entries = 0;
  std::size_t max_degree = 0;
  for (net::NodeId v = 0; v < n; ++v) {
    entries += topology.adjacency(v).size();
    max_degree = std::max(max_degree, topology.adjacency(v).size());
  }
  adj_off_.resize(n + 1);
  out_off_.resize(n + 1);
  adj_peer_.resize(entries);
  if (out_peer_.size() < entries) {
    out_pos_.resize(entries);
    out_peer_.resize(entries);
  }
  is_out_.resize(n, 0);
  std::size_t a = 0;
  std::size_t r = 0;
  adj_off_[0] = 0;
  out_off_[0] = 0;
  for (net::NodeId v = 0; v < n; ++v) {
    const auto& out = topology.out(v);
    for (const net::NodeId u : out) is_out_[u] = 1;
    const auto& adjacency = topology.adjacency(v);
    for (std::size_t i = 0; i < adjacency.size(); ++i) {
      const net::NodeId u = adjacency[i].peer;
      adj_peer_[a++] = u;
      out_pos_[r] = static_cast<std::uint32_t>(i);
      out_peer_[r] = u;
      r += is_out_[u];
    }
    for (const net::NodeId u : out) is_out_[u] = 0;
    adj_off_[v + 1] = a;
    out_off_[v + 1] = r;
  }
  // No fill: record_block writes every out row of every block it records,
  // and rel_times exposes only recorded blocks.
  rel_.resize(r * blocks_per_round_);
  if (scratch_.size() < max_degree) scratch_.resize(max_degree);
  PERIGEE_GAUGE_MAX("mem.observations_bytes", memory_bytes());
}

void ObservationTable::record_block(const net::CsrTopology& csr,
                                    net::NodeId miner,
                                    std::span<const double> ready_times) {
  PERIGEE_ASSERT(blocks_recorded_ < blocks_per_round_);
  const std::size_t n = adj_off_.size() - 1;
  PERIGEE_ASSERT(n == csr.size());
  PERIGEE_ASSERT(ready_times.size() == n);
  const std::size_t b = blocks_recorded_;
  const std::size_t stride = blocks_per_round_;
  for (net::NodeId v = 0; v < n; ++v) {
    const std::size_t r0 = out_off_[v];
    const std::size_t r1 = out_off_[v + 1];
    if (r0 == r1) continue;  // no out rows: nothing of v is scored
    const net::NodeId* peers = adj_peer_.data() + adj_off_[v];
    const std::size_t deg = adj_off_[v + 1] - adj_off_[v];
    // Row v of the snapshot is adjacency(v) in capture order, so entry i is
    // δ(v, neighbor i).
    const auto delays = csr.delays(v);
    PERIGEE_ASSERT(delays.size() == deg);
    double t_min = util::kInf;
    for (std::size_t i = 0; i < deg; ++i) {
      const net::NodeId u = peers[i];
      const double ready = ready_times[u];
      const double t = (!csr.forwards(u) && u != miner) || std::isinf(ready)
                           ? util::kInf
                           : ready + delays[i];
      scratch_[i] = t;
      t_min = std::min(t_min, t);
    }
    for (std::size_t r = r0; r < r1; ++r) {
      // Unreached neighbor (or fully unreached v): t̃ is +inf.
      const double t = scratch_[out_pos_[r]];
      rel_[r * stride + b] =
          std::isinf(t) || std::isinf(t_min) ? util::kInf : t - t_min;
    }
  }
  ++blocks_recorded_;
}

void ObservationTable::record_gossip_block(const GossipResult& result) {
  PERIGEE_ASSERT(blocks_recorded_ < blocks_per_round_);
  const std::size_t n = adj_off_.size() - 1;
  PERIGEE_ASSERT_MSG(!result.edge_times.empty() || result.arrival.size() == n,
                     "gossip result must carry edge times");
  const std::size_t b = blocks_recorded_;
  const std::size_t stride = blocks_per_round_;
  // Absolute announcement time per captured adjacency entry; +inf by
  // default. A repeated peer's time lands on its first entry only.
  scratch_.assign(adj_peer_.size(), util::kInf);
  for (const auto& et : result.edge_times) {
    PERIGEE_ASSERT(et.to < n);
    for (std::size_t e = adj_off_[et.to]; e < adj_off_[et.to + 1]; ++e) {
      if (adj_peer_[e] == et.from) {
        scratch_[e] = std::min(scratch_[e], et.time_ms);
        break;
      }
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t r0 = out_off_[v];
    const std::size_t r1 = out_off_[v + 1];
    if (r0 == r1) continue;
    const double* abs = scratch_.data() + adj_off_[v];
    double t_min = util::kInf;
    for (std::size_t e = adj_off_[v]; e < adj_off_[v + 1]; ++e) {
      t_min = std::min(t_min, scratch_[e]);
    }
    for (std::size_t r = r0; r < r1; ++r) {
      const double t = abs[out_pos_[r]];
      rel_[r * stride + b] =
          std::isinf(t) || std::isinf(t_min) ? util::kInf : t - t_min;
    }
  }
  ++blocks_recorded_;
}

std::span<const net::NodeId> ObservationTable::out_peers(net::NodeId v) const {
  PERIGEE_ASSERT(v + 1 < out_off_.size());
  return {out_peer_.data() + out_off_[v], out_off_[v + 1] - out_off_[v]};
}

std::span<const double> ObservationTable::rel_times(net::NodeId v,
                                                    std::size_t k) const {
  PERIGEE_ASSERT(v + 1 < out_off_.size());
  PERIGEE_ASSERT(k < out_off_[v + 1] - out_off_[v]);
  return {rel_.data() + (out_off_[v] + k) * blocks_per_round_,
          blocks_recorded_};
}

std::size_t ObservationTable::memory_bytes() const {
  return (adj_off_.capacity() + out_off_.capacity()) * sizeof(std::size_t) +
         (adj_peer_.capacity() + out_peer_.capacity()) * sizeof(net::NodeId) +
         out_pos_.capacity() * sizeof(std::uint32_t) +
         (rel_.capacity() + scratch_.capacity()) * sizeof(double) +
         is_out_.capacity();
}

}  // namespace perigee::sim

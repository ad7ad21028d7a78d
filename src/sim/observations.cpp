#include "sim/observations.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace perigee::sim {

void ObservationTable::begin_round(const net::Topology& topology,
                                   std::size_t blocks_per_round) {
  PERIGEE_ASSERT(blocks_per_round > 0);
  blocks_per_round_ = blocks_per_round;
  blocks_recorded_ = 0;
  rows_node_ = net::kInvalidNode;
  // The arrays are reused across rounds. The out arrays are sized to the
  // whole adjacency (a bound on the rows) and filled branch-free: every
  // entry is written at the row cursor, which advances only for out-peers.
  const std::size_t n = topology.size();
  std::size_t entries = 0;
  for (net::NodeId v = 0; v < n; ++v) entries += topology.adjacency(v).size();
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
  max_out_ = 0;
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
    max_out_ = std::max(max_out_, r - out_off_[v]);
  }
  PERIGEE_GAUGE_MAX("mem.observations_bytes", memory_bytes());
}

void ObservationTable::capture_delays(const net::CsrTopology& csr,
                                      bool control) {
  const std::size_t n = adj_off_.size() - 1;
  PERIGEE_ASSERT(n == csr.size());
  relay_.resize(n * blocks_per_round_);
  delay_.resize(adj_peer_.size());
  for (net::NodeId v = 0; v < n; ++v) {
    const std::size_t e0 = adj_off_[v];
    const std::size_t deg = adj_off_[v + 1] - e0;
    if (control) {
      for (std::size_t e = e0; e < e0 + deg; ++e) {
        delay_[e] = csr.control_delay(adj_peer_[e], v);
      }
    } else {
      // Row v of the snapshot is adjacency(v) in capture order, so entry i
      // is δ(v, neighbor i).
      const auto delays = csr.delays(v);
      PERIGEE_ASSERT(delays.size() == deg);
      std::copy(delays.begin(), delays.end(), delay_.begin() + e0);
    }
  }
  PERIGEE_GAUGE_MAX("mem.observations_bytes", memory_bytes());
}

void ObservationTable::record_block(const net::CsrTopology& csr,
                                    net::NodeId miner,
                                    std::span<const double> ready_times,
                                    bool announce) {
  PERIGEE_ASSERT(blocks_recorded_ < blocks_per_round_);
  if (blocks_recorded_ == 0) capture_delays(csr, /*control=*/announce);
  const std::size_t n = adj_off_.size() - 1;
  PERIGEE_ASSERT(ready_times.size() == n);
  double* relay = relay_.data() + blocks_recorded_;
  for (net::NodeId u = 0; u < n; ++u) {
    relay[u * blocks_per_round_] =
        csr.forwards(u) || u == miner ? ready_times[u] : util::kInf;
  }
  ++blocks_recorded_;
  rows_node_ = net::kInvalidNode;
}

void ObservationTable::compute_rows(net::NodeId v) const {
  const std::size_t blocks = blocks_recorded_;
  const std::size_t stride = blocks_per_round_;
  if (rows_.size() < max_out_ * stride || t_min_.size() < stride) {
    rows_.resize(std::max(rows_.size(), max_out_ * stride));
    t_min_.resize(std::max(t_min_.size(), stride));
    PERIGEE_GAUGE_MAX("mem.observations_bytes", memory_bytes());
  }
  const std::size_t e0 = adj_off_[v];
  const std::size_t e1 = adj_off_[v + 1];
  double* t_min = t_min_.data();
  std::fill_n(t_min, blocks, util::kInf);
  for (std::size_t e = e0; e < e1; ++e) {
    const double* relay = relay_.data() + adj_peer_[e] * stride;
    const double delay = delay_[e];
    for (std::size_t b = 0; b < blocks; ++b) {
      t_min[b] = std::min(t_min[b], relay[b] + delay);
    }
  }
  double* row = rows_.data();
  for (std::size_t r = out_off_[v]; r < out_off_[v + 1]; ++r) {
    const std::size_t e = e0 + out_pos_[r];
    const double* relay = relay_.data() + adj_peer_[e] * stride;
    const double delay = delay_[e];
    for (std::size_t b = 0; b < blocks; ++b) {
      // Unreached neighbor (or fully unreached v): t̃ is +inf. A finite t
      // implies a finite t_min.
      const double t = relay[b] + delay;
      row[b] = std::isinf(t) ? util::kInf : t - t_min[b];
    }
    row += blocks;
  }
  rows_node_ = v;
}

std::span<const net::NodeId> ObservationTable::out_peers(net::NodeId v) const {
  PERIGEE_ASSERT(v + 1 < out_off_.size());
  return {out_peer_.data() + out_off_[v], out_off_[v + 1] - out_off_[v]};
}

std::span<const double> ObservationTable::rel_times(net::NodeId v,
                                                    std::size_t k) const {
  PERIGEE_ASSERT(v + 1 < out_off_.size());
  PERIGEE_ASSERT(k < out_off_[v + 1] - out_off_[v]);
  if (blocks_recorded_ == 0) return {};
  if (rows_node_ != v) compute_rows(v);
  return {rows_.data() + k * blocks_recorded_, blocks_recorded_};
}

std::size_t ObservationTable::memory_bytes() const {
  return (adj_off_.capacity() + out_off_.capacity()) * sizeof(std::size_t) +
         (adj_peer_.capacity() + out_peer_.capacity()) * sizeof(net::NodeId) +
         out_pos_.capacity() * sizeof(std::uint32_t) +
         (delay_.capacity() + relay_.capacity() + rows_.capacity() +
          t_min_.capacity()) *
             sizeof(double) +
         is_out_.capacity();
}

}  // namespace perigee::sim

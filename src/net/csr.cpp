#include "net/csr.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace perigee::net {
namespace {

// Patch-vs-rebuild policy: a journal replay is worthwhile while the delta
// count stays well below the live link-entry count — each Connect costs one
// latency-model resolution against the rebuild's one per directed entry, and
// removals are short ordered shifts. Beyond half the entry count (mass
// join/leave churn epochs) the patch no longer clearly beats the compile, so
// the cache rebuilds and re-derives exact δ bounds for free. The floor keeps
// tiny graphs from rebuilding over a handful of deltas.
std::size_t patch_budget(std::size_t num_links) {
  return std::max<std::size_t>(64, num_links / 2);
}

// Exact-δ-bounds refresh cadence: after this many removed edges the
// conservative min/max are re-derived by a pure array scan (no latency-model
// calls). Removals only *loosen* the bounds (correctness never depends on
// the refresh); this just keeps the bucket-queue width derivation close to
// the true minimum.
constexpr std::size_t kBoundsRefreshRemovals = 1024;

// Widens the bounds [lo, hi] to cover x. std::min/max skip a NaN x, so a NaN
// sets hi to NaN instead, and std::max(NaN, y) keeps it there: the solvers'
// finite-bound check then refuses the snapshot.
void widen(double& lo, double& hi, double x) {
  lo = std::min(lo, x);
  hi = std::isnan(x) ? x : std::max(hi, x);
}

}  // namespace

CsrTopology::EdgeInputs CsrTopology::edge_inputs_of(
    const NodeProfile& profile) {
  return EdgeInputs{profile.region, profile.coords, profile.access_ms,
                    profile.bandwidth_mbps};
}

CsrTopology CsrTopology::build(const Topology& topology,
                               const Network& network, Layout layout) {
  PERIGEE_ASSERT(topology.size() == network.size());
  const std::size_t n = topology.size();
  const TopologyLimits& limits = topology.limits();

  CsrTopology csr;
  csr.version_ = topology.version();
  csr.profile_version_ = network.profile_version();
  csr.latency_version_ = network.latency_version();
  csr.offsets_.resize(n + 1);
  csr.row_end_.resize(n);
  csr.offsets_[0] = 0;
  for (NodeId v = 0; v < n; ++v) {
    const auto& adj = topology.adjacency(v);
    std::size_t capacity = adj.size();
    if (layout == Layout::Patchable) {
      // Slab capacity covers every p2p population the caps allow, plus the
      // node's infra links (installed at scenario build, before the round
      // loop): any journaled Connect fits without moving other rows.
      const auto infra = static_cast<std::size_t>(std::count_if(
          adj.begin(), adj.end(),
          [](const Topology::Link& l) { return l.is_infra(); }));
      capacity = std::max(
          capacity, static_cast<std::size_t>(limits.out_cap) +
                        static_cast<std::size_t>(limits.in_cap) + infra);
    }
    csr.offsets_[v + 1] = csr.offsets_[v] + capacity;
  }
  const std::size_t slots = csr.offsets_[n];
  csr.peer_.resize(slots);
  csr.delay_ms_.resize(slots);
  csr.control_ms_.resize(slots);
  csr.forwards_.resize(n);
  csr.validation_ms_.resize(n);
  csr.edge_inputs_.resize(n);

  // Delay/validation bounds ride along with the compile; the batched
  // engine sizes its bucket queue from them without another O(E) pass.
  double min_delay = std::numeric_limits<double>::infinity();
  double max_delay = 0.0;
  double max_validation = 0.0;
  double min_validation =
      n == 0 ? 0.0 : std::numeric_limits<double>::infinity();
  std::size_t links = 0;
  for (NodeId v = 0; v < n; ++v) {
    const NodeProfile& profile = network.profile(v);
    csr.forwards_[v] = profile.forwards ? 1 : 0;
    csr.validation_ms_[v] = profile.validation_ms;
    csr.edge_inputs_[v] = edge_inputs_of(profile);
    widen(min_validation, max_validation, csr.validation_ms_[v]);
    std::size_t e = csr.offsets_[v];
    for (const auto& link : topology.adjacency(v)) {
      csr.peer_[e] = link.peer;
      if (link.is_infra()) {
        csr.delay_ms_[e] = link.infra_ms;
        csr.control_ms_[e] = link.infra_ms;
      } else {
        // One latency-model call per entry: the block delay derives from the
        // same link_ms the control delay stores.
        const double link_ms = network.link_ms(v, link.peer);
        csr.delay_ms_[e] =
            network.edge_delay_from_link_ms(link_ms, v, link.peer);
        csr.control_ms_[e] = link_ms;
      }
      widen(min_delay, max_delay, csr.delay_ms_[e]);
      ++e;
    }
    csr.row_end_[v] = e;
    links += e - csr.offsets_[v];
  }
  csr.num_links_ = links;
  csr.min_delay_ms_ = min_delay;
  csr.max_delay_ms_ = max_delay;
  csr.max_validation_ms_ = max_validation;
  csr.min_validation_ms_ = min_validation;
  // High-water mark so a run's largest snapshot is visible (scale-path
  // memory budgeting).
  PERIGEE_GAUGE_MAX("mem.csr_bytes", csr.memory_bytes());
  return csr;
}

std::size_t CsrTopology::memory_bytes() const {
  return offsets_.capacity() * sizeof(std::size_t) +
         row_end_.capacity() * sizeof(std::size_t) +
         peer_.capacity() * sizeof(NodeId) +
         delay_ms_.capacity() * sizeof(double) +
         control_ms_.capacity() * sizeof(double) +
         forwards_.capacity() * sizeof(std::uint8_t) +
         validation_ms_.capacity() * sizeof(double) +
         edge_inputs_.capacity() * sizeof(EdgeInputs);
}

double CsrTopology::block_delay(NodeId u, NodeId v) const {
  const auto row = peers(u);
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i] == v) return delays(u)[i];
  }
  PERIGEE_ASSERT_MSG(false, "block_delay of non-adjacent pair");
  return 0.0;
}

double CsrTopology::control_delay(NodeId u, NodeId v) const {
  const auto row = peers(u);
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i] == v) return control_delays(u)[i];
  }
  PERIGEE_ASSERT_MSG(false, "control_delay of non-adjacent pair");
  return 0.0;
}

bool CsrTopology::append_entry(NodeId u, NodeId v, double delay,
                               double control) {
  const std::size_t e = row_end_[u];
  if (e >= offsets_[u + 1]) return false;  // slab full: rebuild instead
  peer_[e] = v;
  delay_ms_[e] = delay;
  control_ms_[e] = control;
  row_end_[u] = e + 1;
  ++num_links_;
  return true;
}

bool CsrTopology::remove_entry(NodeId u, NodeId v, std::uint32_t slot) {
  const std::size_t begin = offsets_[u];
  const std::size_t end = row_end_[u];
  const std::size_t e = begin + slot;
  // Rows mirror adjacency order, so the journaled erase index lands directly
  // on the entry — no row scan. The peer check catches a journal that does
  // not describe this snapshot (consumer bug): fall back to a rebuild.
  if (e >= end || peer_[e] != v) return false;
  // Ordered erase, mirroring Topology::adj_remove's vector::erase: the
  // surviving entries keep exactly the order a fresh compile would lay
  // down, which is what keeps patched snapshots byte-equal to rebuilt
  // ones (and ObservationTable's adjacency-order indexing valid). One
  // fused inline loop over all three arrays: the shifted tail is a handful
  // of entries, where three out-of-line memmove calls would cost more than
  // the moves themselves.
  for (std::size_t i = e; i + 1 < end; ++i) {
    peer_[i] = peer_[i + 1];
    delay_ms_[i] = delay_ms_[i + 1];
    control_ms_[i] = control_ms_[i + 1];
  }
  row_end_[u] = end - 1;
  --num_links_;
  return true;
}

bool CsrTopology::apply_deltas(std::span<const Topology::EdgeDelta> deltas,
                               const Network& network) {
  using Kind = Topology::EdgeDelta::Kind;
  for (const auto& d : deltas) {
    switch (d.kind) {
      case Kind::Connect: {
        // One resolution per mirrored entry, each from its own row's side:
        // link_ms is symmetric only up to floating-point summation order
        // (access_u + access_v associates differently per direction), and a
        // fresh compile resolves row u's entry as link_ms(u, v) — the patch
        // must reproduce those exact bits.
        const double link_uv = network.link_ms(d.u, d.v);
        const double link_vu = network.link_ms(d.v, d.u);
        const double delay_uv =
            network.edge_delay_from_link_ms(link_uv, d.u, d.v);
        const double delay_vu =
            network.edge_delay_from_link_ms(link_vu, d.v, d.u);
        if (!append_entry(d.u, d.v, delay_uv, link_uv) ||
            !append_entry(d.v, d.u, delay_vu, link_vu)) {
          return false;
        }
        widen(min_delay_ms_, max_delay_ms_, delay_uv);
        widen(min_delay_ms_, max_delay_ms_, delay_vu);
        break;
      }
      case Kind::InfraAdd: {
        if (!append_entry(d.u, d.v, d.infra_ms, d.infra_ms) ||
            !append_entry(d.v, d.u, d.infra_ms, d.infra_ms)) {
          return false;
        }
        widen(min_delay_ms_, max_delay_ms_, d.infra_ms);
        break;
      }
      case Kind::Disconnect: {
        if (!remove_entry(d.u, d.v, d.u_slot) ||
            !remove_entry(d.v, d.u, d.v_slot)) {
          return false;
        }
        // Removals leave the bounds conservative (min can only be ≤ the true
        // minimum); the periodic refresh below re-derives them exactly.
        removals_since_refresh_ += 2;
        break;
      }
    }
    ++version_;
  }
  if (removals_since_refresh_ >= kBoundsRefreshRemovals) refresh_bounds();
  return true;
}

bool CsrTopology::refresh_profiles(const Network& network) {
  if (validation_ms_.size() != network.size()) return false;
  const std::size_t n = network.size();
  for (NodeId v = 0; v < n; ++v) {
    const NodeProfile& profile = network.profile(v);
    if (edge_inputs_[v] != edge_inputs_of(profile)) {
      // Region / coordinates / access / bandwidth feed the per-edge δ
      // resolution; the frozen delay arrays are stale beyond repair here.
      return false;
    }
    forwards_[v] = profile.forwards ? 1 : 0;
    validation_ms_[v] = profile.validation_ms;
    // Conservative widening; the exact bounds return on refresh_bounds.
    widen(min_validation_ms_, max_validation_ms_, profile.validation_ms);
  }
  profile_version_ = network.profile_version();
  return true;
}

void CsrTopology::refresh_bounds() {
  min_delay_ms_ = std::numeric_limits<double>::infinity();
  max_delay_ms_ = 0.0;
  const std::size_t n = size();
  for (NodeId v = 0; v < n; ++v) {
    for (std::size_t e = offsets_[v]; e < row_end_[v]; ++e) {
      widen(min_delay_ms_, max_delay_ms_, delay_ms_[e]);
    }
  }
  min_validation_ms_ =
      n == 0 ? 0.0 : std::numeric_limits<double>::infinity();
  max_validation_ms_ = 0.0;
  for (const double validation : validation_ms_) {
    widen(min_validation_ms_, max_validation_ms_, validation);
  }
  removals_since_refresh_ = 0;
}

const CsrTopology& CsrCache::get(const Topology& topology,
                                 const Network& network) {
  if (csr_ && patching_ &&
      csr_->built_from_latency_version() == network.latency_version()) {
    bool current = true;
    if (csr_->built_from_version() != topology.version()) {
      const auto deltas = topology.deltas_since(csr_->built_from_version());
      if (deltas.has_value() &&
          deltas->size() <= patch_budget(csr_->num_links())) {
        PERIGEE_TRACE_SPAN_ARGS(
            patch_span, "csr_patch",
            obs::TraceArgs().arg("deltas", deltas->size()).json());
        current = csr_->apply_deltas(*deltas, network);
      } else {
        current = false;
      }
      if (current) {
        ++patches_;
        PERIGEE_COUNTER_ADD("csr.cache.patches", 1);
        PERIGEE_HISTOGRAM_OBSERVE("csr.patch.deltas", deltas->size());
      } else if (deltas.has_value()) {
        // Delta volume over budget (or a failed replay): the rebuild below
        // is the patch-vs-rebuild heuristic choosing the compile.
        PERIGEE_COUNTER_ADD("csr.cache.patch_rejects", 1);
      } else {
        // The journal was truncated past the snapshot's version.
        PERIGEE_COUNTER_ADD("csr.cache.journal_misses", 1);
      }
    } else {
      PERIGEE_COUNTER_ADD("csr.cache.hits", 1);
    }
    if (current &&
        csr_->built_from_profile_version() != network.profile_version()) {
      current = csr_->refresh_profiles(network);
    }
    if (current) return *csr_;
    // A failed patch leaves the snapshot half-applied; the rebuild below
    // discards it wholesale.
  }
  if (csr_ && !patching_ &&
      csr_->built_from_version() == topology.version() &&
      csr_->built_from_profile_version() == network.profile_version() &&
      csr_->built_from_latency_version() == network.latency_version()) {
    PERIGEE_COUNTER_ADD("csr.cache.hits", 1);
    return *csr_;
  }
  {
    PERIGEE_TRACE_SPAN_ARGS(
        compile_span, "csr_compile",
        obs::TraceArgs().arg("nodes", topology.size()).json());
    csr_ =
        CsrTopology::build(topology, network, CsrTopology::Layout::Patchable);
  }
  ++rebuilds_;
  PERIGEE_COUNTER_ADD("csr.cache.rebuilds", 1);
  return *csr_;
}

}  // namespace perigee::net

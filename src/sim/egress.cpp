#include "sim/egress.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "sim/dary_heap.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace perigee::sim {
namespace {

// Event kinds, in the order they are documented in
// docs/TRANSMISSION_MODEL.md. Values never leak outside this file.
constexpr std::uint8_t kArrival = 0;   // a block copy reaches a node
constexpr std::uint8_t kReady = 1;     // a node starts relaying
constexpr std::uint8_t kSendDone = 2;  // a sender's uplink frees up
constexpr std::uint8_t kRunEnd = 3;    // a SendDone closing a control run

// One source's discrete-event simulation into caller-provided stripes.
//
// The loop is a pure function of (csr, config, plan, src): events pop in
// (time, seq) order where seq is the monotone schedule counter, so equal
// times resolve FIFO by schedule order — the deterministic tie-break rule.
// In the delay-only configuration (unlimited rate, or every size zero) the
// send pump delivers each payload inline at its dequeue instant with no
// rate arithmetic at all, and every candidate is the identical
// `ready_u + delays[e]` double addition solve_one performs — which is what
// makes the diff harness's byte-parity bar provable rather than
// approximate.
//
// Settles (the source at t=0, then each node's first non-stale Arrival)
// are reported to `observer` in pop order, and the loop stops when the
// observer asks to — the λ shape. The round shape's NoSettleObserver folds
// the reports away.
//
// With `kCollapse`, a sender's serializing controls run inline: nothing but
// the sender's own next event reads its state while a control serializes,
// and a control delivers nothing, so the pump computes the run's finishes
// back to back (the same doubles) and only the run's last control schedules
// an event. That event, a kRunEnd when payloads follow, carries a seq
// stamped when the run began, earlier than the per-message loop would give
// it, so it can only overtake events at exactly its own time — and those
// are still in the heap when it pops. On such a tie the source is abandoned
// (returns false) and `solve_egress` re-runs it without the collapse.
template <bool kCollapse, typename Observer>
bool run_egress(const net::CsrTopology& csr, const EgressConfig& config,
                const EgressPlan& plan, SourceLane& lane, net::NodeId src,
                double* arrival, double* ready, Observer& observer) {
  const std::size_t n = csr.size();
  PERIGEE_ASSERT(src < n);
  PERIGEE_ASSERT(plan.size() == n);
  std::fill_n(arrival, n, util::kInf);
  arrival[src] = 0.0;

  lane.settled.assign(n, 0);
  // Sender cursors are initialized by each node's Ready event before any
  // read, so a bare resize (no clear) suffices.
  lane.segment.resize(n);
  lane.edge.resize(n);
  lane.tokens.resize(n);
  lane.refill_time.resize(n);
  std::vector<EgressEvent>& events = lane.events;
  events.clear();

  const std::size_t* offsets = csr.offsets();
  const std::size_t* row_ends = csr.row_ends();
  const net::NodeId* peers = csr.peer_data();
  const double* delays = csr.delay_data();

  // Dequeue segments: the message class on the lower band drains first
  // (pfifo_fast); on a band tie controls go first — they were enqueued
  // first, and within a band the scheduler is FIFO.
  const std::uint8_t payload_segment =
      config.payload_band() < config.control_band() ? 0 : 1;
  const double payload_bytes = config.block_bytes;
  const double control_bytes = config.control_bytes;
  const bool unlimited = config.unlimited_rate;

  std::uint64_t seq = 0;
  PERIGEE_TELEMETRY_ONLY(std::uint64_t tally_events = 0);
  PERIGEE_TELEMETRY_ONLY(std::uint64_t tally_sends = 0);
  PERIGEE_TELEMETRY_ONLY(std::uint64_t tally_suppressed = 0);
  PERIGEE_TELEMETRY_ONLY(std::uint64_t tally_token_waits = 0);
  PERIGEE_TELEMETRY_ONLY(std::uint64_t tally_band[3] = {0, 0, 0});
  PERIGEE_TELEMETRY_ONLY(std::int64_t backlog = 0);
  PERIGEE_TELEMETRY_ONLY(std::int64_t peak_backlog = 0);

  const auto relax = [&](net::NodeId v, double cand) {
    if (cand < arrival[v]) {
      arrival[v] = cand;
      heap_push(events, {cand, seq++, v, kArrival});
    }
  };

  // Drains node u's send queue from its current (segment, edge) cursor at
  // time `now`. Zero-cost sends (unlimited rate, zero size, or a bucket
  // that absorbs the whole message) deliver inline; the first send that
  // must serialize schedules one SendDone and leaves the cursor on it, so
  // at most one event per sender is ever in flight. Under `kCollapse` that
  // event stands for the whole control run the send starts.
  const auto pump = [&](net::NodeId u, double now) {
    const std::size_t begin = offsets[u];
    const std::size_t deg = row_ends[u] - begin;
    std::uint8_t& segi = lane.segment[u];
    std::uint32_t& edgei = lane.edge[u];
    while (segi < 2) {
      if (edgei >= deg) {
        ++segi;
        edgei = 0;
        continue;
      }
      const bool is_payload = segi == payload_segment;
      const std::size_t e = begin + edgei;
      if (is_payload && lane.settled[peers[e]] != 0) {
        // Receiver already holds the block: suppress the payload entirely,
        // spending no bandwidth. Lossless — the receiver settled at an
        // event no later than `now`, so this candidate could never win.
        PERIGEE_TELEMETRY_ONLY(++tally_suppressed; --backlog;)
        ++edgei;
        continue;
      }
      const double size = is_payload ? payload_bytes : control_bytes;
      double finish = now;
      if (!unlimited && size > 0.0) {
        double& tokens = lane.tokens[u];
        double& refill = lane.refill_time[u];
        const double rate = plan.rate(u);
        if (now > refill) {
          tokens =
              std::min(config.burst_bytes, tokens + rate * (now - refill));
          refill = now;
        }
        if (tokens >= size) {
          tokens -= size;  // burst-absorbed: completes instantly
        } else {
          finish = now + (size - tokens) / rate;
          tokens = 0.0;
          refill = finish;
          PERIGEE_TELEMETRY_ONLY(++tally_token_waits;)
        }
      }
      PERIGEE_TELEMETRY_ONLY(
          ++tally_sends;
          ++tally_band[is_payload ? config.payload_band()
                                  : config.control_band()];)
      if (finish > now) {
        std::uint8_t kind = kSendDone;
        if (kCollapse && !is_payload) {
          // The segment's later controls serialize back to back: each starts
          // at the previous finish with the bucket empty and refilled up to
          // it, so the pump would add (control_bytes - 0.0) / rate, the
          // same double as `step`. The run stops before a control whose
          // finish would not be strictly later and finite, which the pump
          // must then see at this one's SendDone, as without the collapse.
          const double step = control_bytes / plan.rate(u);
          while (edgei + 1 < deg && finish + step > finish &&
                 finish + step < util::kInf) {
            PERIGEE_TELEMETRY_ONLY(--backlog; ++tally_sends;
                                   ++tally_token_waits;
                                   ++tally_band[config.control_band()];)
            ++edgei;
            finish += step;
            lane.refill_time[u] = finish;
            if (payload_segment == 1) kind = kRunEnd;
          }
        }
        heap_push(events, {finish, seq++, u, kind});
        return;
      }
      PERIGEE_TELEMETRY_ONLY(--backlog;)
      if (is_payload) relax(peers[e], now + delays[e]);
      ++edgei;
    }
  };

  // The source holds the block at t=0 and relays immediately — it skips
  // validation and ignores its own forwards flag, exactly like solve_one.
  // It settles without an Arrival event, so it is reported here.
  lane.settled[src] = 1;
  heap_push(events, {0.0, seq++, src, kReady});
  bool done = observer.settle(src, 0.0);

  while (!done && !events.empty()) {
    const EgressEvent ev = heap_pop(events);
    PERIGEE_TELEMETRY_ONLY(++tally_events;)
    const net::NodeId u = ev.node;
    switch (ev.kind) {
      case kArrival: {
        // Stale entries carry a key the node has since improved on
        // (solve_one's rule); the first non-stale pop settles the node.
        if (lane.settled[u] != 0 || ev.time != arrival[u]) break;
        lane.settled[u] = 1;
        done = observer.settle(u, ev.time);
        // A withholder receives (and counts toward coverage) but never
        // relays.
        if (done || !csr.forwards(u)) break;
        heap_push(events, {ev.time + csr.validation_ms(u), seq++, u, kReady});
        break;
      }
      case kReady: {
        lane.segment[u] = 0;
        lane.edge[u] = 0;
        lane.tokens[u] = config.burst_bytes;
        lane.refill_time[u] = ev.time;
        PERIGEE_TELEMETRY_ONLY(
            backlog +=
            2 * static_cast<std::int64_t>(row_ends[u] - offsets[u]);
            peak_backlog = std::max(peak_backlog, backlog);)
        pump(u, ev.time);
        break;
      }
      case kRunEnd:
        // An event at this very time may have been scheduled while the run
        // serialized; the per-message order could pop it first.
        if (!events.empty() && events.front().time == ev.time) return false;
        [[fallthrough]];
      case kSendDone: {
        const std::size_t e = offsets[u] + lane.edge[u];
        PERIGEE_TELEMETRY_ONLY(--backlog;)
        if (lane.segment[u] == payload_segment) {
          relax(peers[e], ev.time + delays[e]);
        }
        ++lane.edge[u];
        pump(u, ev.time);
        break;
      }
      default:
        break;
    }
  }

  PERIGEE_COUNTER_ADD("egress.sources", 1);
  PERIGEE_COUNTER_ADD("egress.events", tally_events);
  PERIGEE_COUNTER_ADD("egress.sends", tally_sends);
  PERIGEE_COUNTER_ADD("egress.suppressed_payloads", tally_suppressed);
  PERIGEE_COUNTER_ADD("egress.tokens_exhausted", tally_token_waits);
  PERIGEE_COUNTER_ADD("egress.band0_dequeues", tally_band[0]);
  PERIGEE_COUNTER_ADD("egress.band1_dequeues", tally_band[1]);
  PERIGEE_COUNTER_ADD("egress.band2_dequeues", tally_band[2]);
  PERIGEE_HISTOGRAM_OBSERVE("egress.queue_depth", peak_backlog);

  if (ready != nullptr) fill_ready(csr, src, arrival, ready);
  return true;
}

// One source: the collapsed run, re-run per message (with its settles
// reported afresh) when the run abandons it at a tie. An abandoned run's
// tallies are dropped.
template <typename Observer>
void solve_egress(const net::CsrTopology& csr, const EgressConfig& config,
                  const EgressPlan& plan, SourceLane& lane, net::NodeId src,
                  double* arrival, double* ready, Observer& observer) {
  if (run_egress<true>(csr, config, plan, lane, src, arrival, ready,
                       observer)) {
    return;
  }
  PERIGEE_COUNTER_ADD("egress.reruns", 1);
  observer.restart();
  run_egress<false>(csr, config, plan, lane, src, arrival, ready, observer);
}

}  // namespace

EgressPlan EgressPlan::build(const net::Network& network,
                             const EgressConfig& config) {
  EgressPlan plan;
  plan.profile_version_ = network.profile_version();
  const std::size_t n = network.size();
  plan.rates_.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    // 1 Mbit/s = 125 bytes/ms; negative profile values clamp to zero
    // (a zero-rate sender serializes forever, which IEEE propagates as
    // +inf finish times — never delivering, never dividing by zero
    // elsewhere).
    const double mbps =
        std::max(0.0, network.profile(static_cast<net::NodeId>(v))
                          .bandwidth_mbps);
    plan.rates_[v] = mbps * 125.0 * config.rate_scale;
  }
  return plan;
}

const EgressPlan& EgressPlanCache::get(const net::Network& network,
                                       const EgressConfig& config) {
  if (!valid_ || plan_.profile_version() != network.profile_version() ||
      plan_.size() != network.size() || rate_scale_ != config.rate_scale) {
    plan_ = EgressPlan::build(network, config);
    rate_scale_ = config.rate_scale;
    valid_ = true;
  }
  return plan_;
}

void simulate_broadcast_egress_batch(const net::CsrTopology& csr,
                                     const EgressConfig& config,
                                     const EgressPlan& plan,
                                     std::span<const net::NodeId> sources,
                                     EgressScratch& scratch,
                                     MultiSourceResult& out,
                                     runner::ThreadPool* pool) {
  materialize_batch("egress_batch", csr, sources, scratch, out, pool,
                    [&](SourceLane& lane, net::NodeId src, double* arrival,
                        double* ready) {
                      NoSettleObserver all;
                      solve_egress(csr, config, plan, lane, src, arrival,
                                   ready, all);
                    });
}

void coverage_egress_batch(const net::CsrTopology& csr,
                           const EgressConfig& config, const EgressPlan& plan,
                           std::span<const net::NodeId> sources,
                           EgressScratch& scratch,
                           const CoverageTargets& targets,
                           CoverageTimes& times, runner::ThreadPool* pool) {
  observe_batch(csr, sources, scratch, targets, times, pool,
                [&](SourceLane& lane, net::NodeId src, double* arrival,
                    CoverageObserver& observer) {
                  solve_egress(csr, config, plan, lane, src, arrival, nullptr,
                               observer);
                });
}

}  // namespace perigee::sim

#include "sim/egress.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

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

// The per-batch event-queue plan: the fixed-point grid of the events'
// BucketQueue, or nullopt for the 4-ary heap.
using EventPlan = std::optional<BucketQueueBase::FixedPlan>;

// Derives the event plan from the snapshot and the rates. Event times never
// run backwards: an Arrival lands δ >= min δ > 0 after the event that
// scheduled it, a Ready Δv >= 0 after its Arrival, and a SendDone (or a
// control run's end) at a finish >= its start. The reach — how far past
// the event being handled one push can land — is therefore the largest of
// max δ, max Δv and one sender's whole serialization, deg·size/rate (its
// longest control run, or one payload). A settle chain is at most n hops,
// each adding at most δ + Δv + the sender's control and payload segments
// (2·deg·size/rate), which bounds every event time; doubled for slack like
// the delay plan's. A negative or non-finite δ or Δv (times run
// backwards) is refused outright (`require_causal_delays`). No plan without
// a positive min δ to size the grid by, nor for inputs that break those
// bounds: a negative burst (a send outlasts size/rate), or a sender with a
// zero or non-finite rate (its finish is +inf).
EventPlan make_event_plan(const net::CsrTopology& csr,
                          const EgressConfig& config, const EgressPlan& plan) {
  require_causal_delays(csr);
  const std::size_t n = csr.size();
  PERIGEE_ASSERT(plan.size() == n);
  // EgressEvent::seq is 32 bits: a source schedules at most one Ready per
  // node, one Arrival per delivered payload and one SendDone per message.
  PERIGEE_ASSERT_MSG(n + 1 + 3 * static_cast<std::uint64_t>(csr.num_links()) <
                         (std::uint64_t{1} << 32),
                     "egress event sequence exceeds 32 bits");
  if (csr.num_links() == 0 || !(config.burst_bytes >= 0.0)) {
    return std::nullopt;
  }
  double size = 0.0;
  if (!config.unlimited_rate) {
    if (config.block_bytes > size) size = config.block_bytes;
    if (config.control_bytes > size) size = config.control_bytes;
  }
  const std::size_t* offsets = csr.offsets();
  const std::size_t* row_ends = csr.row_ends();
  double serial = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    const auto u = static_cast<net::NodeId>(v);
    const std::size_t deg = row_ends[v] - offsets[v];
    if (deg == 0 || size == 0.0) continue;
    const double rate = plan.rate(u);
    if (!(rate > 0.0) || !std::isfinite(rate)) return std::nullopt;
    serial = std::max(serial, static_cast<double>(deg) * size / rate);
  }
  const double hop = csr.max_delay_ms() + csr.max_validation_ms();
  const double max_reach = std::max(hop, serial);
  const double max_key =
      (static_cast<double>(n) + 1.0) * (hop + 2.0 * serial) * 2.0;
  return BucketQueueBase::plan_fixed(csr.min_delay_ms(), max_reach, max_key);
}

// The two homes of the (time, seq) event order behind one interface. Both
// pop in exactly that order; `next_ties(t)`, asked right after popping an
// event at time t, says whether another pending event has time t too.
class BucketEvents {
 public:
  BucketEvents(BucketQueue<EgressEvent>& queue,
               const BucketQueueBase::FixedPlan& plan)
      : queue_(queue) {
    queue_.reset(plan);
  }
  void push(double time, net::NodeId node, std::uint32_t seq,
            std::uint8_t kind) {
    queue_.push(time, node, seq, kind);
  }
  EgressEvent pop() { return queue_.pop(); }
  bool empty() const { return queue_.empty(); }
  // Equal times share a bucket, and the active bucket drains sorted, so its
  // back is the smallest pending event whenever one has time t.
  bool next_ties(double time) const {
    const EgressEvent* next = queue_.peek_active();
    return next != nullptr && next->key == time;
  }

 private:
  BucketQueue<EgressEvent>& queue_;
};

class HeapEvents {
 public:
  explicit HeapEvents(std::vector<EgressEvent>& heap) : heap_(heap) {
    heap_.clear();
  }
  void push(double time, net::NodeId node, std::uint32_t seq,
            std::uint8_t kind) {
    heap_push(heap_, {time, 0, node, seq, kind});
  }
  EgressEvent pop() { return heap_pop(heap_); }
  bool empty() const { return heap_.empty(); }
  bool next_ties(double time) const {
    return !heap_.empty() && heap_.front().key == time;
  }

 private:
  std::vector<EgressEvent>& heap_;
};

// One source's discrete-event simulation into caller-provided stripes.
//
// The loop is a pure function of (csr, config, plan, src): `events` (either
// home above — they pop alike) yields events in (time, seq) order where seq
// is the monotone schedule counter, so equal times resolve FIFO by schedule
// order — the deterministic tie-break rule.
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
// are still pending when it pops. On such a tie the source is abandoned
// (returns false) and `solve_egress` re-runs it without the collapse.
template <bool kCollapse, typename Events, typename Observer>
bool run_egress(const net::CsrTopology& csr, const EgressConfig& config,
                const EgressPlan& plan, SourceLane& lane, Events& events,
                net::NodeId src, double* arrival, double* ready,
                Observer& observer) {
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

  std::uint32_t seq = 0;
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
      events.push(cand, v, seq++, kArrival);
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
        events.push(finish, u, seq++, kind);
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
  events.push(0.0, src, seq++, kReady);
  bool done = observer.settle(src, 0.0);

  while (!done && !events.empty()) {
    const EgressEvent ev = events.pop();
    const double now = ev.key;
    PERIGEE_TELEMETRY_ONLY(++tally_events;)
    const net::NodeId u = ev.node;
    switch (ev.kind) {
      case kArrival: {
        // Stale entries carry a key the node has since improved on
        // (solve_one's rule); the first non-stale pop settles the node.
        if (lane.settled[u] != 0 || now != arrival[u]) break;
        lane.settled[u] = 1;
        done = observer.settle(u, now);
        // A withholder receives (and counts toward coverage) but never
        // relays.
        if (done || !csr.forwards(u)) break;
        events.push(now + csr.validation_ms(u), u, seq++, kReady);
        break;
      }
      case kReady: {
        lane.segment[u] = 0;
        lane.edge[u] = 0;
        lane.tokens[u] = config.burst_bytes;
        lane.refill_time[u] = now;
        PERIGEE_TELEMETRY_ONLY(
            backlog +=
            2 * static_cast<std::int64_t>(row_ends[u] - offsets[u]);
            peak_backlog = std::max(peak_backlog, backlog);)
        pump(u, now);
        break;
      }
      case kRunEnd:
        // An event at this very time may have been scheduled while the run
        // serialized; the per-message order could pop it first.
        if (events.next_ties(now)) return false;
        [[fallthrough]];
      case kSendDone: {
        const std::size_t e = offsets[u] + lane.edge[u];
        PERIGEE_TELEMETRY_ONLY(--backlog;)
        if (lane.segment[u] == payload_segment) {
          relax(peers[e], now + delays[e]);
        }
        ++lane.edge[u];
        pump(u, now);
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
// tallies are dropped. Events go through the lane's bucket queue under the
// batch's plan, or through its heap when the batch has none.
template <bool kCollapse, typename Observer>
bool run_planned(const net::CsrTopology& csr, const EgressConfig& config,
                 const EgressPlan& plan, const EventPlan& event_plan,
                 SourceLane& lane, net::NodeId src, double* arrival,
                 double* ready, Observer& observer) {
  if (event_plan.has_value()) {
    BucketEvents events(lane.events, *event_plan);
    return run_egress<kCollapse>(csr, config, plan, lane, events, src,
                                 arrival, ready, observer);
  }
  HeapEvents events(lane.event_heap);
  return run_egress<kCollapse>(csr, config, plan, lane, events, src, arrival,
                               ready, observer);
}

template <typename Observer>
void solve_egress(const net::CsrTopology& csr, const EgressConfig& config,
                  const EgressPlan& plan, const EventPlan& event_plan,
                  SourceLane& lane, net::NodeId src, double* arrival,
                  double* ready, Observer& observer) {
  PERIGEE_COUNTER_ADD("egress.heap_sources", event_plan.has_value() ? 0 : 1);
  if (run_planned<true>(csr, config, plan, event_plan, lane, src, arrival,
                        ready, observer)) {
    return;
  }
  PERIGEE_COUNTER_ADD("egress.reruns", 1);
  observer.restart();
  run_planned<false>(csr, config, plan, event_plan, lane, src, arrival, ready,
                     observer);
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
  const EventPlan event_plan = make_event_plan(csr, config, plan);
  materialize_batch("egress_batch", csr, sources, scratch, out, pool,
                    [&](SourceLane& lane, net::NodeId src, double* arrival,
                        double* ready) {
                      NoSettleObserver all;
                      solve_egress(csr, config, plan, event_plan, lane, src,
                                   arrival, ready, all);
                    });
}

void coverage_egress_batch(const net::CsrTopology& csr,
                           const EgressConfig& config, const EgressPlan& plan,
                           std::span<const net::NodeId> sources,
                           EgressScratch& scratch,
                           const CoverageTargets& targets,
                           CoverageTimes& times, runner::ThreadPool* pool) {
  const EventPlan event_plan = make_event_plan(csr, config, plan);
  observe_batch(csr, sources, scratch, targets, times, pool,
                [&](SourceLane& lane, net::NodeId src, double* arrival,
                    CoverageObserver& observer) {
                  solve_egress(csr, config, plan, event_plan, lane, src,
                               arrival, nullptr, observer);
                });
}

}  // namespace perigee::sim

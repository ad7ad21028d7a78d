// Test-only oracle for the paper's §2.1 broadcast relaxation:
//
//   arrival(v) = min over adjacent u of ready(u) + δ(u,v)
//   ready(u)   = arrival(u) + Δu          (the miner skips validation)
//
// computed the slow, obvious way: a binary std::priority_queue walking the
// mutable `net::Topology` link lists and resolving δ per edge visit through
// the `net::Network` — no compiled snapshot, no fixed-point keys, no bucket
// queue. Every production engine (batched, pooled, egress at ∞ rate) runs
// on a `net::CsrTopology` and is held byte-equal to this walker by the
// parity suites, so it lives here rather than in src/.
//
// `batch_of_one` is the other side of most of those checks: the production
// single-source path, which is the batch driver over a one-element span
// (`egress_batch_of_one` is the same shape for the egress solver).
//
// `egress_reference` is the egress solver's oracle at finite rates: the
// rules of docs/TRANSMISSION_MODEL.md as a plain event loop, with
// materialized send queues and one SendDone per serialized message.
//
// `gossip_reference` is the announce solver's oracle: the message-level
// INV -> GETDATA -> BLOCK relay as an event loop over every message, on
// the compiled snapshot's control and block δ (`announce_batch_of_one` is
// the production side).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "net/csr.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/batch.hpp"
#include "sim/egress.hpp"
#include "sim/broadcast.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace perigee::oracle {

/// δ of one adjacency link: the infra override or the network's edge delay.
/// `net::CsrTopology::build` resolves the same value into its delay array.
inline double link_delay_ms(const net::Topology::Link& link, net::NodeId from,
                            const net::Network& network) {
  return link.is_infra() ? link.infra_ms
                         : network.edge_delay_ms(from, link.peer);
}

/// One block broadcast from `miner`, walking the live Topology/Network pair.
inline sim::BroadcastResult simulate_broadcast(const net::Topology& topology,
                                               const net::Network& network,
                                               net::NodeId miner) {
  PERIGEE_ASSERT(topology.size() == network.size());
  PERIGEE_ASSERT(miner < network.size());
  const std::size_t n = network.size();

  sim::BroadcastResult result;
  result.miner = miner;
  result.arrival.assign(n, util::kInf);
  result.ready.assign(n, util::kInf);
  result.arrival[miner] = 0.0;
  result.ready[miner] = 0.0;  // the miner does not validate its own block

  using Item = std::pair<double, net::NodeId>;  // (arrival, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
  queue.emplace(0.0, miner);
  std::vector<bool> settled(n, false);

  while (!queue.empty()) {
    const auto [t, u] = queue.top();
    queue.pop();
    if (settled[u]) continue;
    settled[u] = true;
    // A withholding node receives blocks but never relays them; its own
    // blocks still propagate (otherwise mining would be pointless).
    if (!network.profile(u).forwards && u != miner) continue;
    const double ready = result.ready[u];
    for (const auto& link : topology.adjacency(u)) {
      const net::NodeId v = link.peer;
      if (settled[v]) continue;
      const double cand = ready + link_delay_ms(link, u, network);
      if (cand < result.arrival[v]) {
        result.arrival[v] = cand;
        result.ready[v] = cand + network.validation_ms(v);
        queue.emplace(cand, v);
      }
    }
  }
  return result;
}

/// Time at which u's copy of the block reaches v (u = link_from_v.peer,
/// adjacent to v): ready[u] + δ(u,v); +inf if u never got the block or
/// withholds it.
inline double delivery_time(const sim::BroadcastResult& result,
                            const net::Topology::Link& link_from_v,
                            net::NodeId v, const net::Network& network) {
  const net::NodeId u = link_from_v.peer;
  if (!network.profile(u).forwards && u != result.miner) return util::kInf;
  const double ready = result.ready[u];
  if (std::isinf(ready)) return util::kInf;
  // δ is symmetric, so the v-side link entry carries the right cost.
  return ready + link_delay_ms(link_from_v, v, network);
}

/// One egress broadcast from `miner` by docs/TRANSMISSION_MODEL.md's rules,
/// walking the live Topology/Network pair: a `std::priority_queue` of
/// (time, seq) events, each sender's send list materialized at its Ready in
/// drain order, every serialized message completing at its own SendDone, and
/// every delivered payload queued as an Arrival (the first pop settles).
inline sim::BroadcastResult egress_reference(const net::Topology& topology,
                                             const net::Network& network,
                                             const sim::EgressConfig& config,
                                             net::NodeId miner) {
  PERIGEE_ASSERT(topology.size() == network.size());
  PERIGEE_ASSERT(miner < network.size());
  const std::size_t n = network.size();

  struct Message {
    net::NodeId peer;
    double delay;
    double bytes;
    bool payload;
  };
  struct Sender {
    std::vector<Message> queue;  // drain order
    std::size_t head = 0;        // the message on the uplink
    double tokens = 0.0;
    double last_refill = 0.0;
  };
  enum class Kind { Arrival, Ready, SendDone };
  struct Event {
    double time;
    std::uint64_t seq;
    Kind kind;
    net::NodeId node;
    bool operator>(const Event& other) const {
      return std::tie(time, seq) > std::tie(other.time, other.seq);
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::uint64_t seq = 0;
  const auto schedule = [&](double time, Kind kind, net::NodeId v) {
    events.push({time, seq++, kind, v});
  };

  sim::BroadcastResult result;
  result.miner = miner;
  result.arrival.assign(n, util::kInf);
  std::vector<Sender> senders(n);
  std::vector<bool> settled(n, false);

  const auto rate_of = [&](net::NodeId v) {
    return std::max(0.0, network.profile(v).bandwidth_mbps) * 125.0 *
           config.rate_scale;
  };

  // Sends from u's queue head at `now` until a message must serialize: a
  // payload to a settled receiver is suppressed, a message the bucket
  // absorbs (or that costs nothing) completes at once.
  const auto pump = [&](net::NodeId u, double now) {
    Sender& sender = senders[u];
    while (sender.head < sender.queue.size()) {
      const Message& m = sender.queue[sender.head];
      if (m.payload && settled[m.peer]) {
        ++sender.head;
        continue;
      }
      double finish = now;
      if (!config.unlimited_rate && m.bytes > 0.0) {
        const double rate = rate_of(u);
        if (now > sender.last_refill) {
          sender.tokens =
              std::min(config.burst_bytes,
                       sender.tokens + rate * (now - sender.last_refill));
          sender.last_refill = now;
        }
        if (m.bytes <= sender.tokens) {
          sender.tokens -= m.bytes;
        } else {
          finish = now + (m.bytes - sender.tokens) / rate;
          sender.tokens = 0.0;
          sender.last_refill = finish;
        }
      }
      if (finish > now) {
        schedule(finish, Kind::SendDone, u);
        return;
      }
      if (m.payload) schedule(now + m.delay, Kind::Arrival, m.peer);
      ++sender.head;
    }
  };

  result.arrival[miner] = 0.0;
  settled[miner] = true;
  schedule(0.0, Kind::Ready, miner);
  while (!events.empty()) {
    const Event ev = events.top();
    events.pop();
    const net::NodeId u = ev.node;
    switch (ev.kind) {
      case Kind::Arrival:
        if (settled[u]) break;
        settled[u] = true;
        result.arrival[u] = ev.time;
        if (network.profile(u).forwards) {
          schedule(ev.time + network.validation_ms(u), Kind::Ready, u);
        }
        break;
      case Kind::Ready: {
        // Controls on their band, then payloads on theirs; a lower band
        // drains first, and on a band tie the controls (enqueued first) do.
        std::vector<Message> controls, payloads;
        for (const auto& link : topology.adjacency(u)) {
          const double delay = link_delay_ms(link, u, network);
          controls.push_back({link.peer, delay, config.control_bytes, false});
          payloads.push_back({link.peer, delay, config.block_bytes, true});
        }
        Sender& sender = senders[u];
        sender.queue = config.payload_band() < config.control_band()
                           ? payloads
                           : controls;
        const auto& second = config.payload_band() < config.control_band()
                                 ? controls
                                 : payloads;
        sender.queue.insert(sender.queue.end(), second.begin(), second.end());
        sender.tokens = config.burst_bytes;
        sender.last_refill = ev.time;
        pump(u, ev.time);
        break;
      }
      case Kind::SendDone: {
        Sender& sender = senders[u];
        const Message& m = sender.queue[sender.head];
        if (m.payload) schedule(ev.time + m.delay, Kind::Arrival, m.peer);
        ++sender.head;
        pump(u, ev.time);
        break;
      }
    }
  }

  result.ready.resize(n);
  for (net::NodeId v = 0; v < n; ++v) {
    result.ready[v] = result.arrival[v] + network.validation_ms(v);
  }
  result.ready[miner] = 0.0;  // the miner does not validate its own block
  return result;
}

/// One INV as received: `to` heard from `from` at `time_ms`.
struct Announcement {
  net::NodeId to;
  net::NodeId from;
  double time_ms;
};

/// What `gossip_reference` saw of one block.
struct GossipTrace {
  /// `arrival`: the block in hand, +inf if never. `ready`: the relay stripe
  /// as `sim::fill_ready` defines it, the miner's 0 and every other node's
  /// arrival + Δv, which is when a forwarding holder announces.
  sim::BroadcastResult result;
  std::vector<double> first_announce;  ///< first INV heard; +inf if none
  std::vector<Announcement> announcements;  ///< every INV, in pop order
  std::size_t messages_processed = 0;       ///< events drained
};

/// One message-level broadcast from `miner`: a node that has validated a
/// block announces it (INV, control δ) to every neighbor; a neighbor lacking
/// it requests it (GETDATA, control δ) from its first announcer only, and
/// the block follows (block δ). Events pop in the total order (time, type,
/// to, from), so of two INVs reaching v at one instant the smaller
/// announcer's is v's first. Honest senders always deliver, so no
/// re-request timeout is modeled.
inline GossipTrace gossip_reference(const net::CsrTopology& csr,
                                    net::NodeId miner) {
  const std::size_t n = csr.size();
  PERIGEE_ASSERT(miner < n);

  enum class MsgType : std::uint8_t { Inv, Getdata, Block };
  struct Event {
    double time;
    MsgType type;
    net::NodeId from;
    net::NodeId to;
    bool operator>(const Event& other) const {
      return std::tie(time, type, to, from) >
             std::tie(other.time, other.type, other.to, other.from);
    }
  };

  GossipTrace trace;
  sim::BroadcastResult& result = trace.result;
  result.miner = miner;
  result.arrival.assign(n, util::kInf);
  trace.first_announce.assign(n, util::kInf);
  std::vector<bool> has_block(n, false);
  std::vector<bool> requested(n, false);
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;

  const auto on_validated = [&](net::NodeId u, double t_ready) {
    const auto peers = csr.peers(u);
    const auto costs = csr.control_delays(u);
    for (std::size_t i = 0; i < peers.size(); ++i) {
      queue.push(Event{t_ready + costs[i], MsgType::Inv, u, peers[i]});
    }
  };
  const auto accept_block = [&](net::NodeId v, double t) {
    if (has_block[v]) return;
    has_block[v] = true;
    result.arrival[v] = t;
    if (!csr.forwards(v)) return;  // withholding node
    on_validated(v, t + csr.validation_ms(v));
  };

  // The miner holds its freshly mined block at t=0 and relays immediately
  // (no validation of its own block).
  has_block[miner] = true;
  result.arrival[miner] = 0.0;
  trace.first_announce[miner] = 0.0;
  on_validated(miner, 0.0);

  while (!queue.empty()) {
    const Event ev = queue.top();
    queue.pop();
    ++trace.messages_processed;
    switch (ev.type) {
      case MsgType::Inv:
        trace.first_announce[ev.to] =
            std::min(trace.first_announce[ev.to], ev.time);
        trace.announcements.push_back({ev.to, ev.from, ev.time});
        if (!has_block[ev.to] && !requested[ev.to]) {
          requested[ev.to] = true;
          queue.push(Event{ev.time + csr.control_delay(ev.to, ev.from),
                           MsgType::Getdata, ev.to, ev.from});
        }
        break;
      case MsgType::Getdata:
        // ev.to is the node holding the block (it sent the INV).
        PERIGEE_ASSERT(has_block[ev.to]);
        queue.push(Event{ev.time + csr.block_delay(ev.to, ev.from),
                         MsgType::Block, ev.to, ev.from});
        break;
      case MsgType::Block:
        accept_block(ev.to, ev.time);
        break;
    }
  }

  result.ready.resize(n);
  for (net::NodeId v = 0; v < n; ++v) {
    result.ready[v] = result.arrival[v] + csr.validation_ms(v);
  }
  result.ready[miner] = 0.0;
  return trace;
}

/// The production single-source path: `sim::simulate_broadcast_batch` over a
/// one-element span, extracted into the single-source result shape.
inline sim::BroadcastResult batch_of_one(const net::CsrTopology& csr,
                                         net::NodeId miner) {
  const std::array<net::NodeId, 1> source{miner};
  sim::MultiSourceScratch scratch;
  sim::MultiSourceResult batch;
  sim::simulate_broadcast_batch(csr, source, scratch, batch);
  sim::BroadcastResult result;
  batch.extract(0, result);
  return result;
}

/// The production single-source egress path:
/// `sim::simulate_broadcast_egress_batch` over a one-element span, extracted
/// into the single-source result shape.
inline sim::BroadcastResult egress_batch_of_one(
    const net::CsrTopology& csr, const sim::EgressConfig& config,
    const sim::EgressPlan& plan, net::NodeId miner) {
  const std::array<net::NodeId, 1> source{miner};
  sim::EgressScratch scratch;
  sim::MultiSourceResult batch;
  sim::simulate_broadcast_egress_batch(csr, config, plan, source, scratch,
                                       batch);
  sim::BroadcastResult result;
  batch.extract(0, result);
  return result;
}

/// The announce solver's single-source path: `sim::simulate_announce_batch`
/// over a one-element span, extracted into the single-source result shape.
inline sim::BroadcastResult announce_batch_of_one(const net::CsrTopology& csr,
                                                  net::NodeId miner) {
  const std::array<net::NodeId, 1> source{miner};
  sim::MultiSourceScratch scratch;
  sim::MultiSourceResult batch;
  sim::simulate_announce_batch(csr, source, scratch, batch);
  sim::BroadcastResult result;
  batch.extract(0, result);
  return result;
}

}  // namespace perigee::oracle

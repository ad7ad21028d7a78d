#include "sim/gossip.hpp"

#include <cmath>
#include <queue>

#include "util/assert.hpp"
#include "util/stats.hpp"

namespace perigee::sim {
namespace {

enum class MsgType : std::uint8_t { Inv, Getdata, Block };

struct Event {
  double time;
  MsgType type;
  net::NodeId from;
  net::NodeId to;

  bool operator>(const Event& other) const { return time > other.time; }
};

}  // namespace

GossipResult simulate_gossip(const net::CsrTopology& csr, net::NodeId miner,
                             const GossipConfig& config) {
  const std::size_t n = csr.size();
  PERIGEE_ASSERT(miner < n);

  GossipResult result;
  result.miner = miner;
  result.arrival.assign(n, util::kInf);
  result.first_announce.assign(n, util::kInf);

  std::vector<bool> has_block(n, false);
  std::vector<bool> requested(n, false);

  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;

  auto on_validated = [&](net::NodeId u, double t_ready) {
    // Relay to every neighbor. Push mode sends the block itself (full edge
    // delay); handshake mode announces with an INV (control delay). Both
    // costs are one pre-resolved array read per link.
    const auto peers = csr.peers(u);
    const auto costs = config.mode == GossipConfig::Mode::Push
                           ? csr.delays(u)
                           : csr.control_delays(u);
    const MsgType type = config.mode == GossipConfig::Mode::Push
                             ? MsgType::Block
                             : MsgType::Inv;
    for (std::size_t i = 0; i < peers.size(); ++i) {
      queue.push(Event{t_ready + costs[i], type, u, peers[i]});
    }
  };

  auto record_announce = [&](net::NodeId v, net::NodeId u, double t) {
    result.first_announce[v] = std::min(result.first_announce[v], t);
    if (config.record_edge_times) {
      result.edge_times.push_back(GossipEdgeTime{v, u, t});
    }
  };

  auto accept_block = [&](net::NodeId v, double t) {
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
  result.first_announce[miner] = 0.0;
  on_validated(miner, 0.0);

  while (!queue.empty()) {
    const Event ev = queue.top();
    queue.pop();
    ++result.messages_processed;
    switch (ev.type) {
      case MsgType::Inv:
        record_announce(ev.to, ev.from, ev.time);
        if (!has_block[ev.to] && !requested[ev.to]) {
          // Request from the first announcer only; honest senders always
          // deliver, so no re-request timeout is modeled.
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
        if (config.mode == GossipConfig::Mode::Push) {
          record_announce(ev.to, ev.from, ev.time);
        }
        accept_block(ev.to, ev.time);
        break;
    }
  }
  return result;
}

GossipResult simulate_gossip(const net::Topology& topology,
                             const net::Network& network, net::NodeId miner,
                             const GossipConfig& config) {
  PERIGEE_ASSERT(topology.size() == network.size());
  return simulate_gossip(net::CsrTopology::build(topology, network), miner,
                         config);
}

}  // namespace perigee::sim

#include "am/node_executor.hpp"

#include <utility>

namespace hal::am {

NodeExecutor::NodeExecutor(Machine& machine, std::uint32_t participants,
                           bool mailboxes)
    : machine_(machine), detector_(participants) {
  if (mailboxes) {
    const NodeId nodes = machine.node_count();
    mailboxes_.reserve(nodes);
    for (NodeId n = 0; n < nodes; ++n) {
      mailboxes_.push_back(std::make_unique<MpscQueue<Packet>>());
    }
  }
}

void NodeExecutor::dispatch(NodeId node, Packet p, LinkSink& sink) {
  if (machine_.links_active() && (p.link_seq != 0 || p.link_ack)) {
    // Physical arrival on the faulty wire: the endpoint dedupes, reorders
    // into sequence, acks, and calls sink.link_deliver for each packet that
    // becomes deliverable.
    machine_.link(node).receive(std::move(p), sink);
  } else {
    // Plain packets run their handler directly; coalesced frames decode
    // into one handler call per record (one wake and one mailbox slot
    // carried many messages).
    machine_.deliver_to_client(node, std::move(p));
  }
}

void NodeExecutor::post(Packet p, std::uint32_t who) {
  const NodeId dst = p.dst;
  // Epoch order matters for termination detection: the send must be counted
  // before the packet becomes visible, so a checker that reads
  // sent == handled knows no packet is hiding in a queue.
  detector_.note_sent(who);
  mailboxes_[dst]->push(std::move(p));
}

std::size_t NodeExecutor::drain(NodeId node, LinkSink& sink,
                                std::uint32_t who, std::size_t max) {
  MpscQueue<Packet>& q = *mailboxes_[node];
  std::size_t done = 0;
  while (done < max) {
    auto p = q.pop();
    if (!p.has_value()) break;
    dispatch(node, std::move(*p), sink);
    // The handled epoch counts the *physical* packet regardless of whether
    // the link layer suppressed it as a duplicate — symmetric with post().
    detector_.note_handled(who);
    ++done;
  }
  return done;
}

std::size_t NodeExecutor::step_quantum(NodeId node, std::size_t max) {
  NodeClient& c = machine_.client(node);
  std::size_t done = 0;
  while (done < max && c.step()) ++done;
  return done;
}

SimTime NodeExecutor::fire_link_timer(NodeId node, SimTime now,
                                      LinkSink& sink) {
  if (!machine_.links_active()) return 0;
  LinkEndpoint& ep = machine_.link(node);
  ep.on_timer(now, sink);
  return ep.next_deadline();
}

SimTime NodeExecutor::link_deadline(NodeId node) const {
  if (!machine_.links_active()) return 0;
  return machine_.link(node).next_deadline();
}

}  // namespace hal::am

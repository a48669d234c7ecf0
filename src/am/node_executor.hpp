// Shared node-stepping core for Machine implementations.
//
// Every machine ultimately does the same per-node work: demultiplex a
// physical arrival (reliable-link packet vs. direct active message), drain a
// mailbox, run NodeClient::step quanta, count termination-detector epochs,
// and fire link retransmission timers. SimMachine keeps its own event queue
// and virtual clocks but shares the demux and timer entry points;
// MnMachine additionally runs its per-node MPSC mailboxes and epoch
// accounting through here — which is what makes it an executor *policy*
// (which worker runs which node when) rather than a second copy of the
// event-loop logic.
//
// Threading contract: post() may be called from any thread (it is the
// cross-thread handoff point); dispatch()/drain()/step_quantum()/
// fire_link_timer() must be called from the node's current execution stream
// (exactly one thread at a time, with a happens-before edge between
// successive owners — the machines' scheduling structures provide it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "am/machine.hpp"
#include "common/lint_markers.hpp"
#include "common/mpsc_queue.hpp"
#include "common/termination.hpp"

namespace hal::am {

class NodeExecutor {
 public:
  /// `participants` sizes the termination detector (MnMachine: one per
  /// worker; SimMachine passes 0 — its event queue is its own quiescence
  /// proof). `mailboxes` allocates the per-node MPSC packet queues;
  /// machines that keep packets elsewhere (SimMachine's event queue) skip
  /// them.
  NodeExecutor(Machine& machine, std::uint32_t participants, bool mailboxes);

  NodeExecutor(const NodeExecutor&) = delete;
  NodeExecutor& operator=(const NodeExecutor&) = delete;

  /// Run one physical arrival on `node`'s execution stream: packets carrying
  /// link state (sequence number or ack) go through the node's LinkEndpoint
  /// (dedupe, reorder, ack — only in-order data reaches the client via
  /// sink.link_deliver); everything else goes straight to the client.
  void dispatch(NodeId node, Packet p, LinkSink& sink);

  // --- Mailbox plane (queue-based machines only) --------------------------

  /// Publish one physical packet: count it in participant `who`'s sent
  /// epoch *before* the push (the detector's double scan needs
  /// sent == handled to prove no packet hides in a queue), then push it
  /// into the destination mailbox. `who` is the calling worker (0 for the
  /// bootstrap thread). Any wakeup handshake stays with the caller — it is
  /// scheduling policy.
  void post(Packet p, std::uint32_t who);

  /// Exact from the consuming stream when false; may race when true.
  bool mailbox_empty(NodeId node) const {
    return mailboxes_[node]->empty();
  }

  /// Pop and dispatch up to `max` packets from `node`'s mailbox, counting
  /// each in participant `who`'s handled epoch (physical packets, symmetric
  /// with post()). Returns the number of packets processed.
  std::size_t drain(NodeId node, LinkSink& sink, std::uint32_t who,
                    std::size_t max = std::numeric_limits<std::size_t>::max());

  /// Run NodeClient::step() until it reports no work, up to `max` times.
  std::size_t step_quantum(NodeId node, std::size_t max);

  // --- Link retransmission timers -----------------------------------------

  /// Fire `node`'s retransmission timer (resend masters past their deadline)
  /// on its execution stream; returns the endpoint's next deadline (0 when
  /// nothing is pending or links are inactive).
  SimTime fire_link_timer(NodeId node, SimTime now, LinkSink& sink);

  /// The node's earliest retransmission deadline (0 = none / links off).
  SimTime link_deadline(NodeId node) const;

  TerminationDetector& detector() noexcept { return detector_; }
  const TerminationDetector& detector() const noexcept { return detector_; }

 private:
  Machine& machine_;
  TerminationDetector detector_;
  // Physical packets in flight are epoch-counted units (HAL_EPOCH_COUNTED →
  // hal-lint HL009): post() bumps the sent epoch before every push, drain()
  // bumps handled after every pop, so the detector's double scan stays exact.
  std::vector<std::unique_ptr<MpscQueue<Packet>>> mailboxes_ HAL_EPOCH_COUNTED;
};

}  // namespace hal::am

#include "am/sim_machine.hpp"

#include <algorithm>
#include <utility>

#include "check/affinity.hpp"

namespace hal::am {

SimMachine::SimMachine(NodeId nodes, CostModel costs)
    : Machine(nodes, costs),
      clock_(nodes, 0),
      handler_tail_(nodes, 0),
      resume_pending_(nodes, false),
      idle_notified_(nodes, false),
      link_timer_pending_(nodes, false),
      frame_timer_pending_(nodes, false),
      service_pending_(nodes, false) {}

void SimMachine::configure_faults(const FaultConfig& cfg) {
  HAL_ASSERT(!running_);
  Machine::configure_faults(cfg);
  std::fill(link_timer_pending_.begin(), link_timer_pending_.end(), false);
}

void SimMachine::configure_batching(const BatchConfig& cfg) {
  HAL_ASSERT(!running_);
  Machine::configure_batching(cfg);
  std::fill(frame_timer_pending_.begin(), frame_timer_pending_.end(), false);
}

SimTime SimMachine::default_rto() const noexcept {
  // A few simulated round trips, with a floor so degenerate cost models
  // (CostModel::zero) still make forward progress between retries.
  const auto& c = costs();
  const SimTime rtt = c.wire_latency_ns + c.packet_inject_ns +
                      c.handler_entry_ns +
                      c.per_word_ns * static_cast<SimTime>(kPacketWords);
  return std::max<SimTime>(8 * rtt, 1000);
}

void SimMachine::push_event(Event e) {
  e.seq = next_seq_++;
  queue_.push(std::move(e));
}

void SimMachine::schedule_resume(NodeId node) {
  if (resume_pending_[node]) return;
  resume_pending_[node] = true;
  push_event(Event{clock_[node], 0, EventKind::kResume, node, {}});
}

SimTime SimMachine::current_time(NodeId node) const {
  if (in_handler_ && node == handler_node_) return handler_time_;
  return clock_[node];
}

void SimMachine::send(Packet p) {
  check_packet(p);
  const auto& c = costs();
  if (batch_eligible(p)) {
    // Coalesced path: the record pays its per-word/per-byte marshalling
    // now; the fixed injection overhead is deferred to the frame and paid
    // once in wire_inject — the amortization the batching layer models.
    charge(p.src,
           c.per_word_ns * static_cast<SimTime>(kPacketWords) +
               c.payload_byte_ns * static_cast<SimTime>(p.payload.size()));
    p.stamp = current_time(p.src);
    const NodeId src = p.src;
    batch_append(std::move(p), current_time(src));
    schedule_frame_timer(src);
    return;
  }
  // Unbatchable traffic on a channel with an open frame must flush it
  // first, or the frame's records would be reordered behind this packet.
  if (batching_active() && p.src != p.dst) batch_barrier(p.src, p.dst);
  // Sender pays injection: fixed overhead + per-word + per-payload-byte.
  charge(p.src, c.packet_inject_ns +
                    c.per_word_ns * static_cast<SimTime>(kPacketWords) +
                    c.payload_byte_ns * static_cast<SimTime>(p.payload.size()));
  p.stamp = current_time(p.src);
  if (links_active() && p.src != p.dst) {
    // Faulty wire: the reliable link sequences the packet, files its
    // retransmit master, and puts the (possibly mangled) copies on the
    // wire through link_transmit below. Loopback skips the link — a node's
    // own queue cannot drop.
    const NodeId src = p.src;
    link(src).send_data(std::move(p), current_time(src), *this);
    schedule_link_timer(src);
    return;
  }
  const SimTime arrival = p.stamp + c.wire_latency_ns;
  const NodeId dst = p.dst;
  push_event(Event{arrival, 0, EventKind::kDelivery, dst, std::move(p)});
}

void SimMachine::link_transmit(Packet p, SimTime extra_delay_ns) {
  // First transmissions were charged in send(); retransmissions and acks
  // are fresh NI work, billed to whichever stream is currently executing
  // (handler stream when an arrival triggers an ack, method stream when a
  // timer fires).
  if (p.retransmitted || p.link_ack) {
    charge(p.src, costs().packet_inject_ns);
  }
  const SimTime arrival =
      current_time(p.src) + costs().wire_latency_ns + extra_delay_ns;
  const NodeId dst = p.dst;
  push_event(Event{arrival, 0, EventKind::kDelivery, dst, std::move(p)});
}

void SimMachine::schedule_link_timer(NodeId node) {
  if (!links_active() || link_timer_pending_[node]) return;
  const SimTime deadline = link(node).next_deadline();
  if (deadline == 0) return;
  link_timer_pending_[node] = true;
  push_event(Event{deadline, 0, EventKind::kLinkTimer, node, {}});
}

void SimMachine::wire_inject(Packet f) {
  // The once-per-frame share of the send cost; every record already paid
  // its marshalling in send().
  charge(f.src, costs().packet_inject_ns);
  f.stamp = current_time(f.src);
  if (links_active() && f.src != f.dst) {
    const NodeId src = f.src;
    link(src).send_data(std::move(f), current_time(src), *this);
    schedule_link_timer(src);
    return;
  }
  const SimTime arrival = f.stamp + costs().wire_latency_ns;
  const NodeId dst = f.dst;
  push_event(Event{arrival, 0, EventKind::kDelivery, dst, std::move(f)});
}

void SimMachine::schedule_frame_timer(NodeId node) {
  if (frame_timer_pending_[node]) return;
  const SimTime deadline = frame_deadline(node);
  if (deadline == 0) return;
  frame_timer_pending_[node] = true;
  push_event(Event{deadline, 0, EventKind::kFrameTimer, node, {}});
}

void SimMachine::schedule_service(NodeId node) {
  if (service_pending_[node]) return;
  const SimTime deadline = client(node).service_deadline();
  if (deadline == 0) return;
  service_pending_[node] = true;
  push_event(Event{std::max(deadline, clock_[node]), 0, EventKind::kService,
                   node,
                   {}});
}

void SimMachine::charge(NodeId node, SimTime ns) {
  HAL_ASSERT(node < node_count());
  if (in_handler_ && node == handler_node_) {
    // Handler execution advances the handler stream; the method stream is
    // billed for the stolen cycles when the handler completes.
    handler_time_ += ns;
  } else {
    clock_[node] += ns;
  }
  autoflush(node);
}

void SimMachine::autoflush(NodeId node) {
  // Guard against re-entry: wire_inject below charges the frame's injection
  // overhead, which lands back here.
  if (autoflushing_ || !batching_active()) return;
  const SimTime due = frame_deadline(node);
  if (due == 0 || due > current_time(node)) return;
  autoflushing_ = true;
  flush_due_frames(node, current_time(node));
  autoflushing_ = false;
}

SimTime SimMachine::now(NodeId node) const {
  HAL_ASSERT(node < node_count());
  return current_time(node);
}

SimTime SimMachine::makespan() const {
  SimTime m = 0;
  for (NodeId n = 0; n < node_count(); ++n) {
    m = std::max(m, std::max(clock_[n], handler_tail_[n]));
  }
  return m;
}

void SimMachine::settle(NodeId node) {
  NodeClient& c = client(node);
  if (c.has_work()) {
    idle_notified_[node] = false;
    schedule_resume(node);
    return;
  }
  // Busy -> idle: ship any held frames before the node goes quiet, so a
  // receiver never waits out a holdoff that outlived the sender's burst.
  flush_frames(node, FlushCause::kIdle);
  if (!idle_notified_[node]) {
    idle_notified_[node] = true;
    c.on_idle();
    // on_idle may have produced local work (it usually only sends packets,
    // but e.g. a balancer may decide to re-enable a parked computation).
    if (c.has_work()) {
      idle_notified_[node] = false;
      schedule_resume(node);
      return;
    }
    // on_idle's own sends (a steal poll, say) must not sit in a frame on an
    // idle node either.
    flush_frames(node, FlushCause::kIdle);
  }
  // An idle client may still want servicing later (service_deadline), e.g.
  // the balancer's backed-off repoll; arm the wake-up event.
  schedule_service(node);
}

void SimMachine::run() {
  HAL_ASSERT(!running_);
  running_ = true;

  // Prime: nodes seeded with bootstrap work start executing at t=0; workless
  // nodes get their idle notification (where a load balancer would poll).
  for (NodeId n = 0; n < node_count(); ++n) {
    check::ScopedExecutionNode scope(n);
    if (client(n).has_work()) {
      schedule_resume(n);
    }
  }
  for (NodeId n = 0; n < node_count(); ++n) {
    check::ScopedExecutionNode scope(n);
    if (!client(n).has_work()) settle(n);
  }

  while (!queue_.empty() && !stop_requested()) {
    // top() yields a const ref; moving through it is safe because the
    // element is popped immediately, and it avoids copying the packet
    // payload (one heap allocation per delivery otherwise).
    Event e = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    ++events_done_;
    if (event_limit_ != 0 && events_done_ > event_limit_) {
      HAL_PANIC("SimMachine event limit exceeded (protocol livelock?)");
    }
    const NodeId n = e.node;
    // Everything below executes on node n's (simulated) stream; the affinity
    // checker treats the whole dispatch as running "on" that node.
    check::ScopedExecutionNode scope(n);
    switch (e.kind) {
      case EventKind::kDelivery: {
        // Preemptive handler (§3): runs at arrival time on the handler
        // stream, serialized after any handler still in flight here.
        const SimTime start = std::max(e.time, handler_tail_[n]);
        in_handler_ = true;
        handler_node_ = n;
        handler_time_ = start;
        charge(n, costs().handler_entry_ns);
        idle_notified_[n] = false;
        // Machine's demux: faulty-wire packets dedupe/reorder/ack in the
        // endpoint and reach the client via link_deliver, all within this
        // handler slot; direct packets go straight through.
        dispatch_arrival(n, std::move(e.packet));
        const SimTime stolen = handler_time_ - start;
        handler_tail_[n] = handler_time_;
        in_handler_ = false;
        handler_node_ = kInvalidNode;
        // Bill the method stream: an idle stream resumes when the handler
        // ends; a busy one is pushed back by the stolen cycles.
        clock_[n] = clock_[n] <= start ? handler_time_ : clock_[n] + stolen;
        break;
      }
      case EventKind::kResume:
        resume_pending_[n] = false;
        clock_[n] = std::max(clock_[n], e.time);
        client(n).step();
        break;
      case EventKind::kLinkTimer:
        // Retransmission timer: resend every master past its deadline,
        // then re-arm at the endpoint's next deadline. Pending timers also
        // keep the event queue non-empty, so run() cannot exit while a
        // dropped packet still awaits recovery.
        link_timer_pending_[n] = false;
        clock_[n] = std::max(clock_[n], e.time);
        if (links_active()) {
          link(n).on_timer(current_time(n), *this);
          schedule_link_timer(n);
        }
        break;
      case EventKind::kFrameTimer: {
        // Holdoff expiry: flush due frames, then re-arm for any still open.
        // Like the link timer, a pending frame timer keeps the queue
        // non-empty, so quiescence cannot be declared over a held frame.
        // A stale timer (its frame already flushed at an idle transition)
        // must not drag the clock forward, or tiny workloads would report
        // holdoff-length makespans.
        frame_timer_pending_[n] = false;
        const SimTime due = frame_deadline(n);
        if (due != 0 && due <= e.time) {
          clock_[n] = std::max(clock_[n], e.time);
          flush_due_frames(n, current_time(n));
        }
        schedule_frame_timer(n);
        break;
      }
      case EventKind::kService: {
        // The client asked for its on_idle to re-run at this time (e.g. a
        // backed-off balancer repoll). Clearing the idle notification lets
        // settle() below invoke on_idle again if the node is still idle.
        // Stale events (the client no longer wants servicing, or pushed the
        // deadline out) are skipped without touching the clock; settle()
        // re-arms at the fresh deadline.
        service_pending_[n] = false;
        const SimTime want = client(n).service_deadline();
        if (want != 0 && want <= e.time) {
          clock_[n] = std::max(clock_[n], e.time);
          idle_notified_[n] = false;
        }
        break;
      }
    }
    settle(n);
  }

  if (!stop_requested()) {
    // Queue exhausted: every node idle, nothing in flight. Outstanding work
    // tokens here mean a protocol deadlock (e.g. a message parked on an FIR
    // whose response was lost) — fail loudly.
    HAL_ASSERT(tokens() == 0);
  }
  running_ = false;
}

}  // namespace hal::am

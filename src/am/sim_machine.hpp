// Deterministic discrete-event machine simulator.
//
// Each node is a sequential execution stream with its own virtual clock;
// packet deliveries and node-resume events are processed from one global
// priority queue ordered by (time, insertion sequence) so every run with the
// same seed is bit-for-bit reproducible. Node code advances its clock via
// Machine::charge(); packet arrival time = sender clock after injection
// charges + wire latency. This is the stand-in for the paper's CM-5
// (DESIGN.md §1): the runtime's protocols execute unmodified, and reported
// "execution times" are simulated makespans.
//
// Handler preemption: on the CM-5 an incoming active message interrupts the
// running actor — "the node manager steals the processor from the actor
// that is currently executing, processes the request using that actor's
// stack frame and subsequently resumes the actor's execution" (§3). The
// simulator models this with two per-node streams: handlers execute at
// their arrival time (serialized among themselves on the handler stream),
// and their cost is charged to the method stream as stolen cycles. A bulk
// transfer therefore makes progress *during* a long method — which is what
// lets communication overlap computation, exactly as on the real machine.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "am/machine.hpp"

namespace hal::am {

class SimMachine final : public Machine {
 public:
  SimMachine(NodeId nodes, CostModel costs);

  void send(Packet p) override;
  void charge(NodeId node, SimTime ns) override;
  SimTime now(NodeId node) const override;
  bool virtual_clock() const noexcept override { return true; }
  void run() override;
  void configure_faults(const FaultConfig& cfg) override;
  void configure_batching(const BatchConfig& cfg) override;

  /// Makespan: maximum virtual clock over all nodes. This is the number the
  /// benchmark tables report as "execution time".
  SimTime makespan() const;

  /// Total events processed (diagnostic; useful in tests to bound work).
  std::uint64_t events_processed() const noexcept { return events_done_; }

  /// Safety valve for protocol bugs: run() aborts after this many events.
  void set_event_limit(std::uint64_t limit) noexcept { event_limit_ = limit; }

 private:
  enum class EventKind : std::uint8_t {
    kDelivery,
    kResume,
    kLinkTimer,
    kFrameTimer,  // wire-batching holdoff expiry (coalesced per node)
    kService,     // client-requested on_idle re-run (service_deadline)
  };

  struct Event {
    SimTime time;
    std::uint64_t seq;  // tie-breaker: FIFO among equal-time events
    EventKind kind;
    NodeId node;
    Packet packet;  // kDelivery only
  };

  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;  // min-heap: earlier seq first
    }
  };

  void push_event(Event e);
  /// Schedule a resume for `node` at its current clock unless one is already
  /// pending.
  void schedule_resume(NodeId node);
  /// After running client code on `node`: keep it executing or transition
  /// it to idle (invoking on_idle once).
  void settle(NodeId node);
  /// The executing stream's current time on `node` (handler stream while a
  /// handler runs, method stream otherwise).
  SimTime current_time(NodeId node) const;

  // LinkSink: one physical wire copy (fault plane).
  void link_transmit(Packet p, SimTime extra_delay_ns) override;
  /// Arm `node`'s retransmission timer event at its endpoint's earliest
  /// deadline (coalesced: at most one pending timer event per node).
  void schedule_link_timer(NodeId node);
  /// A few virtual round trips on the configured cost model.
  SimTime default_rto() const noexcept override;

  /// Route a closed frame to the wire, charging only the once-per-frame
  /// injection overhead (records paid per-word/per-byte at append).
  void wire_inject(Packet frame) override;
  /// Arm `node`'s holdoff-flush event at its earliest frame deadline
  /// (coalesced like the link timer). Held frames always have a pending
  /// timer event, so quiescence cannot be declared over a held frame.
  void schedule_frame_timer(NodeId node);
  /// Arm a client-requested on_idle re-run (NodeClient::service_deadline),
  /// e.g. the load balancer's backed-off repoll on an otherwise idle node.
  void schedule_service(NodeId node);
  /// The NI-as-hardware half of the holdoff timer: when `node`'s advancing
  /// clock passes an open frame's deadline *inside* a method or handler,
  /// ship the frame at that point instead of holding it until the code
  /// yields. Without this, a send followed by a long compute burst in the
  /// same dispatch would serialize the receiver behind the sender's local
  /// work — the overlap the holdoff bounds (and that the unbatched path
  /// gets for free) would be lost.
  void autoflush(NodeId node);

  std::priority_queue<Event, std::vector<Event>, EventOrder> queue_;
  std::vector<SimTime> clock_;         // method/compute stream
  std::vector<SimTime> handler_tail_;  // handler-stream serialization point
  std::vector<bool> resume_pending_;
  std::vector<bool> idle_notified_;
  std::vector<bool> link_timer_pending_;
  std::vector<bool> frame_timer_pending_;
  std::vector<bool> service_pending_;
  // Transient handler-execution context (one handler at a time globally —
  // the event loop is sequential).
  bool in_handler_ = false;
  NodeId handler_node_ = kInvalidNode;
  SimTime handler_time_ = 0;
  bool autoflushing_ = false;  // wire_inject charges re-enter charge()
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_done_ = 0;
  std::uint64_t event_limit_ = 0;  // 0 = unlimited
  bool running_ = false;
};

}  // namespace hal::am

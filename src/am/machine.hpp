// Abstract multicomputer: P nodes exchanging active-message packets.
//
// Two implementations share this interface (DESIGN.md §1, docs/machines.md):
//   * SimMachine — deterministic discrete-event executor with per-node
//                  virtual clocks and the CostModel; regenerates the paper's
//                  CM-5 scaling and primitive-cost tables on a single host
//                  core.
//   * MnMachine  — M nodes multiplexed onto N worker threads with real MPSC
//                  mailboxes, work-stealing run queues and wall-clock time;
//                  demonstrates the runtime is genuinely concurrent and
//                  reaches node counts (1024+) far past hardware parallelism.
// All kernel/protocol code above this interface is identical under both;
// construction is centralized in make_machine (machine_factory.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "am/cost_model.hpp"
#include "am/fault.hpp"
#include "am/link.hpp"
#include "am/packet.hpp"
#include "am/wire_batch.hpp"
#include "common/assert.hpp"
#include "common/types.hpp"

namespace hal::obs {
class ProbeRecorder;
}  // namespace hal::obs

namespace hal::am {

/// Per-node logic attached to a machine. All its methods are invoked on the
/// node's own execution stream; implementations need no internal locking.
class NodeClient {
 public:
  virtual ~NodeClient() = default;

  /// An active-message packet arrived; run its handler.
  virtual void handle(Packet p) = 0;

  /// A coalesced frame is about to decode into `count` consecutive handle()
  /// calls that all left the wire in one physical arrival at machine time
  /// `now`. Clients may cache `now` as the delivery timestamp for the whole
  /// burst instead of re-reading the machine clock per record: on
  /// MnMachine a read costs tens of ns (FastClock), and one frame genuinely
  /// has one arrival time. Paired with on_frame_end() after the last record
  /// of the frame.
  virtual void on_frame_begin(SimTime /*now*/, std::uint32_t /*count*/) {}
  virtual void on_frame_end() {}

  /// MnMachine is about to run a quantum of this node: the node's stream
  /// resumes on some worker after a gap of unknown length. A client that
  /// reuses clock readings (Kernel::stamp) drops them here, so no span
  /// crosses an idle gap.
  virtual void on_quantum_begin() {}

  /// Perform one unit of local work (e.g. dispatch one actor message).
  /// Returns false if there was nothing to do.
  virtual bool step() = 0;

  /// True if step() would do work.
  virtual bool has_work() const = 0;

  /// Called once on each transition from busy to idle (endpoint drained and
  /// has_work() false). May send packets — this is where the receiver-
  /// initiated load balancer issues its poll.
  virtual void on_idle() {}

  /// Payload pool the reliable-link layer clones retransmit masters from
  /// and releases dropped/duplicate payloads into. The kernel returns its
  /// per-node pool so the buffer ledger stays conservative under faults;
  /// nullptr (the default) gives the endpoint a private fallback pool so
  /// bare machine-level test clients keep working. The wire-batching
  /// aggregator borrows the same pool for its frame buffers.
  virtual BufferPool* link_pool() noexcept { return nullptr; }

  /// Probe recorder for wire-layer observability (the frame-fill histogram
  /// recorded when a frame closes on this node's stream). The kernel
  /// returns its per-node recorder; nullptr (the default) skips recording
  /// for bare machine-level clients.
  virtual obs::ProbeRecorder* wire_probes() noexcept { return nullptr; }

  /// Earliest future time (machine clock) at which this client wants its
  /// on_idle re-run even though nothing arrived — 0 = never. Machines fold
  /// it into their idle parking so deferred work (e.g. the load balancer's
  /// backed-off repoll) resumes without an inbound packet to wake the node.
  virtual SimTime service_deadline() const { return 0; }
};

class Machine {
 public:
  Machine(NodeId nodes, CostModel costs)
      : clients_(nodes, nullptr), costs_(costs), tokens_(nodes) {
    HAL_ASSERT(nodes >= 1);
  }
  virtual ~Machine() = default;

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  NodeId node_count() const noexcept {
    return static_cast<NodeId>(clients_.size());
  }
  const CostModel& costs() const noexcept { return costs_; }

  void attach(NodeId node, NodeClient* client) {
    HAL_ASSERT(node < node_count());
    clients_[node] = client;
  }

  /// Inject a packet. Must be called from the src node's execution stream
  /// (or from the bootstrap thread before run()). Payloads above
  /// kBulkChunkBytes are rejected: larger transfers must be chunked through
  /// the three-phase BulkChannel protocol.
  virtual void send(Packet p) = 0;

  /// Advance the node's virtual clock (SimMachine) / no-op (MnMachine: time
  /// is real).
  virtual void charge(NodeId node, SimTime ns) = 0;

  /// Convenience: charge a floating-point workload on the cost model.
  void charge_flops(NodeId node, std::uint64_t flops) {
    charge(node, static_cast<SimTime>(static_cast<double>(flops) *
                                      costs_.flop_ns));
  }
  /// Charge generic user work units (integer ops, traversal steps).
  void charge_work(NodeId node, std::uint64_t units) {
    charge(node, static_cast<SimTime>(static_cast<double>(units) *
                                      costs_.work_ns));
  }

  /// Current time on a node: virtual ns (SimMachine) or wall ns since
  /// machine construction (MnMachine).
  virtual SimTime now(NodeId node) const = 0;

  /// True when now() reads a virtual clock: free to read, and moved only by
  /// charge() and the event loop. Clients then read it at every stamp; on a
  /// wall clock (MnMachine) they may reuse a reading instead.
  virtual bool virtual_clock() const noexcept { return false; }

  /// Execute until quiescence (no packets in flight, no local work, no work
  /// tokens outstanding) or until stop() is called.
  virtual void run() = 0;

  /// Host-parallelism this machine runs on: 1 for the sequential simulator,
  /// the worker-pool size for MnMachine.
  /// Reported as RunReport::workers (the scaling-curve dimension).
  virtual std::uint32_t worker_count() const noexcept { return 1; }

  /// Ask run() to return as soon as possible (callable from any thread).
  void stop() noexcept {
    stop_.store(true, std::memory_order_release);
    wake_hook();
  }
  bool stop_requested() const noexcept {
    return stop_.load(std::memory_order_acquire);
  }

  // --- Global work hint ----------------------------------------------------
  // Front-end service standing in for the global progress information a
  // receiver-initiated load balancer needs (Kumar et al. pair random polling
  // with a separate termination detector): the number of nodes with
  // dispatcher items queued or executing. Idle nodes keep polling only while
  // this is positive, which keeps an idle machine quiescent without giving
  // up continuous polling during computation. Each kernel counts its own
  // items and adds ±1 here only when that count crosses zero, so the shared
  // line sees two RMWs per busy period of a node, not two per item. The
  // kernel keeps the count only when the balancer is on; otherwise the hint
  // stays 0.
  void work_hint_add(std::int64_t delta) noexcept {
    const std::int64_t prev =
        work_hint_.fetch_add(delta, std::memory_order_acq_rel);
    // The machine went from drained to having work: idle nodes that stopped
    // polling (their steal chain went silent at hint == 0) must be told, or
    // an event-driven executor would leave them asleep and never re-poll.
    if (delta > 0 && prev <= 0) wake_hook();
  }
  std::int64_t work_hint() const noexcept {
    return work_hint_.load(std::memory_order_acquire);
  }

  // --- Work tokens --------------------------------------------------------
  // The front-end's quiescence service (DESIGN.md §5): a token is held for
  // every unit of outstanding work the machine cannot see (e.g. a parked
  // message awaiting FIR resolution). run() does not return while tokens
  // are outstanding.
  //
  // Every acquire/release pair lives on one node (joins are filled where
  // they were made; parked and awaiting messages are node-local), so each
  // node counts its own tokens on a cache line no other node writes, with a
  // plain load and store from its execution stream. Relaxed suffices: the
  // run-token handoff orders a node's successive owners, and the detector
  // reads the sum only after its scan acquired every worker's deactivate.
  void token_acquire(NodeId node, std::uint64_t k = 1) noexcept {
    std::atomic<std::uint64_t>& held = tokens_[node].held;
    held.store(held.load(std::memory_order_relaxed) + k,
               std::memory_order_relaxed);
  }
  void token_release(NodeId node, std::uint64_t k = 1) noexcept {
    std::atomic<std::uint64_t>& held = tokens_[node].held;
    const std::uint64_t prev = held.load(std::memory_order_relaxed);
    HAL_ASSERT(prev >= k);
    held.store(prev - k, std::memory_order_relaxed);
  }
  /// Tokens held machine-wide. Exact only while no node runs: MnMachine's
  /// detector reads it inside its stable window, SimMachine after run().
  std::uint64_t tokens() const noexcept {
    std::uint64_t sum = 0;
    for (const TokenCount& t : tokens_) {
      sum += t.held.load(std::memory_order_relaxed);
    }
    return sum;
  }

  // --- Fault plane / reliable link -----------------------------------------
  // Configured once, after clients are attached and before run(). Enabling
  // faults also enables the per-node LinkEndpoints (ack/retransmit/dedupe);
  // disabled, sends take the historical direct path with zero link overhead.
  // Machine implementations override to scrub unsupported knobs (MnMachine
  // drops the delay probability) and pick the default RTO, then call the
  // base. Must not be called while the machine is running.
  virtual void configure_faults(const FaultConfig& cfg);
  const FaultConfig& fault_config() const noexcept { return faults_; }

  /// Wire counters for one node's endpoint; nullptr when faults are off.
  const LinkStats* link_stats(NodeId node) const noexcept {
    return links_.empty() ? nullptr : &links_[node]->stats();
  }

  /// Release every payload the link layer still holds (retransmit masters,
  /// out-of-order buffers) back to the owning pools. Called at shutdown
  /// drain, after run() has returned.
  void drain_links();

  /// Buffer-audit walk over link-held payloads (the link layer's share of
  /// the report's in-flight count).
  void for_each_link_payload(const std::function<void(const Bytes&)>& fn) const;

  // --- Wire batching (destination-coalesced frames) ------------------------
  // Configured once, after clients are attached and before run(), like the
  // fault plane above. Enabled, eligible small sends accumulate in
  // per-(source, destination) FrameBuilders and ship as single wire frames;
  // disabled (or on a 1-node machine) sends take the historical
  // one-packet-per-message path. Machine implementations override to hook
  // their flush-timer plumbing, then call the base.
  virtual void configure_batching(const BatchConfig& cfg);
  const BatchConfig& batch_config() const noexcept { return batch_; }
  bool batching_active() const noexcept { return !wire_.empty(); }

  /// Aggregation counters for one node; nullptr when batching is off.
  const WireStats* wire_stats(NodeId node) const noexcept {
    return wire_.empty() ? nullptr : &wire_[node]->stats();
  }

  /// Release every still-open frame buffer back to the owning pools
  /// without shipping it. Called at shutdown drain, after run() returned.
  void drain_wire();

  /// Buffer-audit walk over open frame buffers (the aggregation layer's
  /// share of the report's in-flight count).
  void for_each_wire_payload(const std::function<void(const Bytes&)>& fn) const;

 protected:
  // The shared node-stepping core (node_executor.hpp) demuxes arrivals and
  // fires link timers on behalf of its machine; it needs the same access to
  // clients and link endpoints the machine itself has.
  friend class NodeExecutor;

  NodeClient& client(NodeId node) const {
    HAL_ASSERT(node < node_count() && clients_[node] != nullptr);
    return *clients_[node];
  }

  /// Executor hook: the global run state changed in a way sleeping workers
  /// must observe (stop requested, work hint went positive). MnMachine
  /// overrides it to bump its wake epoch and wake every parked worker;
  /// SimMachine is single-threaded and needs nothing. Must be safe from any
  /// thread.
  virtual void wake_hook() noexcept {}

  /// Validate a packet at injection time.
  void check_packet(const Packet& p) const {
    HAL_ASSERT(p.src < node_count());
    HAL_ASSERT(p.dst < node_count());
    HAL_ASSERT(p.payload.size() <= kBulkChunkBytes);
  }

  /// True when sends must route through the reliable link.
  bool links_active() const noexcept { return !links_.empty(); }
  LinkEndpoint& link(NodeId node) noexcept { return *links_[node]; }

  /// Machine-appropriate retransmission timeout when FaultConfig::rto_ns
  /// is 0 (Sim: a few virtual round trips; Mn: ~2 ms wall).
  virtual SimTime default_rto() const noexcept { return 2'000'000; }

  // --- Batching internals (shared by both machines' send paths) ----------
  /// Can `p` ride a frame? Small non-bulk, non-loopback, non-link-control
  /// payloads whose record fits an empty frame qualify.
  bool batch_eligible(const Packet& p) const noexcept;

  /// Append an eligible packet to src's frame toward dst. Emits (through
  /// wire_inject) the previous frame first if the record would overflow it,
  /// and the new frame immediately if the append filled it. `now` is the
  /// source node's clock, arming the holdoff deadline.
  void batch_append(Packet p, SimTime now);

  /// FIFO barrier: flush the open frame toward dst before an unbatchable
  /// packet uses the same channel (bulk chunks, oversized payloads) so
  /// per-channel order holds across the batched/unbatched boundary.
  /// Returns the number of frames emitted (0 or 1).
  std::size_t batch_barrier(NodeId src, NodeId dst);

  /// Flush every open frame held by src (idle transition, shutdown).
  std::size_t flush_frames(NodeId src, FlushCause cause);

  /// Flush src's frames whose holdoff deadline has expired.
  std::size_t flush_due_frames(NodeId src, SimTime now);

  /// Earliest holdoff deadline over src's open frames; 0 = none.
  SimTime frame_deadline(NodeId src) const noexcept;

  /// Put a closed frame on the wire. The default routes through send()
  /// (frames are never batch_eligible, so this cannot recurse); SimMachine
  /// overrides to charge only the amortized injection cost.
  virtual void wire_inject(Packet frame) { send(std::move(frame)); }

  /// Arrival demux used by NodeExecutor: plain packets go straight to the
  /// client, frames decode into one handler call per record (one wake, one
  /// mailbox drain, many messages) with record payloads drawn from — and
  /// the frame buffer retired into — the receiving node's pool.
  void deliver_to_client(NodeId node, Packet p);

 private:
  /// Close fb (held by src toward dst), account the flush, record the
  /// frame-fill probe, and ship the frame.
  void emit_frame(WireAggregator& agg, FrameBuilder& fb, NodeId src,
                  NodeId dst, FlushCause cause);

  /// One node's work-token count, on a cache line of its own.
  struct alignas(64) TokenCount {
    std::atomic<std::uint64_t> held{0};
  };

  std::vector<NodeClient*> clients_;
  CostModel costs_;
  std::vector<TokenCount> tokens_;
  std::vector<std::unique_ptr<LinkEndpoint>> links_;
  FaultConfig faults_{};
  std::vector<std::unique_ptr<WireAggregator>> wire_;
  BatchConfig batch_{};
  // Any worker may write these (stop() once, the hint on a node's 0<->1
  // edges) and every worker polls stop_ while it searches: a line each, so
  // no write invalidates the read-mostly fields above or a derived
  // machine's members below.
  alignas(64) std::atomic<bool> stop_{false};
  alignas(64) std::atomic<std::int64_t> work_hint_{0};
};

}  // namespace hal::am

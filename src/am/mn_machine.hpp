// M:N machine: many nodes multiplexed onto a worker-thread pool — the
// runtime's wall-clock executor.
//
// SimMachine is one sequential event queue on virtual time. This machine
// runs M nodes on N real workers (CAF-style actor multiplexing over the
// hardware_manager M:N shape cited in ROADMAP item 1), from a few nodes on
// the default pool up to the P = 1024–16384 regime the hypercube broadcast
// tree and FIR load balancer were designed for:
//
//   * Packets cross workers through per-node MPSC mailboxes (one heap queue
//     per node), drained by the node's own quantum through Machine's
//     arrival demux.
//   * A *runnable node* is a unit of scheduling. Each node carries an atomic
//     state machine {Idle, Queued, Running, RunningNotified}; a sender whose
//     CAS wins Idle→Queued publishes exactly one run token for the node, so
//     a node is never in two run queues and never runs on two workers at
//     once (the single-writer discipline every per-node structure — kernel,
//     probes, buffer pool, link endpoint — relies on).
//   * Run tokens live in per-worker Chase–Lev deques (common/ws_deque.hpp):
//     the owning worker pushes and pops at the bottom, idle workers steal
//     from the top. Only workers publish tokens: a packet sent before run()
//     (Machine::send's contract allows no other off-pool sender) waits in
//     its mailbox for run()'s priming sweep, which schedules every node.
//   * A token runs as a bounded quantum: drain the mailbox through the link
//     demux, run NodeClient::step up to a budget, fire due link
//     retransmission timers, then requeue if work remains — round-robin
//     fairness among runnable nodes at P >> N.
//   * Termination reuses the TerminationDetector double scan with the N
//     workers as participants; each worker counts its epochs on its own
//     shard. The sent/handled epochs count physical packets, run tokens and
//     links holding unacked masters (one unit per node), so sent == handled
//     proves no packet hides in any mailbox, no runnable node hides in any
//     queue, and no link owes a retransmission (loss cannot fake
//     quiescence); in-progress quanta are covered by the running worker
//     being active.
//   * A node that needs a quantum although nothing was sent to it — a link
//     retransmission, or a client's service deadline (the balancer's
//     backed-off repoll) — publishes the sooner of the two times into one
//     node-indexed deadline table at the end of its quantum. Only a worker
//     that went idle fires them: it parks until the earliest time, then
//     schedules the due nodes, whose own quanta do the due work.
//   * A worker that runs out of tokens first *searches* (re-polls its
//     deque and steals for up to kSearchNs, still active) before it takes
//     the idle transition and parks. While anyone searches, a sender wakes
//     nobody; otherwise it wakes one parked worker, claiming the sleeper's
//     flag so each park costs at most one thief notify (the CAF/Go/Tokio
//     spin-then-park shape).
//
// Selection: RuntimeConfig{.machine = MachineKind::kMn, .mn_workers = N}
// in the config a Runtime is built from, or HAL_MACHINE=mn /
// HAL_MN_WORKERS=N in the bench harness. See docs/machines.md.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "am/machine.hpp"
#include "am/park_handshake.hpp"
#include "am/run_token.hpp"
#include "common/fast_clock.hpp"
#include "common/lint_markers.hpp"
#include "common/mpsc_queue.hpp"
#include "common/rng.hpp"
#include "common/termination.hpp"
#include "common/ws_deque.hpp"

namespace hal::am {

class MnMachine final : public Machine {
  // Memory-order contract checked by hal-lint HL007. The run-token state
  // machine itself lives in RunTokenCell (am/run_token.hpp, protocol
  // `run_tokens`) and the park flag in ParkHandshake (am/park_handshake.hpp,
  // protocol `park_handshake`); what remains here is the scheduler fabric:
  // wake_epoch_ publishes seq_cst / reads acquire, and the sleeper and
  // searcher counts are advisory relaxed counters.
  HAL_MEMORY_PROTOCOL("mn_scheduler");

 public:
  /// `workers` = 0 picks min(hardware threads, nodes); any value is capped
  /// at the node count.
  MnMachine(NodeId nodes, CostModel costs, std::uint32_t workers = 0);
  ~MnMachine() override;

  void send(Packet p) override;
  void charge(NodeId node, SimTime ns) override;  // no-op: time is real
  SimTime now(NodeId node) const override;
  void run() override;
  std::uint32_t worker_count() const noexcept override { return workers_n_; }
  /// Delay injection is Sim-only (real queues already reorder, and a wall
  /// clock sleep would only slow the soak): the knob is scrubbed here.
  void configure_faults(const FaultConfig& cfg) override;

  /// Epoch counters summed over the workers' shards (stress tests, stats).
  /// These count packets, run tokens and unacked links — see the
  /// termination note above.
  std::uint64_t units_sent() const noexcept { return detector_.sent(); }
  std::uint64_t units_handled() const noexcept { return detector_.handled(); }
  /// Run tokens taken from another worker's deque, summed over the
  /// workers (scheduling diagnostics).
  std::uint64_t steals() const noexcept;
  /// Wake epochs bumped by wake_hook: one per stop() and per 0→1 edge of
  /// the balancer's work hint (scheduling diagnostics).
  std::uint64_t wake_epoch() const noexcept {
    return wake_epoch_.load(std::memory_order_relaxed);
  }

 protected:
  void wake_hook() noexcept override;

 private:
  /// Per-node scheduling state. The RunTokenCell is the cross-thread
  /// handoff point; the plain fields are owned by whichever worker holds the
  /// node's run token (the cell's seq_cst RMWs carry the happens-before
  /// edge between successive owners).
  struct alignas(64) NodeSlot {
    RunTokenCell<> token;
    NodeId id = 0;
    bool idle_notified = false;   // on_idle already ran for this idle spell
    bool link_unit = false;       // unacked masters counted in the detector
    std::uint64_t idle_epoch = 0; // wake epoch that on_idle last observed
    SimTime due = 0;              // this node's entry in due_ (0 = none)
  };

  struct WorkerRec {
    explicit WorkerRec(std::uint32_t index_, std::size_t deque_capacity,
                       std::uint64_t rng_seed)
        : index(index_), local(deque_capacity), rng(rng_seed) {}

    const std::uint32_t index;
    // Run tokens are epoch-counted units (HAL_EPOCH_COUNTED → hal-lint
    // HL009): every push must follow a note_sent, so sent == handled keeps
    // proving no token hides in any run queue.
    WsDeque<NodeSlot> local HAL_EPOCH_COUNTED;  // owner bottom, thieves top
    Xoshiro256 rng;               // steal-victim selection
    // Tokens this worker stole; only this worker writes it (count_steal).
    std::atomic<std::uint64_t> steals{0};
    std::uint64_t sweep_epoch = ~std::uint64_t{0};  // forces the first sweep
    bool primed = false;          // first sweep schedules every home node
    // Wake plumbing, written by whoever wakes this worker: it starts a line
    // of its own, apart from the worker-private fields above.
    alignas(64) std::mutex mutex;
    std::condition_variable cv;
    std::uint64_t wake_gen = 0;   // guarded by mutex; bumped by wake_hook
    // The seq_cst RMW wake handshake (proof in am/park_handshake.hpp);
    // HAL_PARK_FLAG → hal-lint HL006 pins the arm-per-predicate park-loop
    // shape.
    ParkHandshake<> sleeping HAL_PARK_FLAG;
  };

  void worker_loop(std::uint32_t w);
  /// Block until stop is requested, a wake generation lands, or `deadline`
  /// (ns since epoch_, 0 = none) passes. Re-arms `sleeping` before every
  /// predicate evaluation (the handshake in am/park_handshake.hpp).
  void park(WorkerRec& rec, std::uint64_t gen, SimTime deadline);
  /// Execute one quantum, as worker `w`, for the node whose token we hold.
  void run_node(NodeSlot& slot, std::uint32_t w);
  /// A unit of work became visible on `node`: publish a run token if none
  /// is pending (Idle→Queued), or flag the current quantum to requeue.
  /// Off-pool (before run()) it does nothing: the priming sweep schedules
  /// every node.
  void schedule(NodeId node);
  /// Publish `slot`'s run token (state already Queued): count the token in
  /// the sent epoch, then push it onto the calling worker's deque.
  void enqueue(NodeSlot& slot);
  /// Next token for worker `rec`: own deque, then stealing.
  NodeSlot* next_runnable(WorkerRec& rec);
  /// Re-run next_runnable with a short pause between attempts, for up to
  /// kSearchNs, while fewer than max_searchers_ workers search. Gives up
  /// early on stop or a new wake epoch; nullptr means take the idle path.
  NodeSlot* search(WorkerRec& rec);
  void post_and_schedule(Packet p);
  /// The calling thread's detector participant: its worker index on-pool,
  /// 0 off-pool (the bootstrap thread before run()).
  static std::uint32_t participant() noexcept {
    return tl_worker_ < 0 ? 0 : static_cast<std::uint32_t>(tl_worker_);
  }
  static void count_steal(WorkerRec& rec) noexcept;
  /// Best-effort: rouse one parked worker to come steal, unless a searcher
  /// will (pure throughput — correctness never depends on a thief wake).
  void maybe_wake_thief() noexcept;
  /// Schedule every home node of `rec` that should re-observe global state:
  /// all of them on the priming pass, idle ones on later wake epochs.
  void sweep_home_nodes(WorkerRec& rec);
  /// Set `slot`'s entry in due_ to `at` (0 = none) from the node's quantum,
  /// and lower next_due_ to it if it is sooner.
  void publish_due(NodeSlot& slot, SimTime at);
  /// Once next_due_ has passed: schedule every node whose entry has, and
  /// recompute next_due_. The nodes' own quanta do the due work (fire the
  /// link timer, re-run on_idle) and publish again.
  void fire_due();

  // LinkSink (fault plane).
  void link_transmit(Packet p, SimTime extra_delay_ns) override;

  std::uint32_t workers_n_;
  // At most half the pool (at least one worker) searches at once, so an
  // oversubscribed pool leaves cores to the workers that hold tokens.
  std::uint32_t max_searchers_;
  bool ran_ = false;  // run() runs once: its priming sweep is what
                      // schedules the packets sent before it
  std::vector<NodeSlot> slots_;
  std::vector<std::unique_ptr<WorkerRec>> workers_;
  // One participant per worker; each counts its epochs on its own shard.
  TerminationDetector detector_;
  // Physical packets in flight are epoch-counted units (HAL_EPOCH_COUNTED →
  // hal-lint HL009): post_and_schedule bumps the sent epoch before every
  // push, run_node bumps handled after every pop, so the detector's double
  // scan stays exact.
  std::vector<std::unique_ptr<MpscQueue<Packet>>> mailboxes_ HAL_EPOCH_COUNTED;
  // now() reads clock_ (calibrated TSC; perfbench's ledger entry
  // am.clock_now_ns measured 20-27 ns per read on a 4-vCPU Xeon VM, GCC
  // 12.2 Release); epoch_ anchors the cv wait_until deadlines in
  // steady_clock terms. The two clocks' sub-µs offset/drift only shifts
  // when a timed park *wakes*; due-ness is always re-checked against
  // clock_, so timers never fire early.
  FastClock clock_;
  std::chrono::steady_clock::time_point epoch_;
  // Per node, the time it next needs a quantum although nothing was sent
  // to it (0 = never): the sooner of its link's next retransmission and its
  // client's service deadline (NodeClient::service_deadline, e.g. the
  // balancer's backed-off repoll). Touched only off the message fast path:
  // by a quantum whose time changed, and by a worker back from a park.
  std::mutex due_mutex_;
  std::vector<SimTime> due_;  // guarded by due_mutex_
  // Shared scheduler counters, a cache line each: every searching worker
  // polls wake_epoch_, and idle transitions write sleepers_ and searchers_,
  // so none may share a line with another or with the fields above.
  // wake_epoch_ is bumped by wake_hook: idle nodes re-run on_idle once per
  // epoch so the load balancer re-polls when the work hint turns positive,
  // without a wake per node.
  alignas(64) std::atomic<std::uint64_t> wake_epoch_{0};
  alignas(64) std::atomic<std::uint32_t> sleepers_{0};   // thief-wake gate
  alignas(64) std::atomic<std::uint32_t> searchers_{0};  // inside search()
  // Never later than the earliest entry of due_ (0 = due_ is empty); written
  // under due_mutex_. The idle path reads it without the lock to time its
  // park. A worker that published an entry reads a value no later than it
  // (what it saw under the lock, or a later write, which keeps the bound),
  // so every entry times the park of the worker that published it.
  alignas(64) std::atomic<SimTime> next_due_{0};

  static thread_local int tl_worker_;  // index into workers_, -1 off-pool

  // Quantum budgets: big enough to amortize token churn, small enough that
  // a flooded node cannot starve its worker's other nodes.
  static constexpr std::size_t kDrainQuantum = 64;
  static constexpr std::size_t kStepQuantum = 64;
  // How long an out-of-work worker keeps searching before it parks: long
  // enough to cover a cross-worker request/reply turnaround (a few µs), so
  // a latency-bound run hands tokens over without a futex wake; short
  // enough that an idle pool stops spinning almost at once.
  static constexpr SimTime kSearchNs = 50'000;
};

}  // namespace hal::am

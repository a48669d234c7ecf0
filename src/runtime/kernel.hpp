// Per-node runtime kernel (§3, Fig. 2).
//
// The kernel is "a passive substrate on which individual actors execute":
// it owns the node's name table, actor and join-continuation pools,
// dispatcher, group table and bulk channel, and exposes the actor interface
// the compiler targets. Kernel functions execute on the running actor's
// stream — there is no kernel thread and no context switch. Remote-protocol
// logic (message delivery per Fig. 3, FIR, remote creation, migration, load
// balancing) lives in the NodeManager, the kernel's meta-actor.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>

#include "am/bulk.hpp"
#include "am/machine.hpp"
#include "check/affinity.hpp"
#include "common/buffer_pool.hpp"
#include "common/rng.hpp"
#include "common/slot_pool.hpp"
#include "common/stats.hpp"
#include "name/name_table.hpp"
#include "obs/probe_recorder.hpp"
#include "runtime/actor_record.hpp"
#include "runtime/config.hpp"
#include "runtime/dispatcher.hpp"
#include "runtime/front_end.hpp"
#include "runtime/group.hpp"
#include "runtime/handlers.hpp"
#include "runtime/join_continuation.hpp"
#include "runtime/registry.hpp"
#include "trace/trace.hpp"

namespace hal {

class Context;
class NodeManager;

/// Why a message was dead-lettered (per-cause counters surface in
/// RunReport v3 so a fault run can distinguish "actor really terminated"
/// from "descriptor pointed somewhere stale").
enum class DeadLetterCause : std::uint8_t {
  kUnknownActor,     ///< the address names nothing its home node issued
  kStaleDescriptor,  ///< the actor is gone (sink or released descriptor)
  kShutdownDrain,    ///< dying actor's mailbox/pending queue discarded
  kCount,
};

/// Shutdown-drain accounting: what was still in flight inside a kernel when
/// the runtime tore down (buffered mail, parked messages, unfilled joins),
/// and how many payload buffers were retired to the pools in the process.
struct DrainStats {
  std::uint64_t messages = 0;  ///< undelivered messages accounted
  std::uint64_t payloads = 0;  ///< payload buffers retired to pools

  DrainStats& operator+=(const DrainStats& o) noexcept {
    messages += o.messages;
    payloads += o.payloads;
    return *this;
  }
};

// HAL_LINT_SUPPRESS(hal-capability-coverage): Kernel IS the capability
// root — affinity_.assert_here() guards its executor entry points (handle,
// step, send_message) and every other method runs strictly downstream of
// one of them on the owning node's stream (DESIGN.md §5). Annotating the
// ~15 plain counters/tables member-by-member would force HAL_GUARDED_BY
// proof obligations through dozens of private methods clang cannot check
// interprocedurally; the per-node aggregates that carry real invariants
// (pool_, names_, dispatcher_, groups_, probes_) are self-guarding types
// audited by their own annotations instead.
class Kernel final : public am::NodeClient {
 public:
  /// Messages one dispatcher item may run from a single actor's mailbox
  /// before the actor goes to the back of the ready queue (step()). Matches
  /// BatchConfig::max_msgs so a decoded wire frame executes as one burst.
  static constexpr std::uint32_t kMailboxBurst = 64;

  Kernel(am::Machine& machine, NodeId self, const BehaviorRegistry& registry,
         const RuntimeConfig& config);
  ~Kernel() override;

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- am::NodeClient -------------------------------------------------------
  void handle(am::Packet p) override;
  bool step() override;
  bool has_work() const override;
  void on_idle() override;
  /// The reliable link clones retransmit masters from (and retires dropped
  /// or duplicate payloads into) this node's pool, keeping the buffer
  /// ledger conservative under fault injection.
  BufferPool* link_pool() noexcept override { return &pool_; }
  /// The wire-batching layer records its frame-fill samples here so they
  /// surface in the RunReport beside the kernel's other probes.
  obs::ProbeRecorder* wire_probes() noexcept override { return &probes_; }
  /// When an idle node wants on_idle re-run: the balancer's backed-off
  /// repoll deadline (NodeManager::poll_resume_at), 0 for "no wake needed".
  SimTime service_deadline() const override;
  /// Frame-decode burst (Machine::deliver_to_client): cache the frame's
  /// single arrival time so the per-record delivery path (remote-delivery
  /// span, mailbox enqueue stamp) reuses it instead of re-reading the
  /// machine clock per record.
  void on_frame_begin(SimTime now, std::uint32_t /*count*/) override {
    frame_now_ = now;
  }
  void on_frame_end() override { frame_now_ = 0; }
  /// A new quantum of this node's stream: whatever the node last read may
  /// be an idle gap old. Holding starts with the first quantum on a clock
  /// that costs a read; bootstrap calls before run() come from user code on
  /// another thread and hold nothing.
  void on_quantum_begin() override {
    reading_ = 0;
    holds_readings_ = !machine_.virtual_clock();
  }

  /// Time stamp for the kernel's probe endpoints: deliveries, mailbox and
  /// pending residency, method start. One rule:
  ///   * inside a frame-decode burst, the frame's arrival time, which all
  ///     its records share;
  ///   * otherwise the node's held reading, if any;
  ///   * otherwise a live read, held when the clock costs a read
  ///     (!Machine::virtual_clock()) and no user code is running.
  /// The read that ends a method is held too (execute_message). A quantum
  /// start and user code (method and join bodies, constructors, pack_state
  /// and unpack_state) drop the reading, so one is reused only across
  /// kernel bookkeeping: a burst of n messages costs n + 1 reads instead of
  /// 3n. Under a virtual clock nothing is held, and stamp() is exactly a
  /// live read or the frame's arrival time.
  SimTime stamp() {
    if (frame_now_ != 0) return frame_now_;
    if (reading_ != 0) return reading_;
    const SimTime t = machine_.now(self_);
    hold(t);
    return t;
  }

  // --- Actor creation (§5) ---------------------------------------------------
  /// Create an actor on this node; returns its ordinary mail address.
  MailAddress create_local(BehaviorId behavior);
  /// Create an actor on `target`. Remote targets use the alias scheme: the
  /// returned address is usable immediately — the caller's continuation is
  /// never blocked on the round trip.
  MailAddress create(BehaviorId behavior, NodeId target);

  // --- Message send (§4, Fig. 3 sender side) ---------------------------------
  /// The generic message-send mechanism: consult the local name server,
  /// deliver locally or ship to the best-guess node.
  void send_message(Message m);
  /// Enqueue into a local actor's mailbox and schedule it.
  void deliver_local(SlotId actor_slot, Message m);

  // --- Join continuations (§6.2) ---------------------------------------------
  ContRef make_join(std::uint32_t slot_count, JoinBody body,
                    const MailAddress& creator);
  /// Pre-fill a slot with a value known at creation time.
  void prefill_join(const ContRef& ref, std::uint64_t word);
  /// Route a reply to a continuation slot (local fill or kHReply packet).
  void reply_to(const ContRef& ref, std::uint64_t word, Bytes blob = {});
  /// Fill a slot of a continuation living on this node; runs the body when
  /// the counter reaches zero.
  void fill_join(const ContRef& ref, std::uint64_t word, Bytes blob);

  // --- Groups (§2.2, §6.4) ---------------------------------------------------
  GroupId group_new(BehaviorId behavior, std::uint32_t count);
  void group_broadcast(GroupId gid, Selector sel, std::uint8_t argc,
                       const std::array<std::uint64_t, kMsgInlineWords>& args,
                       const ContRef& cont, Bytes payload);
  void group_member_send(GroupId gid, NodeId root, std::uint32_t index,
                         Message m);

  // --- Dynamic placement -------------------------------------------------------
  /// Next node under round-robin spreading (per-kernel cursor).
  NodeId place_round_robin() {
    const NodeId n = static_cast<NodeId>(place_cursor_++ % node_count());
    return n;
  }
  /// Uniformly random node (seeded stream: deterministic under SimMachine).
  NodeId place_random() {
    return static_cast<NodeId>(rng_.below(node_count()));
  }

  // --- Front-end I/O (§3, Fig. 1) -----------------------------------------------
  /// Forward a console line to the front-end (an I/O request packet routed
  /// through node 0, like the paper's partition-manager front-end).
  void console_print(std::string_view text);
  void set_front_end(FrontEnd* fe) noexcept { front_end_ = fe; }

  // --- Tracing ---------------------------------------------------------------------
  void set_tracer(trace::TraceRecorder* t) noexcept { tracer_ = t; }
  bool tracing() const noexcept { return tracer_ != nullptr; }
  void trace_event(trace::EventKind kind, SimTime start, SimTime duration,
                   std::uint64_t a = 0, std::uint64_t b = 0) {
    if (tracer_ == nullptr) return;
    tracer_->record(trace::Event{start, duration, self_, kind, a, b});
  }
  /// Instantaneous marker at the current virtual time.
  void trace_mark(trace::EventKind kind, std::uint64_t a = 0,
                  std::uint64_t b = 0) {
    if (tracer_ == nullptr) return;
    tracer_->record(
        trace::Event{machine_.now(self_), 0, self_, kind, a, b});
  }

  // --- Migration / termination ----------------------------------------------
  /// Flag the running actor for migration after its current method returns.
  void request_migrate(SlotId actor_slot, NodeId target);
  /// Pack the actor and ship it (bulk, kTagMigration). Used post-method and
  /// by the load balancer when serving a steal.
  void perform_migration(SlotId actor_slot, NodeId target);
  void terminate_actor(SlotId actor_slot);

  // --- Cost accounting --------------------------------------------------------
  void charge(SimTime ns) { machine_.charge(self_, ns); }
  void charge_flops(std::uint64_t flops) { machine_.charge_flops(self_, flops); }
  void charge_work(std::uint64_t units) { machine_.charge_work(self_, units); }

  // --- Accessors ---------------------------------------------------------------
  NodeId self() const noexcept { return self_; }
  NodeId node_count() const noexcept { return machine_.node_count(); }
  am::Machine& machine() noexcept { return machine_; }
  const am::CostModel& costs() const noexcept { return machine_.costs(); }
  NameTable& names() noexcept { return names_; }
  StatBlock& stats() noexcept { return stats_; }
  const StatBlock& stats() const noexcept { return stats_; }
  obs::ProbeRecorder& probes() noexcept { return probes_; }
  const obs::ProbeRecorder& probes() const noexcept { return probes_; }
  /// Close out any open dispatch batch (called by Runtime::report() so a
  /// run that never idled still contributes its batch-length samples).
  void flush_probes();
  const BehaviorRegistry& registry() const noexcept { return registry_; }
  const RuntimeConfig& config() const noexcept { return config_; }
  GroupTable& groups() noexcept { return groups_; }
  /// This node's payload-buffer pool. Single-owner: touched only from this
  /// kernel's execution stream (the worker holding the node's run token
  /// under MnMachine, interleaved stream under SimMachine).
  BufferPool& pool() noexcept { return pool_; }
  Dispatcher& dispatcher() noexcept { return dispatcher_; }
  Xoshiro256& rng() noexcept { return rng_; }
  am::BulkChannel& bulk() noexcept { return bulk_; }
  NodeManager& node_manager() noexcept { return *node_manager_; }

  ActorRecord* actor(SlotId slot) noexcept { return actors_.try_get(slot); }
  std::size_t live_actors() const noexcept { return actors_.size(); }
  std::uint64_t dead_letters() const noexcept { return dead_letters_; }
  std::uint64_t dead_letters(DeadLetterCause cause) const noexcept {
    return dead_letter_causes_[static_cast<std::size_t>(cause)];
  }

  /// Visit every live actor record: `fn(SlotId, ActorRecord&)`. Used by the
  /// garbage collector's sweep (in-process walk at quiescence).
  template <typename Fn>
  void for_each_actor(Fn&& fn) {
    actors_.for_each(std::forward<Fn>(fn));
  }
  /// Reclaim an unreachable actor at quiescence (GC sweep): frees the
  /// record and settles its descriptors like a termination does
  /// (retire_actor).
  void reap_actor(SlotId slot);

  /// Shutdown accounting: count and retire every message still buffered in
  /// this kernel (mailboxes, pending queues, broadcast quanta, parked and
  /// awaiting queues in the NodeManager) and every unfilled join
  /// continuation, releasing their payload buffers into the pool and giving
  /// back the work tokens they hold. Idempotent; called by
  /// Runtime::shutdown_drain and the Runtime destructor.
  DrainStats drain_in_flight();

  /// Visit the payload of every message still buffered inside this kernel
  /// (mailboxes, pending queues, broadcast quanta, join reply blobs, and the
  /// NodeManager's parked/awaiting queues). Read-only walk used by the
  /// hal::check leak audit to separate in-flight buffers from leaked ones.
  void for_each_in_flight_payload(
      const std::function<void(const Bytes&)>& fn);

  /// Resolve a mail address to a *local* actor slot (invalid SlotId if the
  /// address is unknown here or the actor is not local). This is the
  /// "locality check routine which is part of the generic message send
  /// mechanism" exposed to the compiler (§6.3).
  SlotId locality_check(const MailAddress& addr);

  /// Behaviour object of a local actor, typed; nullptr when not local or of
  /// a different type (the method-lookup escape hatch for compiled code).
  template <typename B>
  B* local_behavior(const MailAddress& addr) {
    const SlotId s = locality_check(addr);
    if (!s.valid()) return nullptr;
    return dynamic_cast<B*>(actors_.get(s).impl.get());
  }

  // --- Compiler-controlled stack scheduling (§6.3) ---------------------------
  /// RAII depth guard for stack-based direct dispatch.
  class StackGuard {
   public:
    explicit StackGuard(Kernel& k) : k_(k) { ++k_.stack_depth_; }
    ~StackGuard() { --k_.stack_depth_; }
    StackGuard(const StackGuard&) = delete;
    StackGuard& operator=(const StackGuard&) = delete;

   private:
    Kernel& k_;
  };
  bool stack_budget_left() const noexcept {
    return stack_depth_ < config_.max_stack_depth;
  }

  /// Dispatch one message to an actor: constraint check, method execution,
  /// pending-queue replay, then post-processing (become/migrate/terminate).
  /// `cheap_dispatch` is the compiler/quantum fast path: the method lookup
  /// has already been paid for, so only a call's worth of cost is charged.
  void run_method(SlotId actor_slot, Message m, bool cheap_dispatch = false);

  /// Used by NodeManager/Runtime: create an actor object for a remote
  /// creation request or a migration arrival. `epoch` is the actor's
  /// migration count (0 for fresh creations). Work waiting on a reused
  /// address or an alias is the caller's to release
  /// (NodeManager::registered); a fresh address has none.
  SlotId install_actor(std::unique_ptr<ActorBase> impl, BehaviorId behavior,
                       const MailAddress& address, const MailAddress& alias,
                       std::uint32_t epoch = 0);

 private:
  friend class NodeManager;

  /// Put an actor in the ready structure if it has mail and isn't there.
  void schedule(SlotId actor_slot);
  /// Enqueue a broadcast quantum for this node's group members.
  void schedule_quantum(GroupId gid, Message m);
  /// Count dispatcher items queued or executing on this node, and mark the
  /// node busy or idle in the machine's work hint when the count crosses
  /// zero — only when the load balancer, the hint's one reader, is on.
  void balancer_hint_add(std::int64_t delta);
  /// Execute one message body: build a Context, dispatch, apply `become`.
  void execute_message(SlotId actor_slot, Message& m);
  /// Execute a broadcast quantum: all local group members process the same
  /// message consecutively with a single method lookup (§6.4).
  void run_quantum(GroupId gid, Message m);
  /// Post-method bookkeeping shared by run_method and the quantum path.
  void post_method(SlotId actor_slot, ActorRecord& rec);
  /// Replay pending messages whose constraints are now enabled (§6.1).
  void replay_pending(SlotId actor_slot);
  /// Free a dead actor's record. Its birthplace descriptor is released
  /// when no other node can hold location information for it (born here,
  /// never migrated, no alias); otherwise its descriptors stay as
  /// dead-letter sinks (docs/PROTOCOLS.md §1).
  void retire_actor(SlotId actor_slot, ActorRecord& rec);
  /// Account an undeliverable message and retire its payload buffer.
  void dead_letter(Message& m, DeadLetterCause cause);
  /// Dead-letter a message to a home address that no longer resolves:
  /// stale when this node minted the address, unknown otherwise.
  void dead_letter_home_miss(Message& m);
  /// Keep `t` as the node's reading, unless the node holds none (a virtual
  /// clock, or before its first quantum) or a body is running (a later
  /// stamp in that body would cross user code).
  void hold(SimTime t) {
    if (holds_readings_ && bodies_ == 0) reading_ = t;
  }
  /// stamp() on the dispatch path (method start, pending stamps, replay
  /// residency). A static dispatch nested in a running body belongs to that
  /// body: it reads the clock, and never takes the arrival time of a frame
  /// whose decode ran the body (a join continuation).
  SimTime dispatch_stamp() {
    return bodies_ == 0 ? stamp() : machine_.now(self_);
  }

  am::Machine& machine_;
  const NodeId self_;  // write-once identity, never a shared-state race
  const BehaviorRegistry& registry_;
  const RuntimeConfig& config_;

  check::NodeAffinityGuard affinity_;
  StatBlock stats_;
  obs::ProbeRecorder probes_;
  BufferPool pool_;  // declared before bulk_: BulkChannel holds a reference
  NameTable names_;
  SlotPool<ActorRecord> actors_;
  SlotPool<JoinContinuation> joins_;
  Dispatcher dispatcher_;
  GroupTable groups_;
  am::BulkChannel bulk_;
  std::unique_ptr<NodeManager> node_manager_;
  Xoshiro256 rng_;

  std::uint32_t group_seq_ = 0;
  std::uint32_t stack_depth_ = 0;
  SimTime frame_now_ = 0;  // nonzero only inside a frame-decode burst
  // stamp()'s held reading (0 = none) and the method and join bodies on
  // this stream's stack; a reading is held only while bodies_ == 0.
  bool holds_readings_ = false;  // see on_quantum_begin
  SimTime reading_ = 0;
  std::uint32_t bodies_ = 0;
  std::uint64_t dispatch_batch_len_ = 0;
  std::int64_t balancer_items_ = 0;  // see balancer_hint_add
  std::uint64_t dead_letters_ = 0;
  std::array<std::uint64_t, static_cast<std::size_t>(DeadLetterCause::kCount)>
      dead_letter_causes_{};
  std::uint64_t place_cursor_ = 0;
  FrontEnd* front_end_ = nullptr;  // node 0 only
  trace::TraceRecorder* tracer_ = nullptr;
};

}  // namespace hal

// Execution context handed to actor methods.
//
// A Context is the actor interface of Fig. 2 — the thin layer between a
// running method and the kernel it executes on. It is created on the stack
// for each method dispatch (and for each join-continuation body), so all
// kernel services are reached without any context switch, exactly as in the
// paper's single-address-space kernel design.
#pragma once

#include <memory>
#include <utility>

#include "runtime/arg_codec.hpp"
#include "runtime/kernel.hpp"

namespace hal {

class Context {
 public:
  /// `actor_slot` is invalid for non-actor executions (join-continuation
  /// bodies, bootstrap); `msg` is null outside method dispatch.
  Context(Kernel& kernel, SlotId actor_slot, const MailAddress& self,
          Message* msg)
      : kernel_(kernel), actor_slot_(actor_slot), self_(self), msg_(msg) {}

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // --- Identity ---------------------------------------------------------------
  const MailAddress& self() const noexcept { return self_; }
  NodeId node() const noexcept { return kernel_.self(); }
  NodeId node_count() const noexcept { return kernel_.node_count(); }
  SimTime now() const { return kernel_.machine().now(kernel_.self()); }
  Kernel& kernel() noexcept { return kernel_; }
  Message* message() noexcept { return msg_; }

  // --- Asynchronous send (the actor primitive) --------------------------------
  /// Send a message invoking `Method` on the actor at `addr`. Argument types
  /// are checked against the method signature at compile time.
  template <auto Method, typename... Args>
  void send(const MailAddress& addr, Args&&... args) {
    send_cont<Method>(addr, ContRef{}, std::forward<Args>(args)...);
  }

  /// Send with an explicit continuation slot the callee will reply to.
  template <auto Method, typename... Args>
  void send_cont(const MailAddress& addr, const ContRef& cont,
                 Args&&... args) {
    Message m;
    m.dest = addr;
    m.selector = sel<Method>();
    m.cont = cont;
    codec::encode_args(m, std::forward<Args>(args)...);
    kernel_.send_message(std::move(m));
  }

  // --- Call/return (§6.2): request compiled to send + join continuation ------
  /// Issue a request; `then(Context&, const JoinView&)` runs when the reply
  /// arrives (view slot 0 holds the reply value).
  template <auto Method, typename Then, typename... Args>
  void request(const MailAddress& addr, Then&& then, Args&&... args) {
    const ContRef jc = make_join(1, JoinBody(std::forward<Then>(then)));
    send_cont<Method>(addr, jc, std::forward<Args>(args)...);
  }

  /// Create a join continuation with `slots` reply slots; the body runs once
  /// all slots are filled. The body's captures stay inline in the
  /// continuation record (JoinBody) — no heap, and no raw pointers to actor
  /// state: the actor may migrate between now and the join firing.
  ContRef make_join(std::uint32_t slots, JoinBody body) {
    return kernel_.make_join(slots, std::move(body), self_);
  }

  /// Fill a slot with a value already known at creation time (Fig. 4's
  /// pre-filled argument slots).
  template <typename T>
  void prefill(const ContRef& ref, const T& value) {
    kernel_.prefill_join(ref, to_word(value));
  }

  // --- Reply (§2.2) -----------------------------------------------------------
  /// Reply to the current message's continuation. No-op with a diagnostic
  /// count if the sender did not expect a reply.
  template <typename T>
  void reply(const T& value) {
    if (msg_ != nullptr && msg_->cont.valid()) {
      kernel_.reply_to(msg_->cont, to_word(value));
    }
  }
  void reply_blob(std::uint64_t word, Bytes blob) {
    if (msg_ != nullptr && msg_->cont.valid()) {
      kernel_.reply_to(msg_->cont, word, std::move(blob));
    }
  }
  /// Reply to an explicit continuation reference.
  template <typename T>
  void reply_to(const ContRef& ref, const T& value) {
    kernel_.reply_to(ref, to_word(value));
  }
  void reply_blob_to(const ContRef& ref, std::uint64_t word, Bytes blob) {
    kernel_.reply_to(ref, word, std::move(blob));
  }

  // --- Creation (new / §5) -----------------------------------------------------
  /// Create an actor of behaviour B on this node.
  template <typename B>
  MailAddress create() {
    return kernel_.create_local(kernel_.registry().id_of<B>());
  }
  /// Create on an explicit node (dynamic placement). Remote targets return
  /// an alias immediately; the round trip is hidden (§5).
  template <typename B>
  MailAddress create_on(NodeId target) {
    return kernel_.create(kernel_.registry().id_of<B>(), target);
  }
  /// Untyped creation by behaviour id (language front-ends; the id comes
  /// from BehaviorRegistry::register_factory / id_of_name).
  MailAddress create_on_id(BehaviorId behavior, NodeId target) {
    return kernel_.create(behavior, target);
  }

  /// Dynamic placement policies: spread creations round-robin over the
  /// machine, or place uniformly at random (deterministic under the
  /// simulator's seeded streams).
  template <typename B>
  MailAddress create_spread() {
    return create_on<B>(kernel_.place_round_robin());
  }
  template <typename B>
  MailAddress create_random() {
    return create_on<B>(kernel_.place_random());
  }

  /// Create and send an initialization message in one step.
  template <auto InitMethod, typename... Args>
  MailAddress create_init(Args&&... args) {
    using B = class_of<InitMethod>;
    const MailAddress a = create<B>();
    send<InitMethod>(a, std::forward<Args>(args)...);
    return a;
  }
  template <auto InitMethod, typename... Args>
  MailAddress create_init_on(NodeId target, Args&&... args) {
    using B = class_of<InitMethod>;
    const MailAddress a = create_on<B>(target);
    send<InitMethod>(a, std::forward<Args>(args)...);
    return a;
  }

  // --- Groups (§2.2) -----------------------------------------------------------
  template <typename B>
  GroupId grpnew(std::uint32_t count) {
    return kernel_.group_new(kernel_.registry().id_of<B>(), count);
  }
  /// Broadcast: replicate a message to every member of the group.
  template <auto Method, typename... Args>
  void broadcast(GroupId gid, Args&&... args) {
    broadcast_cont<Method>(gid, ContRef{}, std::forward<Args>(args)...);
  }
  template <auto Method, typename... Args>
  void broadcast_cont(GroupId gid, const ContRef& cont, Args&&... args) {
    Message m;
    m.selector = sel<Method>();
    m.cont = cont;
    codec::encode_args(m, std::forward<Args>(args)...);
    kernel_.group_broadcast(gid, m.selector, m.argc, m.args, m.cont,
                            std::move(m.payload));
  }
  /// Send to one group member by index.
  template <auto Method, typename... Args>
  void send_member(GroupId gid, std::uint32_t index, Args&&... args) {
    send_member_cont<Method>(gid, index, ContRef{}, std::forward<Args>(args)...);
  }
  template <auto Method, typename... Args>
  void send_member_cont(GroupId gid, std::uint32_t index, const ContRef& cont,
                        Args&&... args) {
    Message m;
    m.selector = sel<Method>();
    m.cont = cont;
    codec::encode_args(m, std::forward<Args>(args)...);
    kernel_.group_member_send(gid, gid.creator, index, std::move(m));
  }

  // --- become / migrate / terminate -------------------------------------------
  /// Replace this actor's behaviour after the current method returns.
  template <typename B, typename... CtorArgs>
  void become(CtorArgs&&... ctor_args) {
    become_ptr(std::make_unique<B>(std::forward<CtorArgs>(ctor_args)...));
  }
  void become_ptr(std::unique_ptr<ActorBase> next) {
    HAL_ASSERT(actor_slot_.valid());  // only actors can become
    become_ = std::move(next);
  }
  std::unique_ptr<ActorBase> take_become() { return std::move(become_); }

  /// Move this actor (state + queued mail) to `target` after the current
  /// method completes.
  void migrate_to(NodeId target) {
    HAL_ASSERT(actor_slot_.valid());
    kernel_.request_migrate(actor_slot_, target);
  }
  /// Allow the dynamic load balancer to relocate this actor.
  void set_relocatable(bool on) {
    ActorRecord* rec = kernel_.actor(actor_slot_);
    HAL_ASSERT(rec != nullptr);
    rec->relocatable = on;
  }
  /// Mark a co-located actor as relocatable — a creation attribute in
  /// spirit; must be called on the node where the actor currently lives
  /// (typically right after create()).
  void set_relocatable(const MailAddress& addr, bool on) {
    const SlotId slot = kernel_.locality_check(addr);
    HAL_ASSERT(slot.valid());
    kernel_.actor(slot)->relocatable = on;
  }
  /// Free this actor after the current method returns.
  void terminate() {
    HAL_ASSERT(actor_slot_.valid());
    kernel_.terminate_actor(actor_slot_);
  }

  // --- Front-end I/O (§3) -------------------------------------------------------
  /// Print a line through the front-end (ordered by virtual emission time;
  /// read with Runtime::console() after the run).
  void print(std::string_view text) { kernel_.console_print(text); }

  // --- Cost accounting (simulated compute; no-op on MnMachine) ----------------
  void charge_flops(std::uint64_t flops) { kernel_.charge_flops(flops); }
  void charge_work(std::uint64_t units) { kernel_.charge_work(units); }
  void charge_ns(SimTime ns) { kernel_.charge(ns); }

 private:
  template <typename T>
  static std::uint64_t to_word(const T& value) {
    static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                  "reply values must fit one message word");
    std::uint64_t w = 0;
    std::memcpy(&w, &value, sizeof(T));
    return w;
  }

  Kernel& kernel_;
  SlotId actor_slot_;
  MailAddress self_;
  Message* msg_;
  std::unique_ptr<ActorBase> become_;

  friend class Kernel;
};

}  // namespace hal

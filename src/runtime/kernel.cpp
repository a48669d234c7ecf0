#include "runtime/kernel.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "am/mst.hpp"
#include "common/hash.hpp"
#include "runtime/context.hpp"
#include "runtime/node_manager.hpp"

namespace hal {

Kernel::Kernel(am::Machine& machine, NodeId self,
               const BehaviorRegistry& registry, const RuntimeConfig& config)
    : machine_(machine),
      self_(self),
      registry_(registry),
      config_(config),
      names_(self, stats_),
      bulk_(machine, self,
            am::BulkHandlers{kHBulkRequest, kHBulkAck, kHBulkData}, stats_,
            probes_, pool_,
            [this](NodeId src, std::uint64_t tag,
                   const std::array<std::uint64_t, 2>& meta, Bytes data) {
              node_manager_->bulk_delivered(src, tag, meta, std::move(data));
            }),
      node_manager_(std::make_unique<NodeManager>(*this)),
      rng_(mix64(config.seed) ^ mix64(0x9e3779b9ULL + self)) {
  bulk_.set_flow_control(config.flow_control);
  // hal::check: name this node as the owner of its single-writer structures
  // (NameTable binds itself in its constructor).
  affinity_.bind(self, "Kernel");
  pool_.bind_owner(self);
  dispatcher_.bind_owner(self);
  probes_.bind_owner(self, config.trace);
  groups_.bind(self);
}

Kernel::~Kernel() = default;

// --- NodeClient ---------------------------------------------------------------

void Kernel::handle(am::Packet p) {
  affinity_.assert_here();
  if (p.retransmitted) {
    // The link layer preserved the original send stamp across retransmits,
    // so this span is first-send -> final in-order delivery: the latency
    // the destination actor experienced because of the loss.
    probes_.record_span(obs::Probe::kRedelivery, p.stamp,
                        machine_.now(self_));
  }
  switch (p.handler) {
    case kHActorMessage:
      node_manager_->on_actor_message(p);
      break;
    case kHCacheFill:
      node_manager_->on_cache_fill(p);
      break;
    case kHFir:
      node_manager_->on_fir(p);
      break;
    case kHFirResponse:
      node_manager_->on_fir_response(p);
      break;
    case kHCreateRequest:
      node_manager_->on_create_request(p);
      break;
    case kHCreateAck:
      node_manager_->on_create_ack(p);
      break;
    case kHReply:
      node_manager_->on_reply(p);
      break;
    case kHGroupCreate:
      node_manager_->on_group_create(p);
      break;
    case kHGroupBroadcast:
      node_manager_->on_group_broadcast(p);
      break;
    case kHGroupMemberSend:
      node_manager_->on_group_member_send(p);
      break;
    case kHStealRequest:
      node_manager_->on_steal_request(p);
      break;
    case kHStealDeny:
      node_manager_->on_steal_deny(p);
      break;
    case kHMigrateAck:
      node_manager_->on_migrate_ack(p);
      break;
    case kHBulkRequest:
    case kHBulkAck:
    case kHBulkData:
      bulk_.route(p);
      break;
    case kHConsole: {
      HAL_ASSERT(self_ == 0 && front_end_ != nullptr);
      front_end_->append(
          p.words[0], static_cast<NodeId>(p.words[1]),
          std::string_view(reinterpret_cast<const char*>(p.payload.data()),
                           p.payload.size()));
      break;
    }
    default:
      HAL_PANIC("Kernel::handle: unknown handler id");
  }
  // Every handler above takes the packet by const reference (message bodies
  // are decoded into pooled buffers, bulk chunks memcpy'd out), so the
  // payload buffer retires here — into the *receiving* node's pool, closing
  // the recycling loop for cross-node traffic.
  pool_.release(std::move(p.payload));
}

bool Kernel::step() {
  affinity_.assert_here();
  auto item = dispatcher_.next();
  if (!item.has_value()) {
    flush_probes();
    return false;
  }
  ++dispatch_batch_len_;
  // The balancer's count holds this item until processing *completes*, so
  // the node stays busy in the work hint and idle nodes keep polling while
  // a long method is generating more work.
  if (item->kind == Dispatcher::Item::Kind::kActor) {
    ActorRecord* rec = actors_.try_get(item->actor);
    if (rec == nullptr || rec->mailbox.empty()) {
      // Stolen or terminated while queued.
      if (rec != nullptr) rec->scheduled = false;
      balancer_hint_add(-1);
      return true;
    }
    // Mailbox burst: run up to kMailboxBurst queued messages while we hold
    // the dispatcher item instead of one message per item (the receive half
    // of wire batching — a decoded frame becomes one dispatcher burst, not
    // max_msgs round trips through the ready queue). `scheduled` stays true
    // for the whole burst, so post_method's re-schedule and any deliveries
    // the methods trigger early-out instead of queueing duplicate items;
    // the per-message dispatcher push/pop and the balancer's item count
    // collapse to one pair per burst. The cap keeps other actors' latency
    // bounded — same fairness shape as the frame size cap on the wire.
    dispatcher_.begin_item();
    for (std::uint32_t n = 0; n < kMailboxBurst; ++n) {
      Message m = std::move(rec->mailbox.front());
      rec->mailbox.pop_front();
      // Ends at the node's reading: the previous method's end, when this
      // burst or quantum already ran one.
      if (m.enqueued_at != 0) {
        probes_.record_span(obs::Probe::kMailboxResidency, m.enqueued_at,
                            stamp());
      }
      run_method(item->actor, std::move(m), /*cheap_dispatch=*/false);
      // The method may have killed or migrated the actor (the slot lookup
      // is generation-checked) or descheduled it; re-fetch before touching
      // the mailbox again.
      rec = actors_.try_get(item->actor);
      if (rec == nullptr || !rec->scheduled || rec->mailbox.empty()) break;
    }
    dispatcher_.end_item();
    if (rec != nullptr && rec->scheduled) {
      rec->scheduled = false;
      if (rec->has_mail()) schedule(item->actor);
    }
  } else {
    dispatcher_.begin_item();
    run_quantum(item->group, dispatcher_.take_message(*item));
    dispatcher_.end_item();
  }
  balancer_hint_add(-1);
  return true;
}

void Kernel::balancer_hint_add(std::int64_t delta) {
  // The machine-wide work hint has one reader, the balancer (maybe_poll,
  // poll_resume_at, and the executors re-running idle nodes' on_idle when
  // the hint turns positive). Without it, keeping the count would cost a
  // wake_hook per 0→1 edge, for nothing. The items are counted here, on
  // the node's own stream; the shared hint counts busy nodes and moves only
  // when this count crosses zero, so its sign — all the balancer reads —
  // is the same as a machine-wide item count's at every instant.
  if (!config_.load_balancing) return;
  const bool was_busy = balancer_items_ != 0;
  balancer_items_ += delta;
  HAL_DASSERT(balancer_items_ >= 0);
  const bool busy = balancer_items_ != 0;
  if (busy != was_busy) machine_.work_hint_add(busy ? 1 : -1);
}

bool Kernel::has_work() const { return !dispatcher_.empty(); }

void Kernel::on_idle() {
  flush_probes();
  node_manager_->maybe_poll();
}

SimTime Kernel::service_deadline() const {
  return node_manager_->poll_resume_at();
}

void Kernel::flush_probes() {
  // A dispatcher busy period ends when the ready queue drains (or, for runs
  // that never idle, when the report is assembled).
  if (dispatch_batch_len_ == 0) return;
  probes_.record(obs::Probe::kDispatchBatch, dispatch_batch_len_);
  dispatch_batch_len_ = 0;
}

// --- Creation (§5) --------------------------------------------------------------

MailAddress Kernel::create_local(BehaviorId behavior) {
  charge(costs().actor_alloc_ns + costs().descriptor_alloc_ns);
  std::unique_ptr<ActorBase> impl = registry_.construct(behavior);
  const SlotId aslot = install_actor(std::move(impl), behavior, {}, {});
  stats_.bump(Stat::kActorsCreatedLocal);
  return actors_.get(aslot).address;
}

MailAddress Kernel::create(BehaviorId behavior, NodeId target) {
  if (target == self_) return create_local(behavior);
  // Alias scheme (§5): allocate the alias, fire the creation request, and
  // return immediately — the caller's continuation proceeds while the remote
  // node does the actual allocation.
  charge(costs().descriptor_alloc_ns);
  const SlotId dslot =
      names_.allocate(LocalityDescriptor::make_remote(target));
  MailAddress alias;
  alias.home = self_;
  alias.desc = dslot;
  alias.created_on = target;
  alias.behavior = behavior;
  alias.alias = true;
  stats_.bump(Stat::kAliasesAllocated);

  am::Packet p;
  p.src = self_;
  p.dst = target;
  p.handler = kHCreateRequest;
  p.words = {alias.pack_word0(), alias.pack_word1(), behavior, 0, 0, 0};
  machine_.send(std::move(p));
  return alias;
}

SlotId Kernel::install_actor(std::unique_ptr<ActorBase> impl,
                             BehaviorId behavior, const MailAddress& addr_in,
                             const MailAddress& alias, std::uint32_t epoch) {
  // The behaviour's constructor (and a migrant's unpack_state) just ran:
  // user code.
  reading_ = 0;
  const SlotId aslot = actors_.allocate();
  MailAddress addr = addr_in;
  SlotId dslot;
  if (!addr.valid()) {
    // Fresh ordinary address: the mail address embeds this node's
    // descriptor slot — the paper's "real address" pair.
    dslot = names_.allocate();
    addr.home = self_;
    addr.desc = dslot;
    addr.created_on = self_;
    addr.behavior = behavior;
    // Nothing can wait on an address that did not exist until now.
    HAL_DASSERT(!node_manager_->has_waiting_work(addr));
  } else if (addr.home == self_) {
    // Actor returning to its birthplace: the address's embedded descriptor
    // is ours; it becomes local again (collapsing the forward chain).
    HAL_ASSERT(names_.try_descriptor(addr.desc) != nullptr);
    dslot = addr.desc;
  } else {
    // Migrated-in foreigner: reuse any descriptor we already hold for it
    // (this is what prevents forwarding cycles) or allocate one.
    dslot = names_.lookup(addr);
    if (!dslot.valid()) {
      dslot = names_.allocate();
      names_.bind(addr, dslot);
    }
  }
  names_.update(dslot, LocalityDescriptor::make_local(aslot, epoch));

  SlotId alias_dslot{};
  if (alias.valid()) {
    if (alias.home == self_) {
      // Actor migrated onto the node that requested its creation: the alias
      // embeds a descriptor slot here; make it local too.
      HAL_ASSERT(names_.try_descriptor(alias.desc) != nullptr);
      alias_dslot = alias.desc;
      names_.update(alias_dslot, LocalityDescriptor::make_local(aslot, epoch));
    } else {
      names_.bind(alias, dslot);
    }
  }

  ActorRecord& rec = actors_.get(aslot);
  rec.impl = std::move(impl);
  rec.behavior = behavior;
  rec.address = addr;
  rec.alias = alias;
  rec.self_desc = dslot;
  rec.alias_desc = alias_dslot;
  rec.epoch = epoch;
  return aslot;
}

// --- Send path (Fig. 3, sender side) ---------------------------------------------

void Kernel::send_message(Message m) {
  affinity_.assert_here();
  // Name translation happens even when the recipient is local (§4): the
  // home-node fast path costs a locality check, the foreign path a hash
  // lookup.
  SlotId ds = names_.resolve(m.dest);
  charge(m.dest.home == self_ ? costs().locality_check_ns
                              : costs().name_lookup_ns);
  if (!ds.valid()) {
    if (m.dest.home == self_) {
      dead_letter_home_miss(m);
      return;
    }
    // First send to this address from this node: allocate a best-guess
    // descriptor toward the birthplace (or, for aliases, the actual
    // creation node) encoded in the address itself (§4.1).
    charge(costs().descriptor_alloc_ns + costs().name_insert_ns);
    ds = names_.allocate(
        LocalityDescriptor::make_remote(m.dest.fallback_node()));
    names_.bind(m.dest, ds);
  }
  const LocalityDescriptor& d = names_.descriptor(ds);
  if (d.local()) {
    stats_.bump(Stat::kMessagesSentLocal);
    deliver_local(d.actor, std::move(m));
  } else {
    stats_.bump(Stat::kMessagesSentRemote);
    node_manager_->ship(std::move(m), ds);
  }
}

void Kernel::deliver_local(SlotId actor_slot, Message m) {
  ActorRecord* rec = actors_.try_get(actor_slot);
  if (rec == nullptr) {
    dead_letter(m, DeadLetterCause::kStaleDescriptor);
    return;
  }
  charge(costs().enqueue_ns);
  m.enqueued_at = stamp();
  rec->mailbox.push_back(std::move(m));
  stats_.bump(Stat::kMessagesDelivered);
  schedule(actor_slot);
}

void Kernel::schedule(SlotId actor_slot) {
  ActorRecord* rec = actors_.try_get(actor_slot);
  if (rec == nullptr || rec->scheduled || !rec->has_mail()) return;
  rec->scheduled = true;
  charge(costs().schedule_ns);
  dispatcher_.schedule_actor(actor_slot);
  balancer_hint_add(1);
}

void Kernel::schedule_quantum(GroupId gid, Message m) {
  charge(costs().schedule_ns);
  dispatcher_.schedule_quantum(gid, std::move(m));
  balancer_hint_add(1);
}

SlotId Kernel::locality_check(const MailAddress& addr) {
  charge(costs().locality_check_ns);
  const SlotId ds = names_.resolve(addr);
  if (!ds.valid()) return {};
  const LocalityDescriptor& d = names_.descriptor(ds);
  if (!d.local()) return {};
  return actors_.try_get(d.actor) != nullptr ? d.actor : SlotId{};
}

// --- Method execution -------------------------------------------------------------

void Kernel::execute_message(SlotId actor_slot, Message& m) {
  const SimTime t0 = dispatch_stamp();
  ActorRecord& rec = actors_.get(actor_slot);
  // The behaviour object is heap-stable; the record reference is not (the
  // method may create actors and grow the pool), so take the raw pointer
  // first and re-fetch the record afterwards.
  ActorBase* impl = rec.impl.get();
  Context ctx(*this, actor_slot, rec.address, &m);
  const void* watched = pool_.watch(m.payload);
  // The body is user code: it drops the reading, and its own stamps (a
  // send's enqueue stamp, Context::now) read the clock.
  ++bodies_;
  reading_ = 0;
  impl->dispatch_message(ctx, m);
  if (auto next = ctx.take_become()) {
    charge(costs().become_ns);
    actors_.get(actor_slot).impl = std::move(next);
  }
  --bodies_;
  // The one read per message: it ends this span and, unless an enclosing
  // body still runs (static dispatch), becomes the node's reading.
  const SimTime t1 = machine_.now(self_);
  hold(t1);
  probes_.record_span(obs::Probe::kMethodExecution, t0, t1);
  // The message is consumed; recycle its payload buffer (a no-op shell if
  // the method moved the blob out — recorded as an escape, the buffer now
  // belongs to user code).
  pool_.note_escape_if_moved(watched, m.payload);
  pool_.release(std::move(m.payload));
}

void Kernel::run_method(SlotId actor_slot, Message m, bool cheap_dispatch) {
  ActorRecord* rec = actors_.try_get(actor_slot);
  if (rec == nullptr) {
    dead_letter(m, DeadLetterCause::kStaleDescriptor);
    return;
  }
  // Local synchronization constraints (§6.1): a disabled method's message
  // moves to the pending queue and is re-examined after later executions.
  charge(costs().constraint_check_ns);
  if (!rec->impl->method_enabled(m.selector)) {
    charge(costs().enqueue_ns);
    m.enqueued_at = dispatch_stamp();
    rec->pending.push_back(std::move(m));
    stats_.bump(Stat::kPendingEnqueued);
    post_method(actor_slot, *rec);
    return;
  }
  charge(cheap_dispatch ? costs().static_dispatch_ns : costs().dispatch_ns);
  stats_.bump(cheap_dispatch ? Stat::kStaticDispatches
                             : Stat::kGenericDispatches);
  execute_message(actor_slot, m);
  rec = actors_.try_get(actor_slot);
  HAL_ASSERT(rec != nullptr);  // actors are only freed in post_method
  if (!rec->dying && rec->migrate_target == kInvalidNode) {
    replay_pending(actor_slot);
    rec = actors_.try_get(actor_slot);
    HAL_ASSERT(rec != nullptr);
  }
  post_method(actor_slot, *rec);
}

void Kernel::replay_pending(SlotId actor_slot) {
  // "Whenever an actor completes its method execution, it examines whether
  // or not it has pending messages. If it does, it dispatches the pending
  // messages one by one before it schedules the next actor." (§6.1)
  for (;;) {
    ActorRecord* rec = actors_.try_get(actor_slot);
    if (rec == nullptr || rec->pending.empty() || rec->dying ||
        rec->migrate_target != kInvalidNode) {
      return;
    }
    bool fired = false;
    for (std::size_t i = 0; i < rec->pending.size(); ++i) {
      charge(costs().constraint_check_ns);
      if (rec->impl->method_enabled(rec->pending[i].selector)) {
        Message m = std::move(rec->pending[i]);
        rec->pending.erase_at(i);
        stats_.bump(Stat::kPendingReplayed);
        if (m.enqueued_at != 0) {
          probes_.record_span(obs::Probe::kPendingResidency, m.enqueued_at,
                              dispatch_stamp());
        }
        charge(costs().dispatch_ns);
        execute_message(actor_slot, m);
        fired = true;
        break;  // record may have moved; rescan from the front
      }
    }
    if (!fired) return;
  }
}

void Kernel::post_method(SlotId actor_slot, ActorRecord& rec) {
  if (rec.dying) {
    // Unprocessed mail dies with the actor — surface it in the dead-letter
    // count and retire the payload buffers rather than dropping them.
    while (!rec.mailbox.empty()) {
      Message m = std::move(rec.mailbox.front());
      rec.mailbox.pop_front();
      dead_letter(m, DeadLetterCause::kShutdownDrain);
    }
    while (!rec.pending.empty()) {
      Message m = std::move(rec.pending.front());
      rec.pending.pop_front();
      dead_letter(m, DeadLetterCause::kShutdownDrain);
    }
    retire_actor(actor_slot, rec);
    return;
  }
  if (rec.migrate_target != kInvalidNode) {
    const NodeId target = rec.migrate_target;
    rec.migrate_target = kInvalidNode;
    perform_migration(actor_slot, target);
    return;
  }
  if (rec.has_mail()) schedule(actor_slot);
}

void Kernel::run_quantum(GroupId gid, Message m) {
  GroupInfo* g = groups_.find(gid);
  HAL_ASSERT(g != nullptr);  // quanta are scheduled only for known groups
  const bool collective = config_.collective_broadcast;
  if (collective) {
    // One method lookup for the whole quantum (§6.4): the per-member
    // dispatch below then runs at fast-path cost.
    charge(costs().dispatch_ns);
  }
  // Member list is fixed at creation; copy defensively because methods may
  // create groups and rehash the table.
  const auto members = g->members;
  for (const auto& [index, addr] : members) {
    (void)index;
    Message copy = m.clone_using(pool_);
    copy.dest = addr;
    const SlotId ds = names_.resolve(addr);
    const LocalityDescriptor* d =
        ds.valid() ? &names_.descriptor(ds) : nullptr;
    if (d != nullptr && d->local()) {
      run_method(d->actor, std::move(copy), /*cheap_dispatch=*/collective);
    } else if (d == nullptr && addr.home == self_) {
      // Member terminated here and its descriptor was released.
      dead_letter_home_miss(copy);
    } else {
      // Member migrated away: fall back to the generic send path.
      send_message(std::move(copy));
    }
  }
  pool_.release(std::move(m.payload));
}

// --- Join continuations (§6.2) -------------------------------------------------

ContRef Kernel::make_join(std::uint32_t slot_count, JoinBody body,
                          const MailAddress& creator) {
  HAL_ASSERT(slot_count > 0);
  charge(costs().join_alloc_ns);
  const SlotId s = joins_.allocate();
  JoinContinuation& jc = joins_.get(s);
  jc.init(slot_count);
  jc.function = std::move(body);
  jc.creator = creator;
  jc.created_at = machine_.now(self_);
  stats_.bump(Stat::kJoinContinuationsCreated);
  // A continuation that never completes is a protocol bug; hold a work
  // token so quiescence detection turns it into a loud failure.
  machine_.token_acquire(self_);
  return ContRef{self_, s, 0};
}

void Kernel::prefill_join(const ContRef& ref, std::uint64_t word) {
  fill_join(ref, word, {});
}

void Kernel::reply_to(const ContRef& ref, std::uint64_t word, Bytes blob) {
  HAL_ASSERT(ref.valid());
  if (ref.node == self_) {
    fill_join(ref, word, std::move(blob));
    return;
  }
  if (blob.size() > am::kMaxInlinePayload) {
    // Large reply (e.g. a matrix block): three-phase bulk transfer with the
    // continuation slot in the metadata and the value word prefixed.
    Bytes data = pool_.acquire(sizeof(std::uint64_t) + blob.size());
    std::memcpy(data.data(), &word, sizeof(word));
    std::memcpy(data.data() + sizeof(word), blob.data(), blob.size());
    pool_.release(std::move(blob));
    bulk_.send(ref.node, kTagReplyBlob, {ref.jc.pack(), ref.slot},
               std::move(data));
    return;
  }
  am::Packet p;
  p.src = self_;
  p.dst = ref.node;
  p.handler = kHReply;
  p.words = {ref.jc.pack(), ref.slot, word, blob.empty() ? 0ULL : 1ULL, 0, 0};
  p.payload = std::move(blob);
  machine_.send(std::move(p));
}

void Kernel::fill_join(const ContRef& ref, std::uint64_t word, Bytes blob) {
  HAL_ASSERT(ref.node == self_);
  JoinContinuation* jc = joins_.try_get(ref.jc);
  HAL_ASSERT(jc != nullptr);  // replies never outlive their continuation
  charge(costs().join_fill_ns);
  jc->fill(ref.slot, word, std::move(blob));
  stats_.bump(Stat::kRepliesJoined);
  if (!jc->ready()) return;
  // Counter hit zero: run the compiled continuation body on this stream,
  // from a copy of what it reads, after freeing the slot.
  JoinContinuation done;
  jc->take_fired(done);
  joins_.free(ref.jc);
  machine_.token_release(self_);
  probes_.record_span(obs::Probe::kJoinRoundTrip, done.created_at,
                      machine_.now(self_));
  Context ctx(*this, SlotId{}, done.creator, nullptr);
  ++bodies_;  // user code, like a method body (execute_message)
  reading_ = 0;
  done.function(ctx, done.view());
  --bodies_;
  // The body has consumed the joined values; retire the reply blobs
  // (pool-acquired on arrival in on_reply / the bulk reply path).
  for (Bytes& b : done.blobs()) pool_.release(std::move(b));
}

// --- Groups (§2.2, §6.4) ---------------------------------------------------------

GroupId Kernel::group_new(BehaviorId behavior, std::uint32_t count) {
  HAL_ASSERT(count > 0);
  const GroupId gid{self_, group_seq_++};
  node_manager_->group_create_local(gid, behavior, count, self_);
  am::Packet p;
  p.src = self_;
  p.handler = kHGroupCreate;
  p.words = {gid.pack(), behavior, count, self_, 0, 0};
  node_manager_->relay_mst(p, self_);
  return gid;
}

void Kernel::group_broadcast(
    GroupId gid, Selector sel, std::uint8_t argc,
    const std::array<std::uint64_t, kMsgInlineWords>& args,
    const ContRef& cont, Bytes payload) {
  stats_.bump(Stat::kBroadcastsSent);
  Message m;
  m.selector = sel;
  m.argc = argc;
  m.args = args;
  m.cont = cont;
  m.payload = std::move(payload);
  HAL_ASSERT(m.body_bytes() <= am::kMaxInlinePayload);  // broadcasts stay small
  Bytes body = pool_.reserve(m.body_bytes());
  m.encode_body_into(body);

  am::Packet p;
  p.src = self_;
  p.handler = kHGroupBroadcast;
  p.words = {gid.pack(), pack_sel_argc(sel, argc), cont.pack_word0(),
             cont.pack_word1(), self_, 0};
  p.payload = std::move(body);
  node_manager_->relay_mst(p, self_);
  pool_.release(std::move(p.payload));

  // Local delivery: a quantum if the group is known here, parked otherwise.
  node_manager_->broadcast_deliver_local(gid, std::move(m));
}

void Kernel::group_member_send(GroupId gid, NodeId root, std::uint32_t index,
                               Message m) {
  const NodeId home = static_cast<NodeId>((root + index) % node_count());
  if (home == self_) {
    node_manager_->member_deliver_local(gid, index, std::move(m));
    return;
  }
  if (m.body_bytes() > am::kMaxInlinePayload) {
    // Large member-directed message (e.g. a matrix column): three-phase
    // bulk transfer, resolved against the group table on the birth node.
    ByteWriter w(pool_.reserve(m.full_bytes()));
    m.encode_full(w);
    pool_.release(std::move(m.payload));
    bulk_.send(home, kTagMemberMessage, {gid.pack(), index},
               std::move(w).take());
    return;
  }
  am::Packet p;
  p.src = self_;
  p.dst = home;
  p.handler = kHGroupMemberSend;
  p.words = {gid.pack(), index, pack_sel_argc(m.selector, m.argc),
             m.cont.pack_word0(), m.cont.pack_word1(), 0};
  p.payload = pool_.reserve(m.body_bytes());
  m.encode_body_into(p.payload);
  pool_.release(std::move(m.payload));
  machine_.send(std::move(p));
}

// --- Migration / termination ------------------------------------------------------

void Kernel::request_migrate(SlotId actor_slot, NodeId target) {
  ActorRecord* rec = actors_.try_get(actor_slot);
  HAL_ASSERT(rec != nullptr);
  HAL_ASSERT(target < node_count());
  rec->migrate_target = target;
}

void Kernel::perform_migration(SlotId actor_slot, NodeId target) {
  ActorRecord* recp = actors_.try_get(actor_slot);
  HAL_ASSERT(recp != nullptr);
  if (target == self_) {
    if (recp->has_mail()) schedule(actor_slot);
    return;
  }
  ActorRecord& rec = *recp;
  HAL_ASSERT(rec.impl->migratable());
  stats_.bump(Stat::kMigrationsOut);
  const std::uint32_t new_epoch = rec.epoch + 1;

  // The image and state writers can outgrow their reservation (pack_state
  // and buffered mail are unbounded); a growth reallocation frees the
  // pooled allocation, so its identity is watched and the free recorded as
  // an escape — otherwise the hal::check ledger would misaccount it.
  Bytes image_buf = pool_.reserve(am::kBulkChunkBytes);
  const void* image_id = pool_.watch(image_buf);
  ByteWriter w(std::move(image_buf));
  w.write(rec.behavior);
  w.write(rec.address.pack_word0());
  w.write(rec.address.pack_word1());
  w.write(rec.alias.pack_word0());
  w.write(rec.alias.pack_word1());
  w.write(new_epoch);
  w.write(static_cast<std::uint8_t>(rec.relocatable ? 1 : 0));
  Bytes state_buf = pool_.reserve(0);
  const void* state_id = pool_.watch(state_buf);
  ByteWriter state(std::move(state_buf));
  rec.impl->pack_state(state);
  reading_ = 0;  // pack_state is user code
  Bytes state_bytes = std::move(state).take();
  pool_.note_escape_if_moved(state_id, state_bytes);
  w.write_bytes(state_bytes);
  pool_.release(std::move(state_bytes));
  w.write(static_cast<std::uint32_t>(rec.mailbox.size()));
  for (std::size_t i = 0; i < rec.mailbox.size(); ++i)
    rec.mailbox[i].encode_full(w);
  w.write(static_cast<std::uint32_t>(rec.pending.size()));
  for (std::size_t i = 0; i < rec.pending.size(); ++i)
    rec.pending[i].encode_full(w);

  // The descriptors left behind become the forward chain (§4.3); the
  // descriptor address at the new node is cached when the MigrateAck
  // arrives. Epoch new_epoch: "after its next migration the actor is at
  // `target`" — strictly fresher than anything this node held.
  names_.update(rec.self_desc,
                LocalityDescriptor::make_remote(target, SlotId{}, new_epoch));
  if (rec.alias_desc.valid()) {
    names_.update(rec.alias_desc,
                  LocalityDescriptor::make_remote(target, SlotId{}, new_epoch));
  }
  actors_.free(actor_slot);
  Bytes image = std::move(w).take();
  pool_.note_escape_if_moved(image_id, image);
  // meta[0] = departure time: the arrival side charges the end-to-end
  // migration probe against it.
  bulk_.send(target, kTagMigration, {machine_.now(self_), 0},
             std::move(image));
}

void Kernel::terminate_actor(SlotId actor_slot) {
  ActorRecord* rec = actors_.try_get(actor_slot);
  HAL_ASSERT(rec != nullptr);
  rec->dying = true;
}

void Kernel::reap_actor(SlotId actor_slot) {
  ActorRecord* rec = actors_.try_get(actor_slot);
  HAL_ASSERT(rec != nullptr);
  // GC runs at quiescence: an unreachable actor cannot have buffered mail.
  HAL_ASSERT(rec->mailbox.empty() && rec->pending.empty() &&
             !rec->scheduled);
  retire_actor(actor_slot, *rec);
}

void Kernel::retire_actor(SlotId actor_slot, ActorRecord& rec) {
  if (rec.address.home == self_ && rec.epoch == 0 && !rec.alias.valid()) {
    // Born here, never moved, no alias: every location update about this
    // actor named this node, so no other node holds a forward pointer, FIR
    // relay or alias binding that leads here. Release the descriptor; a
    // later send to the address misses and dead-letters as stale.
    if constexpr (HAL_CHECK != 0) {
      const LocalityDescriptor& d = names_.descriptor(rec.self_desc);
      check::audit_descriptor_reclaim(
          self_, d.local(), d.epoch, d.fir_outstanding,
          node_manager_->has_waiting_work(rec.address));
    }
    names_.release(rec.self_desc);
  } else {
    // Forward chains, FIR relays and alias bindings on other nodes may
    // still lead here (the paper leaves their reclamation to a distributed
    // GC, §9): keep the descriptors as dead-letter sinks, so stale senders
    // are counted rather than delivered to a recycled slot.
    names_.update(rec.self_desc,
                  LocalityDescriptor::make_local(SlotId{}, rec.epoch));
    if (rec.alias_desc.valid()) {
      names_.update(rec.alias_desc,
                    LocalityDescriptor::make_local(SlotId{}, rec.epoch));
    }
  }
  actors_.free(actor_slot);
}

void Kernel::console_print(std::string_view text) {
  // I/O requests travel to the front-end through node 0, like the paper's
  // partition manager. Lines are capped at the inline payload size.
  const std::size_t n = std::min(text.size(), am::kMaxInlinePayload);
  am::Packet p;
  p.src = self_;
  p.dst = 0;
  p.handler = kHConsole;
  p.words = {machine_.now(self_), self_, 0, 0, 0, 0};
  p.payload = pool_.acquire(n);
  if (n != 0) std::memcpy(p.payload.data(), text.data(), n);
  machine_.send(std::move(p));
}

void Kernel::dead_letter_home_miss(Message& m) {
  dead_letter(m, names_.minted(m.dest) ? DeadLetterCause::kStaleDescriptor
                                       : DeadLetterCause::kUnknownActor);
}

void Kernel::dead_letter(Message& m, DeadLetterCause cause) {
  ++dead_letters_;
  ++dead_letter_causes_[static_cast<std::size_t>(cause)];
  // The message dies here, but its payload buffer goes back to the pool —
  // dropping it would show up as a leak in the hal::check buffer ledger.
  // release() moves the buffer out, leaving an empty shell, so a message
  // that reaches two dead-letter paths cannot retire its buffer twice.
  pool_.release(std::move(m.payload));
}

void Kernel::for_each_in_flight_payload(
    const std::function<void(const Bytes&)>& fn) {
  actors_.for_each([&](SlotId, ActorRecord& rec) {
    for (std::size_t i = 0; i < rec.mailbox.size(); ++i) {
      fn(rec.mailbox[i].payload);
    }
    for (std::size_t i = 0; i < rec.pending.size(); ++i) {
      fn(rec.pending[i].payload);
    }
  });
  dispatcher_.for_each_quantum([&](const Message& m) { fn(m.payload); });
  joins_.for_each([&](SlotId, JoinContinuation& jc) {
    for (const Bytes& b : jc.blobs()) fn(b);
  });
  node_manager_->for_each_in_flight_payload(fn);
}

DrainStats Kernel::drain_in_flight() {
  DrainStats out;
  // Buffered actor mail: messages parked behind disabled constraints, or
  // never dispatched because the run was stopped early.
  actors_.for_each([&](SlotId, ActorRecord& rec) {
    auto drain_queue = [&](RingDeque<Message>& q) {
      while (!q.empty()) {
        Message m = std::move(q.front());
        q.pop_front();
        ++out.messages;
        if (m.payload.capacity() != 0) ++out.payloads;
        pool_.release(std::move(m.payload));
      }
    };
    drain_queue(rec.mailbox);
    drain_queue(rec.pending);
  });
  // Broadcast quanta still buffered in the dispatcher's side pool.
  dispatcher_.drain_quanta([&](Message& m) {
    ++out.messages;
    if (m.payload.capacity() != 0) ++out.payloads;
    pool_.release(std::move(m.payload));
  });
  // Unfilled join continuations: retire the reply blobs already collected
  // and give back the work token each continuation holds.
  std::vector<SlotId> join_slots;
  joins_.for_each(
      [&](SlotId id, JoinContinuation&) { join_slots.push_back(id); });
  for (SlotId id : join_slots) {
    JoinContinuation& jc = joins_.get(id);
    for (Bytes& b : jc.blobs()) {
      if (b.capacity() != 0) ++out.payloads;
      pool_.release(std::move(b));
    }
    joins_.free(id);
    machine_.token_release(self_);
  }
  // NodeManager in-flight state: parked messages awaiting FIR responses and
  // the awaiting-registration / awaiting-group queues.
  node_manager_->drain_in_flight(out);
  return out;
}

}  // namespace hal

#include "runtime/node_manager.hpp"

#include <algorithm>
#include <utility>

#include "am/mst.hpp"
#include "check/protocol.hpp"
#include "runtime/kernel.hpp"

namespace hal {

NodeManager::NodeManager(Kernel& kernel) : k_(kernel) {}

// --- Send side -----------------------------------------------------------------

void NodeManager::ship(Message m, SlotId desc_slot) {
  const LocalityDescriptor& d = k_.names().descriptor(desc_slot);
  HAL_ASSERT(!d.local());
  const NodeId dst = d.remote_node;
  HAL_DASSERT(dst != k_.self());  // monotone epochs forbid self-pointers
  const SlotId hint = k_.config().name_cache ? d.remote_desc : SlotId{};

  if (m.body_bytes() > am::kMaxInlinePayload) {
    // Large message: three-phase bulk protocol (§6.5). The full message is
    // serialized; the receiving node manager re-enters the delivery path.
    ByteWriter w(k_.pool().reserve(m.full_bytes()));
    m.encode_full(w);
    k_.pool().release(std::move(m.payload));
    k_.bulk().send(dst, kTagLargeMessage, {0, 0}, std::move(w).take());
    return;
  }
  k_.trace_mark(trace::EventKind::kSendRemote, dst);
  am::Packet p;
  p.src = k_.self();
  p.dst = dst;
  p.handler = kHActorMessage;
  p.words = {m.dest.pack_word0(),
             m.dest.pack_word1(),
             pack_sel_argc(m.selector, m.argc),
             m.cont.pack_word0(),
             m.cont.pack_word1(),
             hint.pack()};
  // Small-message fast path: args + payload memcpy'd straight into a pooled
  // packet buffer — no ByteWriter, no length word, no heap allocation at
  // steady state. A body-less message (argc == 0, e.g. a bare request)
  // ships with no buffer at all: acquiring one would drain this node's
  // free list one-way whenever the return traffic is buffer-less (replies
  // carry no pool buffer), turning a zero-byte body into a malloc/free per
  // message.
  if (m.body_bytes() != 0) {
    p.payload = k_.pool().reserve(m.body_bytes());
    m.encode_body_into(p.payload);
  }
  k_.pool().release(std::move(m.payload));
  k_.machine().send(std::move(p));
}

// --- Receiving side (Fig. 3) -----------------------------------------------------

void NodeManager::on_actor_message(const am::Packet& p) {
  k_.probes().record_span(obs::Probe::kRemoteDelivery, p.stamp,
                          k_.stamp());
  Message m;
  m.dest = MailAddress::unpack(p.words[0], p.words[1]);
  m.selector = unpack_sel(p.words[2]);
  m.argc = unpack_argc(p.words[2]);
  m.cont = ContRef::unpack(p.words[3], p.words[4]);
  m.dest_desc_hint = SlotId::unpack(p.words[5]);
  m.decode_body(p.payload, &k_.pool());
  const bool had_hint = m.dest_desc_hint.valid();
  local_or_forward(std::move(m), p.src, had_hint);
}

void NodeManager::local_or_forward(Message m, NodeId src, bool had_hint) {
  NameTable& nt = k_.names();
  SlotId ds{};

  // Cached descriptor address from the sender (§4.1): O(1) dereference, no
  // name-table lookup on the receiving node.
  if (k_.config().name_cache && m.dest_desc_hint.valid() &&
      nt.try_descriptor(m.dest_desc_hint) != nullptr) {
    ds = m.dest_desc_hint;
    k_.stats().bump(Stat::kDescriptorCacheHits);
  }
  if (!ds.valid()) {
    ds = nt.resolve(m.dest);
    k_.charge(m.dest.home == k_.self() ? k_.costs().locality_check_ns
                                       : k_.costs().name_lookup_ns);
  }
  if (!ds.valid()) {
    if (m.dest.alias && m.dest.created_on == k_.self()) {
      // The message raced ahead of the creation request that carries this
      // alias (§5): hold it until the actor registers.
      k_.stats().bump(Stat::kMessagesParked);
      k_.machine().token_acquire(k_.self());
      await_reg_[m.dest].messages.push_back(std::move(m));
      return;
    }
    if (m.dest.home == k_.self()) {
      // This node is the address's home and no longer holds its
      // descriptor: the actor died here unmoved and its descriptor was
      // released (Kernel::retire_actor), or the address was forged.
      k_.dead_letter_home_miss(m);
      return;
    }
    // A node that knows nothing about the receiver: route toward the
    // address's fallback node via a fresh best-guess descriptor.
    k_.charge(k_.costs().descriptor_alloc_ns + k_.costs().name_insert_ns);
    ds = nt.allocate(
        LocalityDescriptor::make_remote(m.dest.fallback_node()));
    nt.bind(m.dest, ds);
  }

  LocalityDescriptor& d = nt.descriptor(ds);
  if (d.local()) {
    if (src != kInvalidNode && !had_hint && k_.config().name_cache) {
      // First delivery from that sender: cache our descriptor's address
      // back at the sending node so subsequent sends skip our lookup.
      am::Packet fill;
      fill.src = k_.self();
      fill.dst = src;
      fill.handler = kHCacheFill;
      fill.words = {m.dest.pack_word0(), m.dest.pack_word1(), ds.pack(),
                    d.epoch, 0, 0};
      k_.machine().send(std::move(fill));
    }
    k_.deliver_local(d.actor, std::move(m));
    return;
  }

  // The receiver has migrated on. Do NOT forward the whole message (§4.3):
  // park it and chase the actor with a forwarding-information request.
  k_.stats().bump(Stat::kMessagesForwarded);
  const MailAddress dest = m.dest;
  const NodeId toward = d.remote_node;
  const std::uint32_t epoch = d.epoch;
  const bool need_fir = !d.fir_outstanding;
  d.fir_outstanding = true;
  park(dest, std::move(m), src);
  if (need_fir) send_fir(dest, toward, /*hops=*/0, epoch);
}

void NodeManager::park(const MailAddress& addr, Message m, NodeId origin) {
  k_.trace_mark(trace::EventKind::kParked);
  k_.stats().bump(Stat::kMessagesParked);
  k_.machine().token_acquire(k_.self());
  parked_[addr].push_back(ParkedMessage{std::move(m), origin});
}

// --- FIR protocol (§4.3) -----------------------------------------------------------

void NodeManager::send_fir(const MailAddress& addr, NodeId toward,
                           std::uint64_t hops, std::uint64_t epoch) {
  k_.trace_mark(trace::EventKind::kFirSent, toward);
  k_.stats().bump(Stat::kFirSent);
  // Anchor the round-trip probe (keep the first anchor if a chase for this
  // address is somehow re-fired before its response lands).
  fir_sent_at_.try_emplace(addr, k_.machine().now(k_.self()));
  am::Packet p;
  p.src = k_.self();
  p.dst = toward;
  p.handler = kHFir;
  // words[2] carries the relay count so far and words[3] the chain's epoch
  // watermark (highest descriptor epoch seen along the chase): monotone
  // epochs keep forward chains acyclic (§4.3), so the hop count stays
  // within node count + watermark — audited at each relay in on_fir.
  p.words = {addr.pack_word0(), addr.pack_word1(), hops, epoch, 0, 0};
  k_.machine().send(std::move(p));
}

void NodeManager::respond_fir(const MailAddress& addr, SlotId desc_slot,
                              NodeId to) {
  am::Packet p;
  p.src = k_.self();
  p.dst = to;
  p.handler = kHFirResponse;
  p.words = {addr.pack_word0(), addr.pack_word1(), k_.self(),
             desc_slot.pack(), k_.names().descriptor(desc_slot).epoch, 0};
  k_.machine().send(std::move(p));
}

void NodeManager::on_fir(const am::Packet& p) {
  const MailAddress addr = MailAddress::unpack(p.words[0], p.words[1]);
  const NodeId from = p.src;
  NameTable& nt = k_.names();
  SlotId ds = nt.resolve(addr);
  if (!ds.valid()) {
    if (addr.alias && addr.created_on == k_.self()) {
      // FIR raced the creation request; answer once the actor registers.
      k_.machine().token_acquire(k_.self());
      await_reg_[addr].fir_origins.push_back(from);
      return;
    }
    // A home FIR always resolves: only an actor that never left its
    // birthplace has its descriptor released, and every location update
    // about it names the birthplace, so no node parks its messages or
    // sends an FIR for it (docs/PROTOCOLS.md §1).
    HAL_ASSERT(addr.home != k_.self());
    ds = nt.allocate(LocalityDescriptor::make_remote(addr.fallback_node()));
    nt.bind(addr, ds);
  }
  LocalityDescriptor& d = nt.descriptor(ds);
  if (d.local()) {
    // The chase ends here (even for a terminated actor: senders will then
    // dead-letter against this node's descriptor).
    respond_fir(addr, ds, from);
    return;
  }
  // Relay along the forward chain; remember who asked so the response can
  // propagate back and update every name table on the way (§4.3).
  k_.stats().bump(Stat::kFirRelayed);
  const std::uint64_t hops = p.words[2] + 1;
  // Raise the chain's epoch watermark with what this relay knows. A relay
  // node can legitimately know *less* than the chain (a fresh fallback
  // descriptor during a registration race), so the watermark, not the local
  // epoch, bounds the chain length.
  const std::uint64_t seen = std::max<std::uint64_t>(p.words[3], d.epoch);
  check::audit_fir_chain(k_.self(), hops, k_.node_count(), seen);
  fir_relays_[addr].push_back(from);
  if (!d.fir_outstanding) {
    d.fir_outstanding = true;
    send_fir(addr, d.remote_node, hops, seen);
  }
}

void NodeManager::on_fir_response(const am::Packet& p) {
  const MailAddress addr = MailAddress::unpack(p.words[0], p.words[1]);
  const NodeId node = static_cast<NodeId>(p.words[2]);
  const SlotId rdesc = SlotId::unpack(p.words[3]);
  const auto epoch = static_cast<std::uint32_t>(p.words[4]);
  if (auto it = fir_sent_at_.find(addr); it != fir_sent_at_.end()) {
    // Responses also reach nodes that never asked (parked-sender teaching,
    // migrate acks routed here) — only a node with an anchored FIR samples.
    k_.probes().record_span(obs::Probe::kFirRoundTrip, it->second,
                            k_.machine().now(k_.self()));
    fir_sent_at_.erase(it);
  }
  k_.stats().bump(Stat::kFirResolved);
  k_.trace_mark(trace::EventKind::kFirResolved, node);
  location_learned(addr, node, rdesc, epoch, /*clear_fir=*/true,
                   /*propagate=*/true);
}

void NodeManager::location_learned(const MailAddress& addr, NodeId node,
                                   SlotId rdesc, std::uint32_t epoch,
                                   bool clear_fir, bool propagate) {
  NameTable& nt = k_.names();
  const SlotId ds = nt.resolve(addr);
  if (ds.valid()) {
    LocalityDescriptor& d = nt.descriptor(ds);
    if (!d.local()) {
      // Monotone best-guess update: discard information older than what we
      // hold. Without this guard, a late-arriving response could point a
      // forward chain *backwards* and the FIR chase could cycle forever.
      if (epoch > d.epoch) {
        d.remote_node = node;
        d.remote_desc = rdesc;
        d.epoch = epoch;
      } else if (epoch == d.epoch && d.remote_node == node &&
                 !d.remote_desc.valid()) {
        d.remote_desc = rdesc;
      }
      // The flag answers *our* outstanding FIR regardless of staleness;
      // flushed messages re-resolve against the (possibly fresher) pointer.
      if (clear_fir) d.fir_outstanding = false;
    }
  }
  if (auto it = parked_.find(addr); it != parked_.end()) {
    std::vector<ParkedMessage> msgs = std::move(it->second);
    parked_.erase(it);
    std::vector<NodeId> taught;
    for (ParkedMessage& pm : msgs) {
      k_.machine().token_release(k_.self());
      pm.m.dest_desc_hint = {};
      // "Once the location is known, the original message is sent directly
      // to the node where the receiver resides."
      k_.send_message(std::move(pm.m));
      // Teach the original sender the new location so its next send goes
      // direct instead of detouring through this node again.
      if (pm.origin != kInvalidNode && pm.origin != k_.self() &&
          pm.origin != node &&
          std::find(taught.begin(), taught.end(), pm.origin) ==
              taught.end()) {
        taught.push_back(pm.origin);
        am::Packet p;
        p.src = k_.self();
        p.dst = pm.origin;
        p.handler = kHFirResponse;
        p.words = {addr.pack_word0(), addr.pack_word1(), node, rdesc.pack(),
                   epoch, 0};
        k_.machine().send(std::move(p));
      }
    }
  }
  if (propagate) {
    if (auto it = fir_relays_.find(addr); it != fir_relays_.end()) {
      std::vector<NodeId> relays = std::move(it->second);
      fir_relays_.erase(it);
      for (const NodeId r : relays) {
        am::Packet p;
        p.src = k_.self();
        p.dst = r;
        p.handler = kHFirResponse;
        p.words = {addr.pack_word0(), addr.pack_word1(), node, rdesc.pack(),
                   epoch, 0};
        k_.machine().send(std::move(p));
      }
    }
  }
}

void NodeManager::on_cache_fill(const am::Packet& p) {
  const MailAddress addr = MailAddress::unpack(p.words[0], p.words[1]);
  const SlotId rdesc = SlotId::unpack(p.words[2]);
  const auto epoch = static_cast<std::uint32_t>(p.words[3]);
  NameTable& nt = k_.names();
  const SlotId ds = nt.resolve(addr);
  if (!ds.valid()) return;  // nothing cached here any more
  LocalityDescriptor& d = nt.descriptor(ds);
  // Accept only if the fill matches (or refreshes) our best guess — it
  // comes from the node we delivered to, so the node must agree.
  if (!d.local() && d.remote_node == p.src && epoch >= d.epoch &&
      !d.remote_desc.valid()) {
    d.remote_desc = rdesc;
    d.epoch = epoch;
  }
}

// --- Remote creation (§5) ------------------------------------------------------------

void NodeManager::on_create_request(const am::Packet& p) {
  const MailAddress alias = MailAddress::unpack(p.words[0], p.words[1]);
  const BehaviorId behavior = static_cast<BehaviorId>(p.words[2]);
  k_.charge(k_.costs().actor_alloc_ns + k_.costs().descriptor_alloc_ns +
            k_.costs().name_insert_ns);
  std::unique_ptr<ActorBase> impl = k_.registry().construct(behavior);
  const SlotId aslot = k_.install_actor(std::move(impl), behavior, {}, alias);
  // Deliveries and FIRs may have raced this request to the alias; the fresh
  // ordinary address has nothing waiting.
  registered(alias);
  k_.stats().bump(Stat::kActorsCreatedRemote);

  // Background acknowledgment: cache this node's descriptor address in the
  // requester's alias descriptor.
  am::Packet ack;
  ack.src = k_.self();
  ack.dst = p.src;
  ack.handler = kHCreateAck;
  ack.words = {alias.pack_word0(), alias.pack_word1(),
               k_.actor(aslot)->self_desc.pack(), 0, 0, 0};
  k_.machine().send(std::move(ack));
}

void NodeManager::on_create_ack(const am::Packet& p) {
  const MailAddress alias = MailAddress::unpack(p.words[0], p.words[1]);
  const SlotId rdesc = SlotId::unpack(p.words[2]);
  HAL_ASSERT(alias.home == k_.self());
  LocalityDescriptor* d = k_.names().try_descriptor(alias.desc);
  HAL_ASSERT(d != nullptr);
  if (!d->local() && !d->remote_desc.valid()) d->remote_desc = rdesc;
}

// --- Replies (§6.2) -------------------------------------------------------------------

void NodeManager::on_reply(const am::Packet& p) {
  const ContRef ref{k_.self(), SlotId::unpack(p.words[0]),
                    static_cast<std::uint32_t>(p.words[1])};
  Bytes blob;
  if (p.words[3] != 0) {
    blob = k_.pool().acquire(p.payload.size());
    std::memcpy(blob.data(), p.payload.data(), p.payload.size());
  }
  k_.fill_join(ref, p.words[2], std::move(blob));
}

// --- Groups (§2.2, §6.4) ----------------------------------------------------------------

void NodeManager::relay_mst(const am::Packet& proto, NodeId root) {
  am::mst_for_each_child(k_.self(), root, k_.node_count(), [&](NodeId child) {
    am::Packet copy = proto;
    copy.src = k_.self();
    copy.dst = child;
    k_.stats().bump(Stat::kBroadcastFanout);
    k_.machine().send(std::move(copy));
  });
}

void NodeManager::group_create_local(GroupId gid, BehaviorId behavior,
                                     std::uint32_t count, NodeId root) {
  if (k_.groups().find(gid) != nullptr) return;  // already created here
  const NodeId nodes = k_.node_count();
  GroupInfo info;
  info.id = gid;
  info.behavior = behavior;
  info.total = count;
  info.root = root;
  // Member i is born on node (root + i) mod P; this node owns the indices
  // congruent to (self - root) mod P.
  const std::uint32_t first =
      (k_.self() + nodes - (root % nodes)) % nodes;
  for (std::uint32_t idx = first; idx < count; idx += nodes) {
    const MailAddress a = k_.create_local(behavior);
    info.members.emplace_back(idx, a);
  }
  k_.groups().insert(std::move(info));
  group_registered(gid);
}

void NodeManager::on_group_create(const am::Packet& p) {
  const GroupId gid = GroupId::unpack(p.words[0]);
  const BehaviorId behavior = static_cast<BehaviorId>(p.words[1]);
  const auto count = static_cast<std::uint32_t>(p.words[2]);
  const NodeId root = static_cast<NodeId>(p.words[3]);
  // Relay first: subtrees can start creating while we create locally.
  relay_mst(p, root);
  group_create_local(gid, behavior, count, root);
}

void NodeManager::broadcast_deliver_local(GroupId gid, Message m) {
  if (k_.groups().find(gid) != nullptr) {
    k_.schedule_quantum(gid, std::move(m));
    return;
  }
  k_.machine().token_acquire(k_.self());
  await_group_[gid].push_back(PendingGroupOp{true, 0, std::move(m)});
}

void NodeManager::member_deliver_local(GroupId gid, std::uint32_t index,
                                       Message m) {
  const GroupInfo* g = k_.groups().find(gid);
  if (g != nullptr) {
    m.dest = k_.groups().member_address(gid, index);
    k_.send_message(std::move(m));
    return;
  }
  k_.machine().token_acquire(k_.self());
  await_group_[gid].push_back(PendingGroupOp{false, index, std::move(m)});
}

void NodeManager::on_group_broadcast(const am::Packet& p) {
  k_.probes().record_span(obs::Probe::kBroadcastRelay, p.stamp,
                          k_.machine().now(k_.self()));
  const GroupId gid = GroupId::unpack(p.words[0]);
  const NodeId root = static_cast<NodeId>(p.words[4]);
  relay_mst(p, root);
  Message m;
  m.selector = unpack_sel(p.words[1]);
  m.argc = unpack_argc(p.words[1]);
  m.cont = ContRef::unpack(p.words[2], p.words[3]);
  m.decode_body(p.payload, &k_.pool());
  broadcast_deliver_local(gid, std::move(m));
}

void NodeManager::on_group_member_send(const am::Packet& p) {
  const GroupId gid = GroupId::unpack(p.words[0]);
  const auto index = static_cast<std::uint32_t>(p.words[1]);
  Message m;
  m.selector = unpack_sel(p.words[2]);
  m.argc = unpack_argc(p.words[2]);
  m.cont = ContRef::unpack(p.words[3], p.words[4]);
  m.decode_body(p.payload, &k_.pool());
  member_deliver_local(gid, index, std::move(m));
}

void NodeManager::group_registered(GroupId gid) {
  auto it = await_group_.find(gid);
  if (it == await_group_.end()) return;
  std::vector<PendingGroupOp> ops = std::move(it->second);
  await_group_.erase(it);
  for (PendingGroupOp& op : ops) {
    k_.machine().token_release(k_.self());
    if (op.is_broadcast) {
      broadcast_deliver_local(gid, std::move(op.m));
    } else {
      member_deliver_local(gid, op.index, std::move(op.m));
    }
  }
}

// --- Registration rendezvous ------------------------------------------------------------

void NodeManager::registered(const MailAddress& addr) {
  // The actor now lives here. Three kinds of work may be waiting on that
  // fact:
  //  1. deliveries/FIRs that raced the registration itself (await_reg_);
  //  2. messages this node parked earlier, when its descriptor still said
  //     "moved away" — deliverable locally now;
  //  3. FIR relays recorded while the actor was in transit *to* this node:
  //     the chase dead-ends here (our own onward FIR followed stale, older-
  //     epoch pointers and circles back), so we are the one who must answer.
  if (auto it = await_reg_.find(addr); it != await_reg_.end()) {
    AwaitReg ar = std::move(it->second);
    await_reg_.erase(it);
    for (Message& m : ar.messages) {
      k_.machine().token_release(k_.self());
      m.dest_desc_hint = {};
      local_or_forward(std::move(m), kInvalidNode, false);
    }
    if (!ar.fir_origins.empty()) {
      const SlotId ds = k_.names().resolve(addr);
      HAL_ASSERT(ds.valid());
      for (const NodeId n : ar.fir_origins) {
        k_.machine().token_release(k_.self());
        respond_fir(addr, ds, n);
      }
    }
  }
  if (auto it = parked_.find(addr); it != parked_.end()) {
    std::vector<ParkedMessage> msgs = std::move(it->second);
    parked_.erase(it);
    for (ParkedMessage& pm : msgs) {
      k_.machine().token_release(k_.self());
      pm.m.dest_desc_hint = {};
      k_.send_message(std::move(pm.m));
    }
  }
  if (auto it = fir_relays_.find(addr); it != fir_relays_.end()) {
    std::vector<NodeId> relays = std::move(it->second);
    fir_relays_.erase(it);
    const SlotId ds = k_.names().resolve(addr);
    HAL_ASSERT(ds.valid());
    for (const NodeId n : relays) respond_fir(addr, ds, n);
  }
}

bool NodeManager::has_waiting_work(const MailAddress& addr) const {
  return await_reg_.contains(addr) || parked_.contains(addr) ||
         fir_relays_.contains(addr);
}

// --- Migration ----------------------------------------------------------------------------

void NodeManager::migration_arrived(NodeId src, SimTime departed_at,
                                    Bytes data) {
  if (departed_at != 0) {
    k_.probes().record_span(obs::Probe::kMigration, departed_at,
                            k_.machine().now(k_.self()));
  }
  ByteReader r{std::span<const std::byte>{data}};
  const auto behavior = r.read<BehaviorId>();
  const auto a0 = r.read<std::uint64_t>();
  const auto a1 = r.read<std::uint64_t>();
  const MailAddress addr = MailAddress::unpack(a0, a1);
  const auto l0 = r.read<std::uint64_t>();
  const auto l1 = r.read<std::uint64_t>();
  const MailAddress alias = MailAddress::unpack(l0, l1);
  const auto epoch = r.read<std::uint32_t>();
  const bool relocatable = r.read<std::uint8_t>() != 0;
  const auto state = r.read_bytes();

  k_.charge(k_.costs().actor_alloc_ns + k_.costs().descriptor_alloc_ns);
  std::unique_ptr<ActorBase> impl = k_.registry().construct(behavior);
  {
    ByteReader sr(state);
    impl->unpack_state(sr);
  }
  const SlotId aslot =
      k_.install_actor(std::move(impl), behavior, addr, alias, epoch);
  registered(addr);
  if (alias.valid()) registered(alias);
  ActorRecord* rec = k_.actor(aslot);
  rec->relocatable = relocatable;
  const auto mail_count = r.read<std::uint32_t>();
  for (std::uint32_t i = 0; i < mail_count; ++i) {
    rec->mailbox.push_back(Message::decode_full(r, &k_.pool()));
  }
  const auto pending_count = r.read<std::uint32_t>();
  for (std::uint32_t i = 0; i < pending_count; ++i) {
    rec->pending.push_back(Message::decode_full(r, &k_.pool()));
  }
  k_.stats().bump(Stat::kMigrationsIn);
  k_.trace_mark(trace::EventKind::kMigrateIn, src, epoch);
  if (poll_outstanding_) {
    // Steal success: the poll this node had outstanding was answered with a
    // migrated actor. (An unsolicited migration racing the poll inflates
    // the sample set by one — acceptable for a latency distribution.)
    k_.probes().record_span(obs::Probe::kStealRoundTrip, poll_sent_at_,
                            k_.machine().now(k_.self()));
  }
  poll_outstanding_ = false;
  // A successful steal resets the deny backoff: work is flowing again, so
  // the next idle spell may poll immediately.
  poll_denies_ = 0;
  poll_backoff_until_ = 0;
  if (rec->has_mail()) k_.schedule(aslot);

  // Cache the new descriptor address at the old node *and* the birthplace
  // (§4.3) so both shortcut future deliveries.
  const SlotId new_desc = rec->self_desc;
  auto send_ack = [&](NodeId to) {
    if (to == k_.self()) return;
    am::Packet p;
    p.src = k_.self();
    p.dst = to;
    p.handler = kHMigrateAck;
    p.words = {addr.pack_word0(), addr.pack_word1(), k_.self(),
               new_desc.pack(), epoch, 0};
    k_.machine().send(std::move(p));
  };
  send_ack(src);
  if (addr.home != src) send_ack(addr.home);
  // The migration image has been fully unpacked; recycle its buffer.
  k_.pool().release(std::move(data));
}

void NodeManager::on_migrate_ack(const am::Packet& p) {
  const MailAddress addr = MailAddress::unpack(p.words[0], p.words[1]);
  const NodeId node = static_cast<NodeId>(p.words[2]);
  const SlotId rdesc = SlotId::unpack(p.words[3]);
  const auto epoch = static_cast<std::uint32_t>(p.words[4]);
  // Treat like location information learned out-of-band: update the
  // best guess and flush anything parked here, but leave an in-flight FIR
  // to complete its own chain.
  location_learned(addr, node, rdesc, epoch, /*clear_fir=*/false,
                   /*propagate=*/false);
}

// --- Bulk completion --------------------------------------------------------------------

void NodeManager::bulk_delivered(NodeId src, std::uint64_t tag,
                                 const std::array<std::uint64_t, 2>& meta,
                                 Bytes data) {
  switch (tag) {
    case kTagLargeMessage: {
      ByteReader r{std::span<const std::byte>{data}};
      Message m = Message::decode_full(r, &k_.pool());
      k_.pool().release(std::move(data));
      local_or_forward(std::move(m), src, /*had_hint=*/false);
      break;
    }
    case kTagMigration:
      migration_arrived(src, meta[0], std::move(data));
      break;
    case kTagMemberMessage: {
      ByteReader r{std::span<const std::byte>{data}};
      Message m = Message::decode_full(r, &k_.pool());
      k_.pool().release(std::move(data));
      member_deliver_local(GroupId::unpack(meta[0]),
                           static_cast<std::uint32_t>(meta[1]), std::move(m));
      break;
    }
    case kTagReplyBlob: {
      HAL_ASSERT(data.size() >= sizeof(std::uint64_t));
      std::uint64_t word = 0;
      std::memcpy(&word, data.data(), sizeof(word));
      Bytes blob = k_.pool().acquire(data.size() - sizeof(word));
      std::memcpy(blob.data(), data.data() + sizeof(word),
                  data.size() - sizeof(word));
      k_.pool().release(std::move(data));
      const ContRef ref{k_.self(), SlotId::unpack(meta[0]),
                        static_cast<std::uint32_t>(meta[1])};
      k_.fill_join(ref, word, std::move(blob));
      break;
    }
    default:
      HAL_PANIC("unknown bulk tag");
  }
}

// --- Load balancing (receiver-initiated random polling) ----------------------------------

void NodeManager::maybe_poll() {
  if (!k_.config().load_balancing || k_.node_count() < 2) return;
  if (poll_outstanding_) return;
  // Continuous polling while any node has queued or executing work (the
  // front-end's work hint stands in for the termination detector Kumar et
  // al. pair with random polling). An idle machine sends nothing, so
  // quiescence detection stays clean.
  if (k_.machine().work_hint() <= 0) return;
  // Deny backoff: after a failed poll, wait out the exponential holdoff
  // before bothering another victim. The machine re-runs on_idle at
  // poll_resume_at() (service_deadline plumbing), so expiry is not missed.
  if (poll_backoff_until_ != 0 &&
      k_.machine().now(k_.self()) < poll_backoff_until_) {
    return;
  }
  NodeId victim =
      static_cast<NodeId>(k_.rng().below(k_.node_count() - 1));
  if (victim >= k_.self()) ++victim;
  poll_outstanding_ = true;
  poll_sent_at_ = k_.machine().now(k_.self());
  k_.stats().bump(Stat::kStealRequestsSent);
  am::Packet p;
  p.src = k_.self();
  p.dst = victim;
  p.handler = kHStealRequest;
  p.urgent = true;  // the poll RTT gates how fast work spreads
  k_.machine().send(std::move(p));
}

void NodeManager::on_steal_request(const am::Packet& p) {
  const NodeId thief = p.src;
  // Threshold policy [Kumar et al.]: keep the last ready item for yourself —
  // handing it away just bounces the only work around the machine.
  if (k_.dispatcher().size() < 2) {
    k_.stats().bump(Stat::kStealRequestsDenied);
    am::Packet deny;
    deny.src = k_.self();
    deny.dst = thief;
    deny.handler = kHStealDeny;
    deny.urgent = true;  // a held deny stretches the thief's backoff anchor
    k_.machine().send(std::move(deny));
    return;
  }
  const auto victim = k_.dispatcher().steal_if([&](SlotId slot) {
    const ActorRecord* rec = k_.actor(slot);
    return rec != nullptr && rec->relocatable && rec->impl->migratable() &&
           rec->has_mail();
  });
  if (victim.has_value()) {
    k_.stats().bump(Stat::kStealRequestsServed);
    k_.trace_mark(trace::EventKind::kStealServed, thief);
    ActorRecord* rec = k_.actor(*victim);
    rec->scheduled = false;
    k_.balancer_hint_add(-1);  // leaves this queue; re-counted on arrival
    k_.perform_migration(*victim, thief);
    return;
  }
  k_.stats().bump(Stat::kStealRequestsDenied);
  am::Packet deny;
  deny.src = k_.self();
  deny.dst = thief;
  deny.handler = kHStealDeny;
  deny.urgent = true;
  k_.machine().send(std::move(deny));
}

void NodeManager::on_steal_deny(const am::Packet& /*p*/) {
  const SimTime now = k_.machine().now(k_.self());
  k_.probes().record_span(obs::Probe::kStealRoundTrip, poll_sent_at_, now);
  poll_outstanding_ = false;
  // Exponential backoff instead of an immediate repoll: consecutive denies
  // double the wait (capped), so a machine whose work is concentrated on
  // one busy node is not flooded by every idle node's poll loop. The next
  // poll fires from on_idle once the backoff expires — the machines park
  // until poll_resume_at() and re-run on_idle then.
  ++poll_denies_;
  const std::uint32_t shift = std::min(poll_denies_ - 1, kPollBackoffMaxShift);
  poll_backoff_until_ = now + (kPollBackoffBaseNs << shift);
}

SimTime NodeManager::poll_resume_at() const {
  if (!k_.config().load_balancing || k_.node_count() < 2) return 0;
  if (poll_outstanding_) return 0;  // the reply itself wakes this node
  if (poll_backoff_until_ == 0) return 0;
  // Nothing left to steal: no wake needed; a work-hint edge re-runs on_idle
  // anyway (wake_hook) and polling resumes from there.
  if (k_.machine().work_hint() <= 0) return 0;
  return poll_backoff_until_;
}

// --- Introspection ---------------------------------------------------------------------

std::size_t NodeManager::parked_messages() const {
  std::size_t n = 0;
  for (const auto& [addr, v] : parked_) n += v.size();
  return n;
}

std::size_t NodeManager::awaiting_registration() const {
  std::size_t n = 0;
  for (const auto& [addr, ar] : await_reg_) {
    n += ar.messages.size() + ar.fir_origins.size();
  }
  return n;
}

std::size_t NodeManager::awaiting_group() const {
  std::size_t n = 0;
  for (const auto& [gid, v] : await_group_) n += v.size();
  return n;
}

// --- Shutdown drain ---------------------------------------------------------------------

void NodeManager::drain_in_flight(DrainStats& out) {
  auto retire = [&](Message& m) {
    ++out.messages;
    if (m.payload.capacity() != 0) ++out.payloads;
    k_.pool().release(std::move(m.payload));
  };
  for (auto& [addr, msgs] : parked_) {
    for (ParkedMessage& pm : msgs) {
      k_.machine().token_release(k_.self());
      retire(pm.m);
    }
  }
  parked_.clear();
  for (auto& [addr, ar] : await_reg_) {
    for (Message& m : ar.messages) {
      k_.machine().token_release(k_.self());
      retire(m);
    }
    // Unanswered FIRs hold a token each but carry no payload.
    for (std::size_t i = 0; i < ar.fir_origins.size(); ++i) {
      k_.machine().token_release(k_.self());
    }
  }
  await_reg_.clear();
  for (auto& [gid, ops] : await_group_) {
    for (PendingGroupOp& op : ops) {
      k_.machine().token_release(k_.self());
      retire(op.m);
    }
  }
  await_group_.clear();
  // Relay records and probe anchors hold no messages or tokens.
  fir_relays_.clear();
  fir_sent_at_.clear();
}

void NodeManager::for_each_in_flight_payload(
    const std::function<void(const Bytes&)>& fn) const {
  for (const auto& [addr, msgs] : parked_) {
    for (const ParkedMessage& pm : msgs) fn(pm.m.payload);
  }
  for (const auto& [addr, ar] : await_reg_) {
    for (const Message& m : ar.messages) fn(m.payload);
  }
  for (const auto& [gid, ops] : await_group_) {
    for (const PendingGroupOp& op : ops) fn(op.m.payload);
  }
}

}  // namespace hal

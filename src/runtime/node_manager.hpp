// Node manager: the kernel's meta-actor (§3).
//
// "A node manager delivers messages sent by remote actors to local actors,
// creates an actor (or actors) in response to a creation request from a
// remote actor, and dynamically loads and links a user's executables. Node
// managers communicate with each other to maintain the system's consistency
// and allow dynamic load balancing." Requests arrive as active messages and
// are processed on the stream of whatever the node was doing — no context
// switch.
//
// This class implements the receiving half of the Fig. 3 message-delivery
// algorithm, the FIR (forwarding information request) protocol of §4.3, the
// alias-based remote creation of §5, group creation/broadcast relays,
// migration, and the receiver-initiated random-polling load balancer.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "am/packet.hpp"
#include "runtime/message.hpp"

namespace hal {

class Kernel;
struct DrainStats;

class NodeManager {
 public:
  explicit NodeManager(Kernel& kernel);

  // --- Packet handlers (dispatched from Kernel::handle) ---------------------
  void on_actor_message(const am::Packet& p);
  void on_cache_fill(const am::Packet& p);
  void on_fir(const am::Packet& p);
  void on_fir_response(const am::Packet& p);
  void on_create_request(const am::Packet& p);
  void on_create_ack(const am::Packet& p);
  void on_reply(const am::Packet& p);
  void on_group_create(const am::Packet& p);
  void on_group_broadcast(const am::Packet& p);
  void on_group_member_send(const am::Packet& p);
  void on_steal_request(const am::Packet& p);
  void on_steal_deny(const am::Packet& p);
  void on_migrate_ack(const am::Packet& p);

  /// Completed bulk transfers (large messages, migrations, large replies).
  void bulk_delivered(NodeId src, std::uint64_t tag,
                      const std::array<std::uint64_t, 2>& meta, Bytes data);

  // --- Send-side helpers ------------------------------------------------------
  /// Ship a message to the best-guess node recorded in descriptor
  /// `desc_slot` (Fig. 3 sender side, remote branch). Large bodies divert
  /// through the bulk protocol.
  void ship(Message m, SlotId desc_slot);

  /// Receiving-node delivery core (Fig. 3): local delivery, park-and-FIR for
  /// departed actors, or park awaiting a racing registration. `src` is the
  /// sending node (kInvalidNode when re-entered internally) and
  /// `had_hint` records whether the sender supplied a cached descriptor
  /// address (controls the cache-fill response).
  void local_or_forward(Message m, NodeId src, bool had_hint);

  // --- Registration rendezvous -----------------------------------------------
  /// An actor (created or migrated in) now answers to `addr`; flush parked
  /// messages and FIRs that raced ahead of the registration. Called for
  /// aliases and migrated-in addresses, the only ones work can wait on.
  void registered(const MailAddress& addr);
  /// Whether anything is parked, awaiting registration or relaying an FIR
  /// for `addr`.
  bool has_waiting_work(const MailAddress& addr) const;
  /// A group now exists locally; flush broadcasts/member-sends that raced
  /// ahead of the group-create relay.
  void group_registered(GroupId gid);

  // --- Group operations --------------------------------------------------------
  void group_create_local(GroupId gid, BehaviorId behavior,
                          std::uint32_t count, NodeId root);
  /// Relay a group packet to this node's children in the MST rooted at
  /// `root`, preserving all words/payload.
  void relay_mst(const am::Packet& p, NodeId root);
  /// Deliver a broadcast to this node's members (a dispatcher quantum), or
  /// park it if the group-create relay hasn't arrived yet.
  void broadcast_deliver_local(GroupId gid, Message m);
  /// Resolve a member-indexed send on the member's birth node and re-enter
  /// the generic send path (the member may have migrated since).
  void member_deliver_local(GroupId gid, std::uint32_t index, Message m);

  // --- Load balancing (receiver-initiated random polling, Table 4) -----------
  void maybe_poll();

  /// When this node wants its on_idle re-run to retry a backed-off poll:
  /// the deadline of the current deny backoff, or 0 when no wake is needed
  /// (no balancing, a poll already outstanding, no backoff armed, or no
  /// work left to steal). Surfaces through Kernel::service_deadline so the
  /// machines can park until then instead of being repolled continuously.
  SimTime poll_resume_at() const;

  /// Migration landed here (also the steal-success path). `departed_at` is
  /// the source node's clock when it started packing (bulk meta[0]); 0 means
  /// unknown and skips the end-to-end migration probe.
  void migration_arrived(NodeId src, SimTime departed_at, Bytes data);

  // --- Introspection (tests) ---------------------------------------------------
  std::size_t parked_messages() const;
  std::size_t awaiting_registration() const;
  std::size_t awaiting_group() const;

  /// Shutdown accounting (see Kernel::drain_in_flight): count and retire
  /// every message still held in the parked / awaiting-registration /
  /// awaiting-group queues, releasing payload buffers into the kernel's
  /// pool and returning the work token each entry holds.
  void drain_in_flight(DrainStats& out);

  /// Read-only walk over payloads held in the parked / awaiting queues
  /// (hal::check leak audit; see Kernel::for_each_in_flight_payload).
  void for_each_in_flight_payload(
      const std::function<void(const Bytes&)>& fn) const;

 private:
  struct AwaitReg {
    std::vector<Message> messages;   // deliveries that raced registration
    std::vector<NodeId> fir_origins; // FIRs that raced registration
  };
  struct PendingGroupOp {
    bool is_broadcast = false;
    std::uint32_t index = 0;  // member-sends only
    Message m;
  };

  struct ParkedMessage {
    Message m;
    NodeId origin;  // the node whose send got parked here (may be invalid)
  };

  void send_fir(const MailAddress& addr, NodeId toward,
                std::uint64_t hops = 0, std::uint64_t epoch = 0);
  void respond_fir(const MailAddress& addr, SlotId desc_slot, NodeId to);
  /// Apply location info "as of migration `epoch`, the actor is at `node`
  /// (descriptor `rdesc`)": update the descriptor unless the info is older
  /// than what we hold (monotone epochs keep forward chains acyclic), flush
  /// parked messages (teaching their origin nodes so they stop detouring
  /// through us), propagate to recorded FIR relays when `propagate`.
  void location_learned(const MailAddress& addr, NodeId node, SlotId rdesc,
                        std::uint32_t epoch, bool clear_fir, bool propagate);
  void park(const MailAddress& addr, Message m, NodeId origin);

  Kernel& k_;

  /// Messages held at this node while an FIR locates their receiver (§4.3).
  std::unordered_map<MailAddress, std::vector<ParkedMessage>, MailAddressHash>
      parked_;
  /// Reverse FIR chain: nodes to which the eventual response is relayed.
  std::unordered_map<MailAddress, std::vector<NodeId>, MailAddressHash>
      fir_relays_;
  /// Deliveries/FIRs that arrived before the actor registered here.
  std::unordered_map<MailAddress, AwaitReg, MailAddressHash> await_reg_;
  /// Group operations that arrived before the group-create relay.
  std::unordered_map<GroupId, std::vector<PendingGroupOp>, GroupIdHash>
      await_group_;

  /// FIR round-trip probe anchors: when this node fired the FIR for `addr`.
  std::unordered_map<MailAddress, SimTime, MailAddressHash> fir_sent_at_;

  bool poll_outstanding_ = false;
  SimTime poll_sent_at_ = 0;  // steal round-trip probe anchor

  /// Deny backoff: each consecutive steal denial doubles the wait before
  /// the next poll (reset by a successful steal). Kumar-style continuous
  /// polling otherwise degenerates into a deny storm when the machine's
  /// work is concentrated on one node (mn_scaling at N=1: every idle node
  /// repolls the moment its deny lands).
  std::uint32_t poll_denies_ = 0;
  SimTime poll_backoff_until_ = 0;

  static constexpr SimTime kPollBackoffBaseNs = 2'000;
  static constexpr std::uint32_t kPollBackoffMaxShift = 10;  // cap ~2 ms
};

}  // namespace hal

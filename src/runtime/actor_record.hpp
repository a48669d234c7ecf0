// Per-actor runtime bookkeeping.
//
// An ActorRecord pairs the user behaviour object with the kernel state the
// paper's runtime keeps per actor: its mail queue, the auxiliary *pending
// queue* used to enforce local synchronization constraints (§6.1), its
// addresses (ordinary and, for remotely created actors, the alias), and the
// slot of its locality descriptor on the current node.
#pragma once

#include <memory>

#include "common/ring_buffer.hpp"
#include "common/slot_pool.hpp"
#include "runtime/actor_base.hpp"
#include "runtime/message.hpp"

namespace hal {

struct ActorRecord {
  std::unique_ptr<ActorBase> impl;
  BehaviorId behavior = kInvalidBehavior;

  /// Ordinary mail address (home = birthplace).
  MailAddress address;
  /// Alias, when the actor was created in response to a remote request (§5).
  MailAddress alias;

  /// This node's locality descriptor for the actor (kind == kLocal).
  SlotId self_desc{};
  /// Second local descriptor when the actor lives on its alias's home node
  /// (the alias address embeds that node's descriptor slot directly).
  SlotId alias_desc{};

  /// Buffered incoming messages (the Actor model's mail queue).
  RingDeque<Message> mailbox;
  /// Messages whose method was disabled when dispatched (§6.1).
  RingDeque<Message> pending;

  /// Actor is in the dispatcher's ready structure.
  bool scheduled = false;
  /// Actor requested migration; the kernel performs it after the current
  /// method completes (actors are single-threaded, so migration never
  /// interrupts a method body).
  NodeId migrate_target = kInvalidNode;
  /// The load balancer may relocate this actor (set via Context).
  bool relocatable = false;
  /// Completed migrations — the actor's location epoch (see
  /// LocalityDescriptor::epoch).
  std::uint32_t epoch = 0;
  /// Actor called Context::terminate(); freed after the current method.
  bool dying = false;

  bool has_mail() const noexcept { return !mailbox.empty(); }

  /// Reset for the slot's next actor (SlotPool::free): messages still
  /// queued are destroyed and every field, including any added later,
  /// returns to its default, except that a ring still at its initial
  /// capacity stays with the slot, so actor turnover allocates no rings.
  /// A ring that grew past it is freed: kept, one actor's large mailbox
  /// would pin memory to the slot and send later growth to fresh pages.
  void recycle() {
    RingDeque<Message> old_mailbox = std::move(mailbox);
    RingDeque<Message> old_pending = std::move(pending);
    *this = ActorRecord();
    const auto keep = [](RingDeque<Message>& old, RingDeque<Message>& ring) {
      if (old.capacity() > RingDeque<Message>::kInitialCapacity) return;
      old.clear();
      ring = std::move(old);
    };
    keep(old_mailbox, mailbox);
    keep(old_pending, pending);
  }
};

}  // namespace hal

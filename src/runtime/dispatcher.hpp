// Intra-node dispatcher (§3, §6.3, §6.4).
//
// "The dispatcher provides the data structures that are necessary for
// scheduling actors; the responsibility to actually schedule actors is
// delegated to individual actors" — when an actor finishes a method it asks
// the dispatcher for the next item and yields to it directly, with no
// context switch. Two item kinds exist: a ready actor (one buffered message
// to dispatch) and a broadcast *quantum* (§6.4) — all local members of a
// group processing the same broadcast message consecutively, TAM-style.
//
// Ordering contract. The paper's compiled code runs a local send to a fresh
// actor depth-first on the sender's stack (§6.3); the dispatcher gives the
// same work-first order, so a fork tree expands depth-first instead of
// queueing its whole frontier:
//  - Newest-first: an actor that goes from idle to ready because the item
//    now executing on this node sent it a message — from a method, a join
//    body the item fires, or a broadcast quantum — goes on the newest end
//    and is taken next.
//  - FIFO: every other ready item keeps its place. That covers actors
//    readied by a network arrival, a migration or a bootstrap injection, an
//    actor re-queued with mail left after its mailbox burst, and every
//    broadcast quantum. An actor already queued keeps its place when more
//    mail arrives, and per-actor mailboxes stay FIFO.
//  - Bound: after kNewestFirstBound consecutive newest-end takes, the next
//    take comes from the oldest end, so no ready item waits forever behind
//    a chain of local sends.
//  - Thieves: steal_if gives away the oldest matching ready actor — for a
//    divide-and-conquer tree, the one closest to the root (the owner runs
//    its newest work, thieves take the oldest, as in Cilk).
// The kernel only brackets each item it runs with begin_item()/end_item();
// which end an item joins and which end next() serves are decided here.
//
// The ready structure is a growable power-of-two ring of small items: the
// broadcast message of a kQuantum item lives in a small side pool and the
// item carries only its SlotId, so scheduling an actor never copies a
// Message and steady-state dispatch performs no heap allocation (the ring
// stops growing at the run's high-water depth).
#pragma once

#include <optional>

#include "check/affinity.hpp"
#include "check/capability.hpp"
#include "common/ring_buffer.hpp"
#include "common/slot_pool.hpp"
#include "runtime/message.hpp"

namespace hal {

class Dispatcher {
 public:
  /// Consecutive newest-end takes before next() serves the oldest end once.
  static constexpr std::uint32_t kNewestFirstBound = 1024;

  struct Item {
    enum class Kind : std::uint8_t { kActor, kQuantum };
    Kind kind = Kind::kActor;
    bool newest_first = false;  // kActor readied by the executing item
    SlotId actor{};  // kActor
    GroupId group{};  // kQuantum
    SlotId qmsg{};   // kQuantum: side-pool slot of the broadcast being delivered
  };

  void schedule_actor(SlotId actor) {
    affinity_.assert_here();
    ready_.push_back(Item{Item::Kind::kActor, executing_, actor, {}, {}});
  }

  void schedule_quantum(GroupId group, Message m) {
    affinity_.assert_here();
    const SlotId qmsg = quantum_msgs_.allocate(std::move(m));
    ready_.push_back(Item{Item::Kind::kQuantum, false, {}, group, qmsg});
  }

  [[nodiscard]] std::optional<Item> next() {
    affinity_.assert_here();
    if (ready_.empty()) return std::nullopt;
    if (ready_.back().newest_first && newest_streak_ < kNewestFirstBound) {
      ++newest_streak_;
      return ready_.take_back();
    }
    newest_streak_ = 0;
    return ready_.take_front();
  }

  /// Bracket the item the kernel runs: actors scheduled in between were
  /// readied by its sends. The kernel re-queues a burst's leftover mail
  /// after end_item(), so that item keeps FIFO order.
  void begin_item() {
    affinity_.assert_here();
    executing_ = true;
  }
  void end_item() {
    affinity_.assert_here();
    executing_ = false;
  }

  /// Claim the broadcast message of a kQuantum item (frees its pool slot).
  [[nodiscard]] Message take_message(const Item& item) {
    affinity_.assert_here();
    HAL_DASSERT(item.kind == Item::Kind::kQuantum);
    Message m = std::move(quantum_msgs_.get(item.qmsg));
    quantum_msgs_.free(item.qmsg);
    return m;
  }

  bool empty() const noexcept HAL_NO_THREAD_SAFETY_ANALYSIS {
    return ready_.empty();
  }
  std::size_t size() const noexcept HAL_NO_THREAD_SAFETY_ANALYSIS {
    return ready_.size();
  }

  /// Name the owning node (called once by the owning kernel's constructor).
  void bind_owner(NodeId node) noexcept { affinity_.bind(node, "Dispatcher"); }

  /// Drain every buffered broadcast quantum (shutdown accounting): invokes
  /// `fn(Message&)` for each side-pool message, then frees the slot.
  template <typename Fn>
  void drain_quanta(Fn&& fn) HAL_NO_THREAD_SAFETY_ANALYSIS {
    std::vector<SlotId> slots;
    quantum_msgs_.for_each(
        [&](SlotId id, Message&) { slots.push_back(id); });
    for (SlotId id : slots) {
      fn(quantum_msgs_.get(id));
      quantum_msgs_.free(id);
    }
  }

  /// Visit every buffered broadcast quantum message: `fn(const Message&)`.
  /// Read-only walk used by the hal::check leak audit (report time).
  template <typename Fn>
  void for_each_quantum(Fn&& fn) HAL_NO_THREAD_SAFETY_ANALYSIS {
    quantum_msgs_.for_each([&](SlotId, Message& m) { fn(m); });
  }

  /// Load-balancer support: remove and return the first ready *actor* item
  /// accepted by `pred(SlotId)` (e.g. "relocatable and still alive").
  /// Victims give away the oldest ready actor — for divide-and-conquer
  /// trees that is the one closest to the root, i.e. the largest subtree.
  template <typename Pred>
  [[nodiscard]] std::optional<SlotId> steal_if(Pred&& pred) {
    affinity_.assert_here();
    for (std::size_t i = 0; i < ready_.size(); ++i) {
      const Item& item = ready_[i];
      if (item.kind == Item::Kind::kActor && pred(item.actor)) {
        SlotId victim = item.actor;
        ready_.erase_at(i);
        return victim;
      }
    }
    return std::nullopt;
  }

 private:
  check::NodeAffinityGuard affinity_;
  RingDeque<Item> ready_ HAL_GUARDED_BY(affinity_);
  SlotPool<Message> quantum_msgs_ HAL_GUARDED_BY(affinity_);
  bool executing_ HAL_GUARDED_BY(affinity_) = false;
  std::uint32_t newest_streak_ HAL_GUARDED_BY(affinity_) = 0;
};

}  // namespace hal

// Park/wake handshake: the seq_cst RMW flag protocol between a parking
// consumer and its producers.
//
// MnMachine's workers park on it (MnMachine::park, maybe_wake_thief) with
// `StdAtomics`; hal-mc instantiates it with model atomics to exhaustively
// explore the producer/consumer interleavings (docs/model-checking.md).
//
// Protocol:
//
//   consumer                         producer (after its queue push)
//   --------                         -------------------------------
//   loop:
//     arm()        exchange(true)    claim_wake()   exchange(false)
//     if work: break                   -> true: lock mutex, notify
//     cv.wait                          -> false: consumer is awake
//   disarm()       exchange(false)
//
// Why no wakeup is lost. Every access to the flag is a seq_cst
// read-modify-write, so all touches form a single modification-order chain
// in which each RMW reads the write immediately before it and every link
// synchronizes-with the next. The consumer re-arms (an RMW writing true)
// before EVERY wait-predicate evaluation; take any such arm C and a
// producer's claim_wake S, sequenced after its push:
//   - S precedes C: the RMW chain from S to C carries happens-before, so
//     the predicate (sequenced after C) sees the push — no park.
//   - C precedes S: the first producer RMW after C reads true and notifies
//     while holding the consumer's mutex, so the notify cannot land
//     between the predicate check and the wait; the roused consumer
//     re-arms before it re-checks, restarting the argument, and later
//     producers that read false are covered by that pending notify.
// Either way the wakeup cannot be lost. A notify without the lock reopens
// the check-then-wait window, and a wait timeout that papers over it
// charges every message to an idle consumer up to the timeout. A busy
// consumer keeps the producer path lock-free (one uncontended RMW). RMWs
// instead of a seq_cst fence keep the protocol visible to ThreadSanitizer,
// which does not model atomic_thread_fence.
//
// The re-arm per evaluation is load-bearing, not belt-and-braces: the queue
// is a Vyukov MPSC, so a COMPLETED push can be transiently invisible behind
// another producer's half-finished one (mpsc_queue.hpp, empty()). With a
// single pre-park arm, a consumer woken by producer A could read "empty"
// over producer B's gap and re-wait with the flag false (A's exchange
// cleared it) — then B, closing the gap after A, reads false, skips the
// notify, and the consumer sleeps forever over B's push. Arming afresh
// guarantees the gap-closing producer either reads true and notifies, or
// its RMW precedes the arm, in which case its next-pointer store (sequenced
// before its RMW) is visible to the predicate.
//
// A waker that bumps a generation counter instead of pushing (a thief wake)
// takes the same path: claim_wake() true, then bump under the consumer's
// mutex, which the predicate reads under that mutex. MnMachine's workers
// have only such wakers (their predicate is the generation and the stop
// flag); the queue form above is the one hal-mc's park scenarios check.
//
// The arm-per-evaluation loop shape is pinned by hal-lint HL006, the orders
// by HL007, the interleavings by hal-mc's park scenarios, and the whole
// thing by the TSan soak — four independent ways to lose if this regresses.
#pragma once

#include <atomic>

#include "common/atomic_policy.hpp"
#include "common/lint_markers.hpp"

namespace hal::am {

/// `Policy` supplies the atomic flag cell (common/atomic_policy.hpp).
template <typename Policy = StdAtomics>
class ParkHandshake {
  // Binds this class to hal-lint HL007's `park_handshake` policy: the flag
  // is ONLY ever touched through seq_cst exchanges (the HL006 RMW chain) —
  // plus the explicitly-advisory relaxed peek for thief wakes.
  HAL_MEMORY_PROTOCOL("park_handshake");

 public:
  /// Consumer side: raise the flag. Must run before EVERY wait-predicate
  /// evaluation (see the header comment). Returns the previous value
  /// (true on a redundant re-arm — harmless, and it keeps the RMW chain).
  bool arm() noexcept {
    return flag_.exchange(true, std::memory_order_seq_cst);
  }

  /// Consumer side: lower the flag after leaving the park loop, so senders
  /// stop paying the mutex+notify while the consumer is awake.
  void disarm() noexcept {
    flag_.exchange(false, std::memory_order_seq_cst);
  }

  /// Producer side, after the queue push: lower the flag and learn whether
  /// the consumer may be parked. True means the caller MUST notify under
  /// the consumer's mutex (the lock is what keeps the notify from landing
  /// between the predicate check and the wait).
  bool claim_wake() noexcept {
    return flag_.exchange(false, std::memory_order_seq_cst);
  }

  /// Advisory relaxed peek (MnMachine::maybe_wake_thief): a stale read
  /// costs a missed throughput wake, never correctness — every token in a
  /// deque is consumed by its owner if nobody steals it.
  bool armed_hint() const noexcept {
    return flag_.load(std::memory_order_relaxed);
  }

 private:
  typename Policy::template Atomic<bool> flag_{false};
};

}  // namespace hal::am

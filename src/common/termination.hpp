// Event-driven termination (quiescence) detection for multithreaded
// executors.
//
// MnMachine needs to answer "is the whole machine done?" without a
// central coordinator and without polling. A machine is quiescent when
//   (a) every participant (worker loop) is idle,
//   (b) every unit of work that was ever published has been consumed, and
//   (c) no external work tokens are outstanding (see Machine work tokens).
// The detector tracks (a) with a sharded active counter and (b) with a pair
// of monotone epoch counters, and confirms a candidate snapshot with a
// double scan. All operations use sequentially consistent atomics: they run
// only on idle transitions and once per published/consumed unit, where an
// extra fence is noise, and seq_cst gives the single total order S the
// correctness argument below leans on.
//
// Usage contract (enforced by convention, asserted where possible):
//   * note_sent() is called BEFORE the unit becomes visible to its consumer
//     (e.g. before the queue push), and only by an active participant or by
//     the bootstrap thread before the participants start.
//   * note_handled() is called AFTER the unit is fully processed.
//   * A participant calls deactivate() only when it has no local work and
//     its inbox looked empty; it calls activate() before consuming anything
//     after a wakeup. A participant may only wake up because a unit was
//     published to it (or shutdown was requested) — never spontaneously.
//   * The `extra` quantity probed by check() (work tokens) is mutated only
//     by active participants.
//
// Correctness of check() — why a passing double scan proves termination:
//
//   Invariants: handled <= sent at every instant (each handle is preceded by
//   its send); both counters are monotone; sends/handles/token changes only
//   happen between an activate()/deactivate() pair.
//
//   Let the reads of check() be, in order: h1 = handled, s1 = sent, scan A
//   of all shards, e = extra(), scan B of all shards, s2 = sent,
//   h2 = handled. Suppose h1 == s1 == s2 == h2, both scans read every shard
//   zero, and e == 0.
//
//   1. At the instant t1 of the s1 read: handled(t1) >= h1 (monotone, h1 was
//      read earlier) and handled(t1) <= sent(t1) = s1 = h1, so
//      handled(t1) = sent(t1) — *no unit is in flight at t1*. In particular
//      no handler is mid-execution (its unit would be sent-but-not-handled).
//   2. s2 == s1 at the later instant t2 means no note_sent() happened in
//      [t1, t2]; h2 == h1 means no note_handled() happened either. So no
//      unit exists, is published, or is consumed anywhere in the window.
//   3. A participant can only activate in [t1, t2] if a unit was published
//      to it — impossible by (2) — or if shutdown was requested, which ends
//      the race anyway. So the active-set can only shrink in the window.
//   4. Scans A and B and the shard decrements are all in the seq_cst order
//      S. Consider the S-latest deactivate() of the run. The participant
//      that performs it runs check() afterwards; its scan reads follow every
//      other final deactivate in S and therefore observe zero. Hence when
//      genuine quiescence is reached, *at least one* checker's double scan
//      passes: detection is guaranteed without timeouts (liveness).
//   5. Conversely a passing scan pair brackets the counter window: any
//      participant active anywhere in [t1, t2] either sent or handled a unit
//      (caught by s2/h2) or was active at a scan instant (caught by a
//      nonzero shard). So at t2 every participant is idle, nothing is in
//      flight, and by (3) nothing can ever wake again (safety).
//   6. Tokens (`extra`) are mutated only by active participants, so within
//      the confirmed-stable window the value read at e is frozen: e == 0
//      proves (c); e != 0 with an otherwise stable snapshot proves the
//      machine can never release them — a protocol deadlock (kStalled).
#pragma once

#include <atomic>
#include <cstdint>

#include "check/affinity.hpp"
#include "check/check.hpp"
#include "common/assert.hpp"
#include "common/atomic_policy.hpp"
#include "common/lint_markers.hpp"

namespace hal {

/// `Policy` supplies the atomic cells (common/atomic_policy.hpp): the
/// production alias `TerminationDetector` below pins `StdAtomics`; hal-mc
/// instantiates the same double-scan code with instrumented model atomics
/// so the seq_cst total order the proof leans on is actually explored.
template <typename Policy = StdAtomics>
class BasicTerminationDetector {
  // Binds this class to hal-lint HL007's `termination_epochs` policy: the
  // epoch bumps and shard scans stay seq_cst (the total order S above);
  // only the constructor's pre-publication init may relax.
  HAL_MEMORY_PROTOCOL("termination_epochs");

 public:
  enum class Verdict {
    kBusy,       ///< not quiescent (yet) — go to sleep, someone will wake you
    kQuiescent,  ///< provably terminated: no participant can ever wake again
    kStalled,    ///< stable but external tokens outstanding: protocol deadlock
  };

  /// All `participants` start active (they are about to start running).
  explicit BasicTerminationDetector(std::uint32_t participants) {
    for (std::uint32_t i = 0; i < participants; ++i) {
      shards_[shard_of(i)].active.fetch_add(1, std::memory_order_relaxed);
    }
  }

  BasicTerminationDetector(const BasicTerminationDetector&) = delete;
  BasicTerminationDetector& operator=(const BasicTerminationDetector&) = delete;

  /// Participant `who` re-enters the active set. Must be called after a
  /// wakeup BEFORE consuming the unit that caused it.
  void activate(std::uint32_t who) noexcept {
    shards_[shard_of(who)].active.fetch_add(1);
  }

  /// Participant `who` leaves the active set: inbox drained, no local work,
  /// all its sends already published.
  void deactivate(std::uint32_t who) noexcept {
    [[maybe_unused]] const std::int64_t prev =
        shards_[shard_of(who)].active.fetch_sub(1);
    HAL_ASSERT(prev >= 1);
  }

  /// A unit of work is about to be published (call BEFORE the queue push).
  void note_sent() noexcept { sent_.fetch_add(1); }

  /// A unit of work has been fully consumed (call AFTER the handler ran).
  void note_handled() noexcept {
    [[maybe_unused]] const std::uint64_t h = handled_.fetch_add(1) + 1;
#if HAL_CHECK
    // Conservation: every handle is preceded by its send (the invariant the
    // double-scan proof leans on). sent_ read after the increment can only
    // have grown past this unit's own send, so h > sent is a contract
    // breach, not a benign race.
    const std::uint64_t s = sent_.load();
    if (h > s) {
      check::fail(check::Violation{check::ViolationKind::kCounterConservation,
                                   "TerminationDetector", kInvalidNode,
                                   check::current_node(), h, s});
    }
#endif
  }

  std::uint64_t sent() const noexcept { return sent_.load(); }
  std::uint64_t handled() const noexcept { return handled_.load(); }

  bool all_idle() const noexcept {
    for (const Shard& s : shards_) {
      if (s.active.load() != 0) return false;
    }
    return true;
  }

  /// Double-scan quiescence check (proof in the header comment). `extra`
  /// is a callable returning the outstanding external token count; it is
  /// probed inside the stability window so its value is trustworthy.
  /// Typically called by a participant right after deactivate().
  template <typename ExtraFn>
  Verdict check(ExtraFn&& extra) const {
    const std::uint64_t h1 = handled_.load();
    const std::uint64_t s1 = sent_.load();
    if (h1 != s1) return Verdict::kBusy;
    if (!all_idle()) return Verdict::kBusy;
    const std::uint64_t e = extra();
    if (!all_idle()) return Verdict::kBusy;
    if (sent_.load() != s1 || handled_.load() != h1) return Verdict::kBusy;
    return e == 0 ? Verdict::kQuiescent : Verdict::kStalled;
  }

 private:
  // Idle transitions from different nodes land on different cache lines;
  // 16 shards keep the scan trivially cheap while giving 16-way spread.
  static constexpr std::uint32_t kShards = 16;
  static constexpr std::uint32_t kShardMask = kShards - 1;
  static_assert((kShards & kShardMask) == 0, "shard count must be 2^k");

  static constexpr std::uint32_t shard_of(std::uint32_t who) noexcept {
    return who & kShardMask;
  }

  template <typename T>
  using Atomic = typename Policy::template Atomic<T>;

  struct alignas(64) Shard {
    Atomic<std::int64_t> active{0};
  };

  Shard shards_[kShards];
  alignas(64) Atomic<std::uint64_t> sent_{0};
  alignas(64) Atomic<std::uint64_t> handled_{0};
};

/// Production instantiation: plain `std::atomic` cells. Every executor and
/// test names this alias; the template above exists for hal-mc.
using TerminationDetector = BasicTerminationDetector<StdAtomics>;

}  // namespace hal

// Event-driven termination (quiescence) detection for multithreaded
// executors.
//
// MnMachine needs to answer "is the whole machine done?" without a
// central coordinator and without polling. A machine is quiescent when
//   (a) every participant (worker loop) is idle,
//   (b) every unit of work that was ever published has been consumed, and
//   (c) no external work tokens are outstanding (see Machine work tokens).
// The detector keeps one cache-line shard per participant (16 shards,
// participant `who` on shard `who mod 16`). A shard holds the participant's
// active count for (a) and its two monotone epoch counters, `sent` and
// `handled`, for (b); check() confirms a candidate snapshot by collecting
// the epochs, scanning the active counts twice, and collecting the epochs
// again. Each participant writes only its own shard, so a unit's send and
// handle cost an RMW on a line no other worker writes; only check(), on an
// idle transition, reads every shard. All operations use sequentially
// consistent atomics: seq_cst gives the single total order S the
// correctness argument below leans on.
//
// Usage contract (enforced by convention, asserted where possible):
//   * note_sent(who) is called BEFORE the unit becomes visible to its
//     consumer (e.g. before the queue push), and only by an active
//     participant `who` or by the bootstrap thread before the participants
//     start (which passes 0).
//   * note_handled(who) is called AFTER the unit is fully processed. A unit
//     may be sent on one shard and handled on another.
//   * A participant calls deactivate() only when it has no local work and
//     its inbox looked empty; it calls activate() before consuming anything
//     after a wakeup. A participant may only wake up because a unit was
//     published to it (or shutdown was requested) — never spontaneously.
//     MnMachine's deactivated workers also wake when the earliest
//     published deadline passes, and then schedule the nodes that are due.
//     A link deadline is published only while its node's link unit is
//     outstanding, so no check passes until the link is acked; a service
//     deadline only re-runs an idle client's on_idle, and the balancer's
//     sends nothing once the work hint is zero, which it is whenever no
//     node holds work. A wake that finds nothing due publishes nothing.
//   * The `extra` quantity probed by check() (work tokens) is mutated only
//     by active participants.
//   * Every caller's shard lies in the collected range [0, min(P, 16)),
//     P = the participant count: participant indices are < P, and the
//     bootstrap thread uses shard 0.
//
// Correctness of check() — why a passing double scan proves termination:
//
//   Invariants: every shard's `sent` and `handled` are monotone; the sums
//   satisfy Σhandled <= Σsent at every instant (each handle is preceded by
//   its send); sends/handles/token changes only happen between an
//   activate()/deactivate() pair.
//
//   Let the reads of check() be, in order: collect 1 (every shard's
//   `handled`, summed to h1, and every shard's `sent`, summed to s1), scan
//   A of all active counts, e = extra(), scan B, collect 2 (sums h2, s2).
//   Suppose h1 == s1 == s2 == h2, both scans read every shard zero, and
//   e == 0.
//
//   1. Each shard counter is monotone, so equal sums mean no shard counter
//      moved between its read in collect 1 and its read in collect 2. Let
//      W be the window from the last read of collect 1 to the first read of
//      collect 2: every shard's two reads bracket W, so no note_sent() and
//      no note_handled() happened anywhere in W.
//   2. At every instant of W, in flight = Σsent − Σhandled = s1 − h1 = 0:
//      no unit exists, is published, or is consumed anywhere in the
//      window. In particular no handler is mid-execution (its unit would be
//      sent-but-not-handled). The order of the reads inside one collect
//      does not matter; the second collect does.
//   3. A participant can only activate in W if a unit was published to it
//      — impossible by (2) — or if shutdown was requested, which ends the
//      race anyway. So the active set can only shrink in the window.
//   4. Scans A and B and the shard decrements are all in the seq_cst order
//      S. Consider the S-latest deactivate() of the run. The participant
//      that performs it runs check() afterwards; by then every epoch is
//      final and balanced, and its scan reads follow every other final
//      deactivate in S and therefore observe zero. Hence when genuine
//      quiescence is reached, *at least one* checker's double scan passes:
//      detection is guaranteed without timeouts (liveness).
//   5. Conversely the passing scan pair lies inside W. A participant
//      active at a scan instant makes that scan read nonzero, and by (3) no
//      participant activates in W; so from scan B on every participant is
//      idle, nothing is in flight, and nothing can ever wake again
//      (safety).
//   6. Tokens (`extra`) are mutated only by active participants, so within
//      the confirmed-stable window the value read at e is frozen: e == 0
//      proves (c); e != 0 with an otherwise stable snapshot proves the
//      machine can never release them — a protocol deadlock (kStalled).
#pragma once

#include <algorithm>
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
  explicit BasicTerminationDetector(std::uint32_t participants)
      : used_(std::clamp<std::uint32_t>(participants, 1, kShards)) {
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

  /// Participant `who` is about to publish a unit of work (call BEFORE the
  /// queue push). The bootstrap thread passes 0.
  void note_sent(std::uint32_t who) noexcept {
    HAL_DASSERT(shard_of(who) < used_);
    shards_[shard_of(who)].sent.fetch_add(1);
  }

  /// Participant `who` has fully consumed a unit of work (call AFTER the
  /// handler ran).
  void note_handled(std::uint32_t who) noexcept {
    HAL_DASSERT(shard_of(who) < used_);
    shards_[shard_of(who)].handled.fetch_add(1);
#if HAL_CHECK
    // Conservation: every handle is preceded by its send (the invariant the
    // double-scan proof leans on). Σhandled is collected first, so Σsent
    // collected after it covers the send of every handle it counted: h > s
    // is a contract breach, not a benign race.
    const std::uint64_t h = handled();
    const std::uint64_t s = sent();
    if (h > s) {
      check::fail(check::Violation{check::ViolationKind::kCounterConservation,
                                   "TerminationDetector", kInvalidNode,
                                   check::current_node(), h, s});
    }
#endif
  }

  /// Σsent over the collected shards.
  std::uint64_t sent() const noexcept {
    std::uint64_t sum = 0;
    for (std::uint32_t i = 0; i < used_; ++i) sum += shards_[i].sent.load();
    return sum;
  }

  /// Σhandled over the collected shards.
  std::uint64_t handled() const noexcept {
    std::uint64_t sum = 0;
    for (std::uint32_t i = 0; i < used_; ++i) {
      sum += shards_[i].handled.load();
    }
    return sum;
  }

  bool all_idle() const noexcept {
    for (std::uint32_t i = 0; i < used_; ++i) {
      if (shards_[i].active.load() != 0) return false;
    }
    return true;
  }

  /// Double-scan quiescence check (proof in the header comment). `extra`
  /// is a callable returning the outstanding external token count; it is
  /// probed inside the stability window so its value is trustworthy.
  /// Typically called by a participant right after deactivate().
  template <typename ExtraFn>
  Verdict check(ExtraFn&& extra) const {
    const std::uint64_t h1 = handled();
    const std::uint64_t s1 = sent();
    if (h1 != s1) return Verdict::kBusy;
    if (!all_idle()) return Verdict::kBusy;
    const std::uint64_t e = extra();
    if (!all_idle()) return Verdict::kBusy;
    if (handled() != h1 || sent() != s1) return Verdict::kBusy;
    return e == 0 ? Verdict::kQuiescent : Verdict::kStalled;
  }

 private:
  // One cache line per participant (shard_of(who)), so workers' epoch
  // bumps and idle transitions never share a line; 16 shards keep the scan
  // trivially cheap at any participant count.
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
    Atomic<std::uint64_t> sent{0};
    Atomic<std::uint64_t> handled{0};
  };

  Shard shards_[kShards];
  // Shards [0, used_) are collected and scanned: min(participants, 16), at
  // least 1 for the bootstrap thread. No caller writes a shard outside it.
  const std::uint32_t used_;
};

/// Production instantiation: plain `std::atomic` cells. Every executor and
/// test names this alias; the template above exists for hal-mc.
using TerminationDetector = BasicTerminationDetector<StdAtomics>;

}  // namespace hal

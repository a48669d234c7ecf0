// Run-token state machine: the per-node cell that guarantees each node has
// at most one run token machine-wide and exactly one running worker.
//
// Extracted from MnMachine into a checkable unit: the executor instantiates
// it with `StdAtomics` (behavior unchanged — same enum, same CAS loop, same
// seq_cst orders) and hal-mc instantiates it with model atomics to explore
// the sender/runner interleavings (docs/model-checking.md).
//
// Protocol:
//
//            publish() wins CAS            begin_quantum()
//    kIdle ----------------------> kQueued ---------------> kRunning
//      ^                              ^                     |   |
//      |   retire_or_requeue() CAS    |      requeue()      |   | publish()
//      +------------------------------+---------------------+   | mid-quantum
//                                     |                         v
//                                     +----------------- kRunningNotified
//                                      retire_or_requeue() sees the flag
//
// Every write to the cell is a seq_cst RMW, so successive owners of the
// token are linked by a happens-before chain through the cell: the plain
// per-node fields (the kernel, probes, buffer pool, link endpoint —
// everything single-writer) are handed over race-free. The two safety properties hal-mc checks:
//
//   * exactly-one-runner: between a begin_quantum() and its matching
//     retire/requeue, no other thread's begin_quantum() can run (publish()
//     can only reach kQueued/kRunningNotified, never a second kRunning).
//   * no lost unit: a sender makes its unit visible (a mailbox push, whose
//     link store is only a release) and then calls publish(). Whatever
//     state it finds, publish() writes the cell with an RMW: Idle→Queued
//     (a fresh token exists), Running→RunningNotified (the runner's retire
//     CAS fails and requeues), or a pending kQueued/kRunningNotified
//     rewritten with itself. Every other write is an RMW too, so the
//     sender's RMW heads a release sequence that every later write
//     continues, and every runner RMW that follows it in the cell's
//     modification order acquires the unit. A quantum that begins after
//     the sender's RMW therefore drains the unit; one that began before it
//     was flagged, so it ends in requeue() or a failed retire, whose RMWs
//     acquire the unit before the next quantum begins. A publish() that
//     only *loaded* a pending state, or a requeue that stored kQueued
//     plainly, would synchronize with no one: on x86 the push can still
//     sit in the sender's store buffer while its load reads kQueued, the
//     runner's drain and empty() miss it, and retire takes the node to
//     kIdle over a packet that nothing will schedule again (the
//     store-buffering shape). hal-mc's run_token_mailbox scenarios compose
//     this cell with the real MpscQueue and pin both halves.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/assert.hpp"
#include "common/atomic_policy.hpp"
#include "common/lint_markers.hpp"

namespace hal::am {

/// `Policy` supplies the atomic state cell (common/atomic_policy.hpp).
template <typename Policy = StdAtomics>
class RunTokenCell {
  // Binds this class to hal-lint HL007's `run_tokens` policy: every state
  // transition stays seq_cst (the happens-before chain between successive
  // token owners rides these RMWs).
  HAL_MEMORY_PROTOCOL("run_tokens");

 public:
  enum class State : std::uint8_t {
    kIdle,             ///< no token anywhere; next sender publishes one
    kQueued,           ///< token in some run queue, awaiting a worker
    kRunning,          ///< a worker is executing a quantum
    kRunningNotified,  ///< running, and work arrived: runner must requeue
  };

  /// A unit of work became visible on this node. Returns true when the
  /// caller won the Idle→Queued race and MUST publish the node's one run
  /// token (count it, push it into a run queue); false when a token is
  /// already pending or the in-progress quantum has been flagged.
  bool publish() noexcept {
    State cur = state_.load(std::memory_order_seq_cst);
    for (;;) {
      switch (cur) {
        case State::kIdle:
          // Win the CAS → this thread publishes the node's one run token.
          if (state_.compare_exchange_weak(cur, State::kQueued,
                                           std::memory_order_seq_cst)) {
            return true;
          }
          break;  // cur reloaded; retry
        case State::kRunning:
          // A quantum is in progress. Flag it: the runner's retire CAS
          // (Running→Idle) fails and requeues, so the unit we just made
          // visible cannot be stranded in an unscheduled mailbox.
          if (state_.compare_exchange_weak(cur, State::kRunningNotified,
                                           std::memory_order_seq_cst)) {
            return false;
          }
          break;
        case State::kQueued:
        case State::kRunningNotified:
          // A token is already pending. Rewrite the state with itself: the
          // RMW is what makes the next begin_quantum acquire our unit (see
          // "no lost unit" above); a bare load would publish nothing.
          if (state_.compare_exchange_weak(cur, cur,
                                           std::memory_order_seq_cst)) {
            return false;
          }
          break;
      }
    }
  }

  /// The worker that popped this node's token starts its quantum.
  void begin_quantum() noexcept {
    [[maybe_unused]] const State prev =
        state_.exchange(State::kRunning, std::memory_order_seq_cst);
    HAL_DASSERT(prev == State::kQueued);
  }

  /// End of quantum with work remaining: the runner keeps the token and
  /// re-publishes it itself (round-robin fairness among runnable nodes).
  void requeue() noexcept {
    state_.exchange(State::kQueued, std::memory_order_seq_cst);
  }

  /// End of quantum with no work observed. Returns false when the node went
  /// Idle; true when a sender flagged new work mid-quantum (the CAS lost to
  /// kRunningNotified — between the runner's mailbox check and this CAS the
  /// state can only move Running→RunningNotified, so the racing unit is
  /// covered): the cell is back to kQueued and the caller MUST re-publish
  /// the token.
  bool retire_or_requeue() noexcept {
    State expected = State::kRunning;
    if (state_.compare_exchange_strong(expected, State::kIdle,
                                       std::memory_order_seq_cst)) {
      return false;
    }
    HAL_DASSERT(expected == State::kRunningNotified);
    state_.exchange(State::kQueued, std::memory_order_seq_cst);
    return true;
  }

  /// Snapshot for the home-node sweep: true iff no token is pending.
  bool idle() const noexcept {
    return state_.load(std::memory_order_seq_cst) == State::kIdle;
  }

 private:
  typename Policy::template Atomic<State> state_{State::kIdle};
};

}  // namespace hal::am

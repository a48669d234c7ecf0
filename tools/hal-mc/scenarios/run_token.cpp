// Scenario: the run-token state machine (am/run_token.hpp) with inline
// runners — the thread that wins publish() executes the node's quantum
// itself, exactly like an MnMachine worker that popped the token.
//
// The mailbox is modeled by a bit-mask Atomic with release deposits and an
// acquire drain (the real MPSC queue carries its payloads the same way),
// so the WORK cells always ride the mailbox edge. The `quantum_log` Cell
// is different: it models the node's single-writer plain state (kernel,
// probes, buffer pool) that is read and written by every quantum and is
// handed between successive token owners ONLY through the cell's seq_cst
// RMW chain (run_token.hpp header). The run-token mutants sever exactly
// that chain — begin_quantum() losing its acquire half, retire losing its
// release half — and show up as a data race on quantum_log.
//
// Checked properties:
//   * exactly-one-runner: the runners counter is 0 at every quantum start;
//   * no lost unit: at the end every deposited bit was drained, the mask
//     is empty and the token is idle;
//   * race-free owner handoff of quantum_log.
//
// The bitmask drains with an RMW, and an RMW always reads the latest value,
// so run_token_exclusive cannot see a unit that the drain misses. The real
// MpscQueue publishes with a plain release store and drains with loads:
// the run_token_mailbox scenarios compose the cell with it, as MnMachine's
// post_and_schedule and run_node do. One runner, its token already queued,
// runs run_node's loop (drain, empty(), requeue or retire); each sender
// pushes a packet and publishes. At the end every packet must have been
// processed and the token must be idle.
//   * run_token_mailbox: one sender. Its twin run_token_mailbox_load_only
//     runs the cell as it was before publish() became an RMW in every
//     state; the checker must find the packet stranded behind an idle
//     token (the store-buffering lost wake-up).
//   * run_token_mailbox_two_senders: the second sender rewrites the flag
//     the first one set. Its twin run_token_mailbox_plain_requeue fixes
//     publish() but keeps the plain kQueued stores of requeue() and of a
//     flagged retire; the checker must find the second packet stranded.
#include <array>
#include <cstdint>
#include <memory>

#include "am/run_token.hpp"
#include "common/mpsc_queue.hpp"
#include "mc/atomic.hpp"
#include "mc/explore.hpp"
#include "mc/sync.hpp"

namespace hal::mc {
namespace {

struct TokenState {
  am::RunTokenCell<ModelAtomics> token;
  Atomic<std::uint64_t> mask{0};  ///< the node's mailbox, one bit per unit
  std::array<Cell<std::uint64_t>, 2> work;
  Cell<std::uint64_t> quantum_log{0};  ///< runner-only plain state
  Atomic<std::uint64_t> runners{0};
  Atomic<std::uint64_t> processed{0};
};

void run_node(const std::shared_ptr<TokenState>& st) {
  MC_ASSERT(st->runners.fetch_add(1, std::memory_order_relaxed) == 0,
            "run_token: two quanta running concurrently");
  st->token.begin_quantum();
  for (;;) {
    // Single-writer state handed over by the token cell's RMW chain.
    st->quantum_log.set(st->quantum_log.get() + 1);
    for (std::uint64_t m =
             st->mask.exchange(0, std::memory_order_acq_rel);
         m != 0; m = st->mask.exchange(0, std::memory_order_acq_rel)) {
      if ((m & 1) != 0) {
        MC_ASSERT(st->work[0].get() == 10, "run_token: unit 0 payload lost");
        st->processed.fetch_add(1, std::memory_order_relaxed);
      }
      if ((m & 2) != 0) {
        MC_ASSERT(st->work[1].get() == 20, "run_token: unit 1 payload lost");
        st->processed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    st->runners.fetch_sub(1, std::memory_order_relaxed);
    if (!st->token.retire_or_requeue()) return;  // node went idle
    // A sender flagged new work mid-quantum: the token is back to kQueued
    // and this worker runs the next quantum itself.
    MC_ASSERT(st->runners.fetch_add(1, std::memory_order_relaxed) == 0,
              "run_token: two quanta running concurrently (requeue)");
    st->token.begin_quantum();
  }
}

void run_token_exclusive(Sim& sim) {
  auto st = std::make_shared<TokenState>();

  sim.thread([st] {  // sender 1: deposit unit 0, publish, maybe run
    st->work[0].set(10);
    st->mask.fetch_add(1, std::memory_order_release);
    if (st->token.publish()) run_node(st);
  });
  sim.thread([st] {  // sender 2: deposit unit 1, publish, maybe run
    st->work[1].set(20);
    st->mask.fetch_add(2, std::memory_order_release);
    if (st->token.publish()) run_node(st);
  });

  sim.finish([st] {
    MC_ASSERT(st->mask.load() == 0,
              "run_token: unit stranded in an unscheduled mailbox");
    MC_ASSERT(st->token.idle(), "run_token: token leaked (not idle)");
    MC_ASSERT(st->processed.load() == 2,
              "run_token: deposited unit never processed");
    MC_ASSERT(st->runners.load() == 0, "run_token: runner count leaked");
  });
}

/// RunTokenCell before every write became an RMW: requeue() and a flagged
/// retire stored kQueued plainly, and with kRmwPublish false, publish()
/// only loaded a pending token (kQueued/kRunningNotified).
template <bool kRmwPublish>
class PlainStoreCell {
  using State = am::RunTokenCell<ModelAtomics>::State;

 public:
  bool publish() {
    State cur = state_.load();
    for (;;) {
      switch (cur) {
        case State::kIdle:
          if (state_.compare_exchange_weak(cur, State::kQueued)) return true;
          break;
        case State::kRunning:
          if (state_.compare_exchange_weak(cur, State::kRunningNotified)) {
            return false;
          }
          break;
        case State::kQueued:
        case State::kRunningNotified:
          if (!kRmwPublish || state_.compare_exchange_weak(cur, cur)) {
            return false;
          }
          break;
      }
    }
  }
  void begin_quantum() { state_.exchange(State::kRunning); }
  void requeue() { state_.store(State::kQueued); }
  bool retire_or_requeue() {
    State expected = State::kRunning;
    if (state_.compare_exchange_strong(expected, State::kIdle)) return false;
    state_.store(State::kQueued);
    return true;
  }
  bool idle() const { return state_.load() == State::kIdle; }

 private:
  Atomic<State> state_{State::kIdle};
};

template <typename Token>
struct MailboxState {
  Token token;
  MpscQueue<std::uint64_t, ModelAtomics> mailbox;
  std::array<Cell<std::uint64_t>, 2> payload;  ///< written before the push
  Cell<std::uint64_t> quantum_log{0};          ///< runner-only plain state
  Atomic<std::uint64_t> processed{0};
};

/// MnMachine::run_node for a token this thread holds (state kQueued):
/// drain the mailbox, then requeue if it still looks non-empty, else
/// retire; a flagged retire runs again.
template <typename Token>
void drain_quanta(MailboxState<Token>& st) {
  st.token.begin_quantum();
  for (;;) {
    st.quantum_log.set(st.quantum_log.get() + 1);
    while (auto v = st.mailbox.pop()) {
      MC_ASSERT(*v < 2, "run_token_mailbox: popped value out of range");
      MC_ASSERT(st.payload[*v].get() == 7 + *v,
                "run_token_mailbox: packet payload lost");
      st.processed.fetch_add(1, std::memory_order_relaxed);
    }
    if (!st.mailbox.empty()) {  // run_node's `more`
      st.token.requeue();
    } else if (!st.token.retire_or_requeue()) {
      return;
    }
    st.token.begin_quantum();
  }
}

template <typename Token, std::uint64_t kSenders>
void mailbox_scenario(Sim& sim) {
  auto st = std::make_shared<MailboxState<Token>>();
  st->token.publish();  // Idle→Queued: the runner's token, queued first

  sim.thread([st] { drain_quanta(*st); });
  for (std::uint64_t i = 0; i < kSenders; ++i) {
    sim.thread([st, i] {  // post_and_schedule: push, then publish
      st->payload[i].set(7 + i);
      st->mailbox.push(i);
      if (st->token.publish()) drain_quanta(*st);
    });
  }

  sim.finish([st] {
    MC_ASSERT(st->processed.load() == kSenders,
              "run_token_mailbox: packet stranded behind an idle token");
    MC_ASSERT(st->token.idle(), "run_token_mailbox: token leaked (not idle)");
    MC_ASSERT(st->mailbox.empty(), "run_token_mailbox: mailbox not empty");
  });
}

const Register reg{Scenario{
    .name = "run_token_exclusive",
    .description = "run-token cell: 2 senders with inline runners; exactly "
                   "one quantum at a time, no stranded unit, race-free "
                   "owner handoff of plain node state",
    .body = run_token_exclusive,
    .expect_violation = false,
    .preemption_bound = 3,
    .max_executions = 600000,
    .max_steps = 20000,
}};

const Register reg_mailbox{Scenario{
    .name = "run_token_mailbox",
    .description = "run-token cell composed with the real MPSC mailbox: a "
                   "sender's push + publish against a queued runner's "
                   "drain, empty() and retire; no packet stranded",
    .body = mailbox_scenario<am::RunTokenCell<ModelAtomics>, 1>,
    .expect_violation = false,
    .preemption_bound = 3,
    .max_executions = 600000,
    .max_steps = 20000,
}};

const Register reg_mailbox_load_only{Scenario{
    .name = "run_token_mailbox_load_only",
    .description = "regression: publish() that only loads a pending token; "
                   "the checker must find the packet stranded behind an "
                   "idle token",
    .body = mailbox_scenario<PlainStoreCell<false>, 1>,
    .expect_violation = true,
    .preemption_bound = 3,
    .max_executions = 600000,
    .max_steps = 20000,
}};

const Register reg_mailbox_two{Scenario{
    .name = "run_token_mailbox_two_senders",
    .description = "run_token_mailbox with a second sender that rewrites "
                   "the first one's flag; no packet stranded",
    .body = mailbox_scenario<am::RunTokenCell<ModelAtomics>, 2>,
    .expect_violation = false,
    .preemption_bound = 3,
    .max_executions = 600000,
    .max_steps = 20000,
}};

const Register reg_mailbox_plain_requeue{Scenario{
    .name = "run_token_mailbox_plain_requeue",
    .description = "regression: an RMW publish() but plain kQueued stores "
                   "in requeue() and a flagged retire; the checker must "
                   "find the second packet stranded",
    .body = mailbox_scenario<PlainStoreCell<true>, 2>,
    .expect_violation = true,
    .preemption_bound = 3,
    .max_executions = 600000,
    .max_steps = 20000,
}};

}  // namespace
}  // namespace hal::mc

// Scenarios: the park/wake handshake (am/park_handshake.hpp) around a
// Vyukov MPSC inbox — the general form of the protocol, whose producers
// push before they claim. MnMachine::park runs the same loop with a wake
// generation as its predicate (park_thief_claim's thief).
//
// park_wakeup is the canonical shape: the consumer re-arms before EVERY
// predicate evaluation; a producer that claims the wake takes the mutex
// before notifying. The model condition variable never wakes spuriously
// and never drops a notify sent to a waiter, so the only way the consumer
// can sleep forever is a genuine protocol lost wakeup — which the checker
// reports as a deadlock. The interesting interleaving is PR 8's: one
// producer's push is paused between its head_ exchange and the next-link
// store, making the other producer's completed push transiently
// unreachable; the consumer wakes, sees a genuinely empty-looking queue,
// and must re-arm before waiting again or the paused producer's eventual
// claim_wake() reads false and nobody ever notifies.
//
// park_lost_wakeup_pr8 is the regression twin: the pre-fix shape that
// arms ONCE before the wait loop. expect_violation — hal-mc must find the
// lost-wakeup deadlock (two queued units, consumer parked forever).
//
// park_thief_claim adds MnMachine's thief wake (maybe_wake_thief) to the
// same flag: the parked worker's predicate also fires on a bumped wake
// generation, and the thief claims the flag before it bumps and notifies.
// A claim hides the armed flag from every later waker — including the
// queue producer, whose wake is the one correctness needs — so whoever
// claims must notify. park_thief_claim_no_notify is its twin: the thief
// claims and bumps but skips the notify; hal-mc must find the consumer
// parked forever over a queued unit.
#include <array>
#include <cstdint>
#include <memory>
#include <mutex>

#include "am/park_handshake.hpp"
#include "common/mpsc_queue.hpp"
#include "mc/atomic.hpp"
#include "mc/explore.hpp"
#include "mc/sync.hpp"

namespace hal::mc {
namespace {

struct ParkState {
  MpscQueue<std::uint64_t, ModelAtomics> q;
  am::ParkHandshake<ModelAtomics> hs;
  Mutex mx;
  CondVar cv;
  std::array<Cell<std::uint64_t>, 2> payload;
  Cell<std::uint64_t> wake_gen{0};  // guarded by mx; bumped by the thief
};

void producer(const std::shared_ptr<ParkState>& st, std::uint64_t i) {
  st->payload[i].set(500 + i);
  st->q.push(i);
  if (st->hs.claim_wake()) {
    // The lock is what keeps this notify from landing between the
    // consumer's predicate check and its wait (am/park_handshake.hpp).
    st->mx.lock();
    st->mx.unlock();
    st->cv.notify_one();
  }
}

void consumer(const std::shared_ptr<ParkState>& st, bool rearm_each_pass) {
  int received = 0;
  for (int attempt = 0; attempt < 10 && received < 2; ++attempt) {
    if (auto v = st->q.pop()) {
      MC_ASSERT(*v < 2, "park: popped value out of range");
      MC_ASSERT(st->payload[*v].get() == 500 + *v,
                "park: payload does not match its unit");
      ++received;
      continue;
    }
    std::unique_lock<Mutex> lk(st->mx);
    if (!rearm_each_pass) st->hs.arm();  // the PR 8 pre-fix bug
    for (;;) {
      if (rearm_each_pass) st->hs.arm();
      if (!st->q.empty()) break;
      st->cv.wait(lk);
    }
    lk.unlock();
    st->hs.disarm();
  }
  MC_ASSERT(received == 2, "park: queued unit never delivered");
}

void thief_waker(const std::shared_ptr<ParkState>& st, bool notify) {
  if (st->hs.claim_wake()) {
    st->mx.lock();
    st->wake_gen.set(st->wake_gen.get() + 1);
    st->mx.unlock();
    if (notify) st->cv.notify_one();
  }
}

void gen_consumer(const std::shared_ptr<ParkState>& st) {
  int received = 0;
  for (int attempt = 0; attempt < 10 && received < 2; ++attempt) {
    if (auto v = st->q.pop()) {
      MC_ASSERT(*v < 2, "park: popped value out of range");
      MC_ASSERT(st->payload[*v].get() == 500 + *v,
                "park: payload does not match its unit");
      ++received;
      continue;
    }
    // MnMachine::worker_loop: snapshot the generation, then park on it.
    st->mx.lock();
    const std::uint64_t gen = st->wake_gen.get();
    st->mx.unlock();
    std::unique_lock<Mutex> lk(st->mx);
    for (;;) {
      st->hs.arm();
      if (!st->q.empty() || st->wake_gen.get() != gen) break;
      st->cv.wait(lk);
    }
    lk.unlock();
    st->hs.disarm();
  }
  MC_ASSERT(received == 2, "park: queued unit never delivered");
}

void park_thief_claim(Sim& sim) {
  auto st = std::make_shared<ParkState>();
  sim.thread([st] { producer(st, 0); });
  sim.thread([st] { producer(st, 1); });
  sim.thread([st] { thief_waker(st, /*notify=*/true); });
  sim.thread([st] { gen_consumer(st); });
}

void park_thief_claim_no_notify(Sim& sim) {
  auto st = std::make_shared<ParkState>();
  sim.thread([st] { producer(st, 0); });
  sim.thread([st] { producer(st, 1); });
  sim.thread([st] { thief_waker(st, /*notify=*/false); });
  sim.thread([st] { gen_consumer(st); });
}

void park_wakeup(Sim& sim) {
  auto st = std::make_shared<ParkState>();
  sim.thread([st] { producer(st, 0); });
  sim.thread([st] { producer(st, 1); });
  sim.thread([st] { consumer(st, /*rearm_each_pass=*/true); });
}

void park_lost_wakeup_pr8(Sim& sim) {
  auto st = std::make_shared<ParkState>();
  sim.thread([st] { producer(st, 0); });
  sim.thread([st] { producer(st, 1); });
  sim.thread([st] { consumer(st, /*rearm_each_pass=*/false); });
}

const Register reg_wakeup{Scenario{
    .name = "park_wakeup",
    .description = "park/wake handshake, production shape (arm before every "
                   "predicate evaluation): no lost wakeup, payloads race-free",
    .body = park_wakeup,
    .expect_violation = false,
    .preemption_bound = 2,
    .max_executions = 600000,
    .max_steps = 20000,
}};

const Register reg_pr8{Scenario{
    .name = "park_lost_wakeup_pr8",
    .description = "regression: the pre-fix park loop that arms once; the "
                   "checker must find the PR 8 lost-wakeup deadlock",
    .body = park_lost_wakeup_pr8,
    .expect_violation = true,
    .preemption_bound = 2,
    .max_executions = 600000,
    .max_steps = 20000,
}};

const Register reg_thief{Scenario{
    .name = "park_thief_claim",
    .description = "queue wake and claimed thief wake on one park flag: "
                   "whoever claims notifies, so no lost wakeup",
    .body = park_thief_claim,
    .expect_violation = false,
    .preemption_bound = 2,
    .max_executions = 600000,
    .max_steps = 20000,
}};

const Register reg_thief_no_notify{Scenario{
    .name = "park_thief_claim_no_notify",
    .description = "regression: a thief that claims the flag but skips the "
                   "notify; the checker must find the consumer parked over "
                   "a queued unit",
    .body = park_thief_claim_no_notify,
    .expect_violation = true,
    .preemption_bound = 2,
    .max_executions = 600000,
    .max_steps = 20000,
}};

}  // namespace
}  // namespace hal::mc

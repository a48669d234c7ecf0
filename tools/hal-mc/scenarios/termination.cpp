// Scenario: the double-scan quiescence detector (common/termination.hpp).
//
// Two participants exchange a request / reply / follow-up / done chain
// through Vyukov MPSC mailboxes, following the detector's usage contract:
// note_sent(who) before the push, note_handled(who) after the handler, and
// activate()/deactivate() around every busy period, each participant on
// its own shard. Participant 0 holds an external work token across the
// first round trip, so check()'s `extra` probe is exercised too.
//
// Checked properties:
//   * a kQuiescent verdict is never premature: once any participant sees
//     it, no unit may be handled afterwards (asserted in the handler
//     against a seq_cst flag), and at the end of the execution
//     sent == handled with the token count at zero;
//   * kStalled never fires here — the token is always released while its
//     holder is active, so a stable snapshot with tokens outstanding would
//     be a detector bug;
//   * conservation: handled never exceeds sent.
//
// The regression term_single_collect runs the deferred-send scenario with
// check() minus its second collect, and must find the premature verdict.
//
// The detector's correctness proof leans on the seq_cst total order S of
// the epoch bumps and shard scans (termination.hpp header). Under the
// checker's S-as-execution-order approximation the counters always read
// current once seq_cst, so the matching mutants attack the OTHER half of
// those orders: the release/acquire edges that make quiescence an
// ownership transfer. Downgrading deactivate() (release half) or the
// shard scan (acquire half) leaves the verdict's values intact but breaks
// the happens-before to the idle participant's plain state — caught as a
// data race on the declarer's teardown reads.
#include <array>
#include <cstdint>
#include <memory>

#include "common/termination.hpp"
#include "mc/atomic.hpp"
#include "mc/explore.hpp"
#include "mc/sync.hpp"

#include "common/mpsc_queue.hpp"

namespace hal::mc {
namespace {

constexpr std::uint64_t kReq = 1;    // p0 -> p1, opens the conversation
constexpr std::uint64_t kReply = 2;  // p1 -> p0, releases p0's token
constexpr std::uint64_t kReq2 = 3;   // p0 -> p1, follow-up round
constexpr std::uint64_t kDone = 4;   // p1 -> p0, deferred local send

struct TermState {
  using Det = BasicTerminationDetector<ModelAtomics>;
  Det det{2};
  std::array<MpscQueue<std::uint64_t, ModelAtomics>, 2> q;
  Atomic<std::uint64_t> tokens{0};    ///< external work tokens (check extra)
  Atomic<std::uint64_t> quiesced{0};  ///< set once kQuiescent is declared
  // Plain per-participant state. A participant writes its own cells; the
  // thread that declares kQuiescent reads everyone's (the "teardown" read
  // below) — race-free only through the detector's release/acquire edges.
  std::array<Cell<std::uint64_t>, 2> handled_count;
  std::array<Cell<std::uint64_t>, 2> idle_stats;
  // Single-writer records, read by the post-run hook.
  std::array<bool, 2> quiescent_seen{};
};

using Verdict = TermState::Det::Verdict;

/// check() without its second collect: nothing then bounds the window the
/// scans lie in, so a unit sent after the collect by a participant that
/// goes idle before scan A slips past both scans.
template <typename ExtraFn>
Verdict single_collect_check(const TermState::Det& det, ExtraFn&& extra) {
  const std::uint64_t h1 = det.handled();
  const std::uint64_t s1 = det.sent();
  if (h1 != s1) return Verdict::kBusy;
  if (!det.all_idle()) return Verdict::kBusy;
  const std::uint64_t e = extra();
  if (!det.all_idle()) return Verdict::kBusy;
  return e == 0 ? Verdict::kQuiescent : Verdict::kStalled;
}

void participant(const std::shared_ptr<TermState>& st, std::uint32_t who,
                 bool recollect = true) {
  auto& inbox = st->q[who];
  auto& outbox = st->q[who ^ 1u];
  bool active = true;  // constructed active
  bool got_req2 = false;
  bool sent_done = false;
  for (int poll = 0; poll < 4; ++poll) {
    if (!active) {
      // A participant only wakes because a unit was published to it.
      if (inbox.empty()) continue;
      st->det.activate(who);
      active = true;
    }
    while (auto u = inbox.pop()) {
      MC_ASSERT(st->quiesced.load() == 0,
                "termination: unit handled after quiescence was declared");
      if (*u == kReq) {
        st->det.note_sent(who);
        outbox.push(kReply);
      } else if (*u == kReply) {
        st->tokens.fetch_sub(1, std::memory_order_relaxed);
        st->det.note_sent(who);
        outbox.push(kReq2);
      } else if (*u == kReq2) {
        got_req2 = true;
      }  // kDone: nothing to do
      st->handled_count[who].set(st->handled_count[who].get() + 1);
      st->det.note_handled(who);
    }
    if (got_req2 && !sent_done) {
      // Deferred local work: an active participant may send spontaneously
      // after its last note_handled — exactly the window the shard scan
      // (not the counters) has to catch.
      sent_done = true;
      st->det.note_sent(who);
      outbox.push(kDone);
    }
    // Flush plain bookkeeping before going idle: deactivate()'s release
    // half is what publishes it to whichever thread declares quiescence.
    st->idle_stats[who].set(st->handled_count[who].get());
    st->det.deactivate(who);
    active = false;
    const auto tokens = [st] {
      return st->tokens.load(std::memory_order_relaxed);
    };
    const Verdict v = recollect ? st->det.check(tokens)
                                : single_collect_check(st->det, tokens);
    MC_ASSERT(v != Verdict::kStalled,
              "termination: kStalled verdict with no real token deadlock");
    if (v == Verdict::kQuiescent) {
      st->quiesced.store(1);
      // Quiescence transfers ownership of every participant's plain state
      // to the declaring thread (exactly what executor teardown relies
      // on). These reads are race-free only through note_handled's and
      // deactivate's release halves and the shard scan's acquire half —
      // the edges the termination mutants downgrade.
      const std::uint64_t done =
          st->handled_count[0].get() + st->handled_count[1].get();
      const std::uint64_t flushed =
          st->idle_stats[0].get() + st->idle_stats[1].get();
      MC_ASSERT(done == st->det.handled(),
                "termination: declared-quiescent handled counts disagree");
      MC_ASSERT(flushed == done,
                "termination: a participant went idle without flushing");
      st->quiescent_seen[who] = true;
      return;
    }
  }
}

void termination_quiescence(Sim& sim) {
  auto st = std::make_shared<TermState>();

  sim.thread([st] {  // participant 0: opens with kReq, holds a token
    st->tokens.fetch_add(1, std::memory_order_relaxed);
    st->det.note_sent(0);
    st->q[1].push(kReq);
    participant(st, 0);
  });
  sim.thread([st] { participant(st, 1); });

  sim.finish([st] {
    MC_ASSERT(st->det.handled() <= st->det.sent(),
              "termination: conservation violated (handled > sent)");
    if (st->quiescent_seen[0] || st->quiescent_seen[1]) {
      MC_ASSERT(st->det.sent() == st->det.handled(),
                "termination: quiescence declared with a unit in flight");
      MC_ASSERT(st->tokens.load(std::memory_order_relaxed) == 0,
                "termination: quiescence declared with tokens outstanding");
    }
  });
}

// Minimal deferred-send scenario: p0 publishes a single kReq2 directly,
// and p1 answers with a deferred kDone after its last note_handled(), so
// p1's final plain writes (idle_stats flush) are published to the eventual
// declarer p0 ONLY via deactivate()'s release acquired by the shard scan —
// the inbox pop covers p1's history just up to the kDone push. This is the
// scenario the deactivate()/all_idle() mutants run against.
void deferred_body(Sim& sim, bool recollect) {
  auto st = std::make_shared<TermState>();

  // p0: hands p1 a unit that triggers a deferred send.
  sim.thread([st, recollect] {
    st->det.note_sent(0);
    st->q[1].push(kReq2);
    participant(st, 0, recollect);
  });
  sim.thread([st, recollect] { participant(st, 1, recollect); });

  sim.finish([st] {
    MC_ASSERT(st->det.handled() <= st->det.sent(),
              "termination: conservation violated (handled > sent)");
    if (st->quiescent_seen[0] || st->quiescent_seen[1]) {
      MC_ASSERT(st->det.sent() == st->det.handled(),
                "termination: quiescence declared with a unit in flight");
    }
  });
}

void termination_deferred(Sim& sim) { deferred_body(sim, true); }

void term_single_collect(Sim& sim) { deferred_body(sim, false); }

const Register reg_deferred{Scenario{
    .name = "termination_deferred",
    .description = "deferred-send window: a participant re-activates and "
                   "still owes a send while its counters are balanced; only "
                   "the shard scan can catch it",
    .body = termination_deferred,
    .expect_violation = false,
    .preemption_bound = 3,
    .max_executions = 600000,
    .max_steps = 20000,
}};

const Register reg_single_collect{Scenario{
    .name = "term_single_collect",
    .description = "regression: check() without its second collect; the "
                   "checker must find kQuiescent declared while p1's "
                   "deferred unit is still in flight",
    .body = term_single_collect,
    .expect_violation = true,
    .preemption_bound = 3,
    .max_executions = 600000,
    .max_steps = 20000,
}};

const Register reg{Scenario{
    .name = "termination_quiescence",
    .description = "double-scan quiescence detector: 2 participants, "
                   "request/reply rounds + a deferred send; kQuiescent is "
                   "never premature, kStalled never fires",
    .body = termination_quiescence,
    .expect_violation = false,
    // Bound 3 is the floor at which the full request/reply conversation —
    // and with it a genuine kQuiescent verdict — is reachable at all; at 2
    // the quiescence assertions would be vacuously green.
    .preemption_bound = 3,
    .max_executions = 600000,
    .max_steps = 20000,
}};

}  // namespace
}  // namespace hal::mc

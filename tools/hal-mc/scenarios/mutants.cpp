// The mutation matrix: every memory order that hal-lint HL007 pins on the
// five protocol cores, downgraded one step and named with the scenario
// that must then report a violation. `hal-mc --mutants` runs each row and
// fails unless the downgraded order is actually caught — this is the
// "sufficient, not just unchanged" half of the memory-order story
// (docs/model-checking.md): HL007 proves the orders didn't drift, the
// matrix proves the checker would notice if they ever became too weak.
//
// Site keys: a mutation matches an access by exact op name, a substring
// of the enclosing function's signature, the basename of the file the
// call site lives in, and the original order. Keys use the "::name" form
// so e.g. "::arm" cannot match disarm() and "::pop" (mpsc_queue.hpp)
// cannot match pop_bottom() (ws_deque.hpp — different file).
#include "mc/explore.hpp"

namespace hal::mc {

const std::vector<MutantDef>& mutants() {
  static const std::vector<MutantDef> m = {
      // --- MPSC queue (mpsc_queue.hpp) --------------------------------
      {"mpsc_push_link_relaxed",
       {"mpsc_queue.hpp", "::push", "store", order::kRelease,
        order::kRelaxed},
       "mpsc_two_producers",
       "pop reads the node without the producer's payload write: data "
       "race on the element's Cell"},
      {"mpsc_push_swing_release",
       {"mpsc_queue.hpp", "::push", "exchange", order::kAcqRel,
        order::kRelease},
       "mpsc_two_producers",
       "producer B links into producer A's node without acquiring its "
       "construction: init race on the node's next cell"},
      {"mpsc_pop_next_relaxed",
       {"mpsc_queue.hpp", "::pop", "load", order::kAcquire,
        order::kRelaxed},
       "mpsc_two_producers",
       "consumer takes the element without the push's release edge: data "
       "race on the element's Cell"},
      // --- Chase-Lev deque (ws_deque.hpp) -----------------------------
      // Note: the deque's seq_cst-vs-seq_cst store-buffering orders
      // (pop_bottom's bottom store, steal_top's top/bottom loads) are NOT
      // in this table. Their counterexample (Le et al.'s C11 Chase-Lev
      // bug) needs an sc access ordered in S before an earlier-executed sc
      // access, and the checker approximates S as the execution order —
      // see "Documented strengthenings" in docs/model-checking.md.
      {"ws_push_bottom_publish_relaxed",
       {"ws_deque.hpp", "::push_bottom", "store", order::kRelease,
        order::kRelaxed},
       "ws_deque_publish",
       "the thief sees the new bottom without the buffer/payload writes: "
       "data race on the item's Cell"},
      // --- termination detector (termination.hpp) ---------------------
      // Note: note_sent()/note_handled()/activate() downgrades are NOT in
      // this table. Under the usage contract each is re-protected by a
      // genuine release/acquire chain (every send and handle precedes the
      // participant's next seq_cst deactivate, whose release the scan
      // acquires; every activation precedes the handle the balancing
      // counter read acquires), so no contract-following scenario can
      // observe them — and their residual necessity is SB-class, outside
      // the model's S approximation (docs/model-checking.md).
      {"term_deactivate_relaxed",
       {"termination.hpp", "::deactivate", "fetch_sub", order::kSeqCst,
        order::kRelaxed},
       "termination_deferred",
       "going idle no longer releases the participant's final writes: the "
       "quiescence declarer's teardown read races with the idle flush"},
      {"term_scan_relaxed",
       {"termination.hpp", "::all_idle", "load", order::kSeqCst,
        order::kRelaxed},
       "termination_deferred",
       "the scan reads the idle shard without acquiring the deactivate: "
       "the declarer's teardown read races with the idle flush"},
      // --- run-token cell (run_token.hpp) -----------------------------
      // The new runner acquires through its own winning publish() RMW in
      // run_token_exclusive, so only a runner whose token was queued by
      // someone else (run_token_mailbox) exposes this downgrade.
      {"token_begin_quantum_release",
       {"run_token.hpp", "::begin_quantum", "exchange", order::kSeqCst,
        order::kRelease},
       "run_token_mailbox",
       "the queued runner starts its quantum without acquiring the "
       "sender's publish: its drain misses the pushed packet and retire "
       "strands it behind an idle token"},
      {"token_retire_acquire",
       {"run_token.hpp", "::retire_or_requeue", "compare_exchange_strong",
        order::kSeqCst, order::kAcquire},
       "run_token_exclusive",
       "the retiring runner's quantum writes are not released through the "
       "cell: the next owner races on the node's plain state"},
      // --- park handshake (park_handshake.hpp) ------------------------
      {"park_claim_wake_relaxed",
       {"park_handshake.hpp", "::claim_wake", "exchange", order::kSeqCst,
        order::kRelaxed},
       "park_wakeup",
       "the producer's claim no longer publishes its push through the "
       "flag chain: the consumer re-arms, still sees empty, parks "
       "forever (lost wakeup deadlock)"},
      {"park_arm_release",
       {"park_handshake.hpp", "::arm", "exchange", order::kSeqCst,
        order::kRelease},
       "park_wakeup",
       "arm loses its acquire half: the consumer's predicate misses the "
       "pushed unit behind the producer's claim and parks forever"},
  };
  return m;
}

}  // namespace hal::mc

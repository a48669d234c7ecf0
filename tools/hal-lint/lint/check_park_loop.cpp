// HL006 hal-park-loop-protocol: wait loops that take part in the seq_cst
// RMW wakeup handshake must re-arm the park flag before EVERY predicate
// evaluation, not once before the first wait.
//
// The contract is the lost-wakeup fix in the MPSC park loops (proof in
// am/park_handshake.hpp): the Vyukov MPSC queue's empty() can read true
// over a COMPLETED push while another producer's push is half-finished, so
// a sleeper that re-checks "empty" after a wakeup without re-arming
// `sleeping` races the gap-closing producer — that producer reads the flag
// false, skips its notify, and the sleeper parks over a live packet
// forever. Mechanically:
//
//   * every cv wait reachable in a function that touches a park flag
//     (HAL_PARK_FLAG, or an atomic member named `sleeping`) must sit inside
//     a loop whose body re-arms the flag with `exchange(true, seq_cst)`
//     before the wait;
//   * an arm that exists only ahead of the loop is the exact PR 8 bug
//     shape and gets its own message;
//   * the flag is written only through seq_cst exchanges — a plain store
//     (or assignment) does not take part in the RMW chain the proof needs,
//     and a weaker order breaks the single total order it leans on;
//   * the loop must disarm (`exchange(false, seq_cst)`) after exit, so
//     senders stop paying the mutex+notify once the node is awake;
//   * predicate-form waits (`cv.wait(lk, pred)`) are rejected on park-flag
//     paths: the hidden predicate re-evaluations cannot re-arm.
#include <set>
#include <string>

#include "lint/checks.hpp"
#include "lint/protocol_util.hpp"

namespace hal::lint {

namespace {

constexpr const char* kId = "hal-park-loop-protocol";

std::set<std::string, std::less<>> park_flag_names(const Model& model) {
  std::set<std::string, std::less<>> out;
  for (const ClassDecl& c : model.classes()) {
    for (const MemberVar& m : c.members) {
      if (m.park_flag ||
          m.type_text.find("ParkHandshake") != std::string::npos ||
          (m.name == "sleeping" &&
           m.type_text.find("atomic") != std::string::npos)) {
        out.insert(m.name);
      }
    }
  }
  return out;
}

struct Arm {
  std::size_t tok = 0;
  std::uint32_t line = 0;
  std::uint32_t col = 0;
  std::string_view flag;
  bool value = false;     // exchange(true, ...) vs exchange(false, ...)
  bool seq_cst = true;    // explicit or defaulted seq_cst order
};

bool is_wait_name(std::string_view callee) {
  return callee == "wait" || callee == "wait_for" || callee == "wait_until";
}

}  // namespace

void run_park_loop(CheckContext& ctx) {
  const Model& model = ctx.model();
  const auto flags = park_flag_names(model);
  if (flags.empty()) return;
  for (const FunctionDecl& fn : model.functions()) {
    const std::vector<Token>& t = fn.file->tokens();
    // Only functions that touch a park flag are on the handshake path.
    bool touches = false;
    for (std::size_t i = fn.body_begin + 1; i < fn.body_end && !touches;
         ++i) {
      if (t[i].kind == Tok::Identifier && flags.count(t[i].text) != 0) {
        touches = true;
      }
    }
    if (!touches) continue;

    // Classify every exchange on a park flag, and forbid plain writes.
    std::vector<Arm> arms;
    for (const CallSite& c : fn.calls) {
      const std::string_view recv = proto::receiver_object(t, c.tok);
      if (recv.empty() || flags.count(recv) == 0) continue;
      if (c.callee == "store") {
        ctx.report(*fn.file, c.line, c.col, kId,
                   "park flag '" + std::string(recv) +
                       "' written with store(); the wakeup handshake is an "
                       "RMW chain — use exchange(..., seq_cst)");
        continue;
      }
      // The ParkHandshake wrapper's named operations are seq_cst exchanges
      // by construction (am/park_handshake.hpp, pinned there by HL007):
      // arm() raises, disarm()/claim_wake() lower.
      if (c.callee == "arm" || c.callee == "disarm" ||
          c.callee == "claim_wake") {
        Arm a;
        a.tok = c.tok;
        a.line = c.line;
        a.col = c.col;
        a.flag = recv;
        a.value = c.callee == "arm";
        a.seq_cst = true;
        arms.push_back(a);
        continue;
      }
      if (c.callee != "exchange" || c.lparen == 0) continue;
      Arm a;
      a.tok = c.tok;
      a.line = c.line;
      a.col = c.col;
      a.flag = recv;
      a.value = t[c.lparen + 1].text == "true";
      const auto orders = proto::order_args(t, c.lparen, fn.body_end);
      a.seq_cst = orders.empty() || orders[0] == "seq_cst";
      if (!a.seq_cst) {
        ctx.report(*fn.file, c.line, c.col, kId,
                   "park flag '" + std::string(recv) + "' exchange uses " +
                       "memory_order_" + std::string(orders[0]) +
                       "; the handshake proof needs the seq_cst RMW chain");
      }
      arms.push_back(a);
    }
    // Plain assignment to a park flag (atomic operator= is a seq_cst store,
    // still not an RMW).
    for (std::size_t i = fn.body_begin + 1; i + 1 < fn.body_end; ++i) {
      if (t[i].kind == Tok::Identifier && flags.count(t[i].text) != 0 &&
          t[i + 1].text == "=") {
        ctx.report(*fn.file, t[i].line, t[i].col, kId,
                   "park flag '" + std::string(t[i].text) +
                       "' assigned directly; the wakeup handshake is an RMW "
                       "chain — use exchange(..., seq_cst)");
      }
    }

    // Wait sites: condition_variable waits on this handshake path.
    const auto loops = proto::braced_loops(t, fn);
    std::set<std::size_t> loops_checked;
    for (const CallSite& c : fn.calls) {
      if (!is_wait_name(c.callee)) continue;
      const std::string_view recv = proto::receiver_object(t, c.tok);
      if (recv.find("cv") == std::string_view::npos) continue;
      // Predicate-form waits re-evaluate the predicate inside the library:
      // no chance to re-arm between evaluations.
      const std::size_t args = proto::count_args(t, c.lparen, fn.body_end);
      const std::size_t plain_args = c.callee == "wait" ? 1 : 2;
      if (args > plain_args) {
        ctx.report(*fn.file, c.line, c.col, kId,
                   "predicate-form " + std::string(c.callee) +
                       " on a park-flag path: the hidden predicate "
                       "re-evaluations cannot re-arm the flag; use an "
                       "explicit loop");
        continue;
      }
      const proto::LoopRange* loop = proto::innermost_loop(loops, c.tok);
      if (loop == nullptr) {
        ctx.report(*fn.file, c.line, c.col, kId,
                   "cv wait on a park-flag path outside a loop: the flag "
                   "cannot be re-armed before each predicate evaluation");
        continue;
      }
      if (!loops_checked.insert(loop->body_begin).second) continue;
      // The loop must re-arm before the (first) wait it contains.
      std::size_t first_wait = c.tok;
      for (const CallSite& w : fn.calls) {
        if (is_wait_name(w.callee) && w.tok > loop->body_begin &&
            w.tok < first_wait) {
          first_wait = w.tok;
        }
      }
      bool armed_in_loop = false;
      bool armed_before_loop = false;
      for (const Arm& a : arms) {
        if (!a.value) continue;
        if (a.tok > loop->body_begin && a.tok < first_wait) {
          armed_in_loop = true;
        }
        if (a.tok < loop->body_begin) armed_before_loop = true;
      }
      if (!armed_in_loop) {
        if (armed_before_loop) {
          ctx.report(
              *fn.file, c.line, c.col, kId,
              "park flag armed only before the loop: a wakeup that reads "
              "the queue transiently empty re-parks with the flag down and "
              "the gap-closing producer skips its notify (the PR 8 "
              "lost-wakeup); re-arm with exchange(true, seq_cst) inside "
              "the loop before each predicate evaluation");
        } else {
          ctx.report(*fn.file, c.line, c.col, kId,
                     "park loop never arms the park flag; re-arm with "
                     "exchange(true, seq_cst) inside the loop before each "
                     "predicate evaluation");
        }
      }
      // After the loop the flag must be lowered again (senders shortcut the
      // mutex+notify while it is down).
      bool disarmed_after = false;
      for (const Arm& a : arms) {
        if (!a.value && a.seq_cst && a.tok > loop->body_end) {
          disarmed_after = true;
        }
      }
      if (!disarmed_after) {
        ctx.report(*fn.file, t[loop->body_end].line, t[loop->body_end].col,
                   kId,
                   "park loop does not disarm the flag after exit; add "
                   "exchange(false, seq_cst) so awake nodes stop charging "
                   "senders the mutex+notify");
      }
    }
  }
}

}  // namespace hal::lint

// HL009 hal-epoch-conservation: every path that makes a packet visible on
// an epoch-counted channel must bump the sent epoch first, and every path
// that takes one off must account for it.
//
// Termination detection (TerminationDetector, docs/termination.md) is a
// conservation law: `sent - handled == in flight`, with note_sent ordered
// BEFORE the packet becomes visible and note_handled AFTER it is fully
// processed. A single delivery path that forgets its bump — a retransmit
// arm, an ack fast-path, a frame decode loop — silently un-balances the
// books and quiescence is declared over live traffic (or never at all).
//
// Channels opt in with HAL_EPOCH_COUNTED on the member (MnMachine's
// per-worker run-token deques and its mailboxes). Per function the check
// resolves reference aliases (`MpscQueue<Packet>& q = *mailboxes_[n];`),
// then demands:
//
//   * push / push_bottom on a counted channel: a note_sent earlier in the
//     function, or an earlier take from a counted channel (a transfer
//     re-publishes an already-counted packet). A note_sent only AFTER the
//     push is its own bug shape: the packet is visible while the books
//     still balance, so a racing all_idle() misfires.
//   * pop / pop_bottom / steal_top: a later note_handled, a later
//     re-publish onto a counted channel, or the popped value escaping via
//     return (the caller owns the accounting, e.g. next_runnable handing
//     the slot to run_node).
#include <set>
#include <string>

#include "lint/checks.hpp"
#include "lint/protocol_util.hpp"

namespace hal::lint {

namespace {

constexpr const char* kId = "hal-epoch-conservation";

bool is_push_op(std::string_view callee) {
  return callee == "push" || callee == "push_bottom";
}

bool is_pop_op(std::string_view callee) {
  return callee == "pop" || callee == "pop_bottom" ||
         callee == "steal_top";
}

std::set<std::string, std::less<>> epoch_member_names(const Model& model) {
  std::set<std::string, std::less<>> out;
  for (const ClassDecl& c : model.classes()) {
    for (const MemberVar& m : c.members) {
      if (m.epoch_counted) out.insert(m.name);
    }
  }
  return out;
}

/// Start of the receiver chain of a member call: walks back from the
/// callee over `.`/`->`, subscripts and the receiver identifier, e.g. for
/// `mailboxes_[dst]->push` returns the index of `mailboxes_`.
std::size_t chain_start(const std::vector<Token>& t, std::size_t callee_tok) {
  std::size_t j = callee_tok;
  while (j >= 2 && (t[j - 1].text == "." || t[j - 1].text == "->")) {
    j -= 2;
    if (t[j].text == "]") {
      int depth = 0;
      while (j > 0) {
        if (t[j].text == "]") ++depth;
        if (t[j].text == "[" && --depth == 0) break;
        --j;
      }
      if (j > 0) --j;
    }
  }
  return j;
}

}  // namespace

void run_epoch_conservation(CheckContext& ctx) {
  const Model& model = ctx.model();
  const auto counted = epoch_member_names(model);
  if (counted.empty()) return;

  for (const FunctionDecl& fn : model.functions()) {
    const std::vector<Token>& t = fn.file->tokens();

    // Reference aliases bound from a counted member anywhere in the
    // initializer: `MpscQueue<Packet>& q = *mailboxes_[node];`.
    std::set<std::string_view> names(counted.begin(), counted.end());
    for (std::size_t i = fn.body_begin + 1; i + 1 < fn.body_end; ++i) {
      if (t[i].kind != Tok::Identifier || t[i + 1].text != "=") continue;
      if (i == 0 || t[i - 1].text != "&") continue;
      bool from_counted = false;
      for (std::size_t j = i + 2; j < fn.body_end && t[j].text != ";"; ++j) {
        if (t[j].kind == Tok::Identifier && counted.count(t[j].text) != 0) {
          from_counted = true;
        }
      }
      if (from_counted) names.insert(t[i].text);
    }

    struct Site {
      const CallSite* cs = nullptr;
      bool push = false;
    };
    std::vector<Site> sites;
    std::vector<std::size_t> sent_toks;
    std::vector<std::size_t> handled_toks;
    for (const CallSite& cs : fn.calls) {
      if (cs.callee == "note_sent") sent_toks.push_back(cs.tok);
      if (cs.callee == "note_handled") handled_toks.push_back(cs.tok);
      if (!is_push_op(cs.callee) && !is_pop_op(cs.callee)) continue;
      const std::string_view recv = proto::receiver_object(t, cs.tok);
      if (recv.empty() || names.count(recv) == 0) continue;
      sites.push_back(Site{&cs, is_push_op(cs.callee)});
    }
    if (sites.empty()) continue;

    for (const Site& s : sites) {
      const CallSite& cs = *s.cs;
      const std::string_view recv = proto::receiver_object(t, cs.tok);
      if (s.push) {
        bool sent_before = false;
        bool sent_after = false;
        for (std::size_t st : sent_toks) {
          (st < cs.tok ? sent_before : sent_after) = true;
        }
        bool transfer = false;
        for (const Site& o : sites) {
          if (!o.push && o.cs->tok < cs.tok) transfer = true;
        }
        if (sent_before || transfer) continue;
        if (sent_after) {
          ctx.report(*fn.file, cs.line, cs.col, kId,
                     "sent epoch bumped only AFTER the packet is visible "
                     "on '" + std::string(recv) +
                         "'; a racing all_idle() between the publish and "
                         "the bump sees balanced epochs over an in-flight "
                         "message — call note_sent before the push");
        } else {
          ctx.report(*fn.file, cs.line, cs.col, kId,
                     "packet made visible on epoch-counted channel '" +
                         std::string(recv) +
                         "' without bumping the sent epoch (note_sent); "
                         "termination detection can declare quiescence "
                         "over this in-flight message");
        }
      } else {
        bool handled_after = false;
        for (std::size_t ht : handled_toks) {
          if (ht > cs.tok) handled_after = true;
        }
        bool transfer = false;
        for (const Site& o : sites) {
          if (o.push && o.cs->tok > cs.tok) transfer = true;
        }
        if (handled_after || transfer) continue;
        // The popped value may escape to an accounting caller: either the
        // call itself sits in a return, or the variable it binds is
        // returned later in the function.
        const std::size_t start = chain_start(t, cs.tok);
        bool escapes = start > 0 && t[start - 1].text == "return";
        std::string_view var;
        if (!escapes && start >= 2 &&
            (t[start - 1].text == "=" ||
             (t[start - 1].text == "*" && start >= 3 &&
              t[start - 2].text == "="))) {
          const std::size_t eq = t[start - 1].text == "=" ? start - 1
                                                          : start - 2;
          if (t[eq - 1].kind == Tok::Identifier) var = t[eq - 1].text;
        }
        if (!escapes && !var.empty()) {
          for (std::size_t i = cs.tok; i < fn.body_end && !escapes; ++i) {
            if (t[i].kind != Tok::Identifier || t[i].text != "return") {
              continue;
            }
            for (std::size_t j = i + 1;
                 j < fn.body_end && t[j].text != ";"; ++j) {
              if (t[j].kind == Tok::Identifier && t[j].text == var) {
                escapes = true;
              }
            }
          }
        }
        if (!escapes) {
          ctx.report(*fn.file, cs.line, cs.col, kId,
                     "packet taken from epoch-counted channel '" +
                         std::string(recv) +
                         "' on a path that neither bumps the handled "
                         "epoch (note_handled), re-publishes it, nor "
                         "returns it to an accounting caller");
        }
      }
    }
  }
}

}  // namespace hal::lint

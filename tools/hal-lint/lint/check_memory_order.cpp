// HL007 hal-memory-order-policy: per-protocol-struct memory-order policy.
//
// Each lock-free protocol in the tree carries a HAL_MEMORY_PROTOCOL("name")
// marker binding the class to a policy table in this file. The table is the
// reviewed ordering contract: which member / atomic-op / function triples
// are allowed at which memory orders, which load-store pairs a function
// MUST contain (so deleting or downgrading the publication edge is caught
// even though the weaker order would still "parse"), and which relaxed
// loads feeding control decisions are deliberate advisory reads.
//
// Enforced per marked class:
//   * every atomic op on a listed member must match an allow rule — a
//     relaxed-ified fetch_add, an acquire'd CAS, or a downgraded store is a
//     policy breach, not a style choice;
//   * require rules assert the protocol's load-acquire/store-release (or
//     seq_cst) edges still exist in the named functions;
//   * explicitly-relaxed loads inside if/while conditions are flagged
//     unless the (member, function) pair is advisory-listed — advisory
//     reads may skip work, never skip correctness;
//   * atomic_thread_fence is rejected: these protocols encode ordering in
//     the access orders (TSan models them; it does not model fences), so a
//     fence is a silent divergence from the checked model;
//   * single_writer protocols (FrameBuilder deadlines) must stay free of
//     atomics — adding one papers over an execution-stream-affinity breach;
//   * drift is two-way: a marker naming an unknown policy and a policy
//     class that lost its marker are both errors.
#include <set>
#include <string>

#include "lint/checks.hpp"
#include "lint/protocol_util.hpp"

namespace hal::lint {

namespace {

constexpr const char* kId = "hal-memory-order-policy";

using Orders = std::vector<std::string_view>;

struct OpRule {
  std::string_view member;
  std::string_view op;
  std::string_view func;  ///< "" = any member function
  Orders orders;          ///< accepted (success) orders
};

struct ReqRule {
  std::string_view func;
  std::string_view member;
  std::string_view op;
  Orders orders;
};

struct Advisory {
  std::string_view member;
  std::string_view func;
};

struct Policy {
  std::string_view name;  ///< HAL_MEMORY_PROTOCOL argument
  std::string_view cls;   ///< class carrying the marker
  bool single_writer = false;
  std::vector<OpRule> allow;
  std::vector<ReqRule> require;
  std::vector<Advisory> advisory;
};

const std::vector<Policy>& policies() {
  static const std::vector<Policy> p = {
      // Vyukov MPSC: push publishes with head exchange (acq_rel) + next
      // store (release); consumers read next with acquire.
      {"mpsc_queue",
       "MpscQueue",
       false,
       {
           {"head_", "exchange", "push", {"acq_rel", "seq_cst"}},
           {"head_", "store", "MpscQueue", {"relaxed"}},
           {"next", "store", "push", {"release", "seq_cst"}},
           {"next", "load", "pop", {"acquire", "seq_cst"}},
           {"next", "load", "empty", {"acquire", "seq_cst"}},
       },
       {
           {"push", "head_", "exchange", {"acq_rel", "seq_cst"}},
           {"push", "next", "store", {"release", "seq_cst"}},
           {"pop", "next", "load", {"acquire", "seq_cst"}},
           {"empty", "next", "load", {"acquire", "seq_cst"}},
       },
       {}},
      // Chase-Lev deque, TSan-modeled variant: the classic fences are
      // expressed as seq_cst accesses; owner-side restores may relax.
      {"ws_deque",
       "WsDeque",
       false,
       {
           {"top_", "load", "", {"acquire", "seq_cst"}},
           {"top_", "compare_exchange_strong", "", {"seq_cst"}},
           {"bottom_", "load", "", {"relaxed", "acquire", "seq_cst"}},
           {"bottom_", "store", "", {"relaxed", "release", "seq_cst"}},
           {"buffer_", "load", "", {"relaxed"}},
           {"buffer_", "store", "", {"relaxed"}},
       },
       {
           {"push_bottom", "bottom_", "store", {"release", "seq_cst"}},
           {"push_bottom", "top_", "load", {"acquire", "seq_cst"}},
           {"pop_bottom", "bottom_", "store", {"seq_cst"}},
           {"pop_bottom", "top_", "load", {"seq_cst"}},
           {"pop_bottom", "top_", "compare_exchange_strong", {"seq_cst"}},
           {"steal_top", "top_", "load", {"seq_cst"}},
           {"steal_top", "bottom_", "load", {"seq_cst"}},
           {"steal_top", "top_", "compare_exchange_strong", {"seq_cst"}},
       },
       {}},
      // Termination epochs: the whole point is the seq_cst total order
      // between the shards' epoch bumps and the detector's reads; only the
      // ctor's pre-publication init may relax.
      {"termination_epochs",
       "BasicTerminationDetector",
       false,
       {
           {"sent", "fetch_add", "", {"seq_cst"}},
           {"sent", "load", "", {"seq_cst"}},
           {"handled", "fetch_add", "", {"seq_cst"}},
           {"handled", "load", "", {"seq_cst"}},
           {"active", "fetch_add", "BasicTerminationDetector", {"relaxed",
                                                                "seq_cst"}},
           {"active", "fetch_add", "activate", {"seq_cst"}},
           {"active", "fetch_sub", "deactivate", {"seq_cst"}},
           {"active", "load", "", {"seq_cst"}},
       },
       {
           {"note_sent", "sent", "fetch_add", {"seq_cst"}},
           {"note_handled", "handled", "fetch_add", {"seq_cst"}},
       },
       {}},
      // Run tokens (am/run_token.hpp): the per-node Idle/Queued/Running/
      // RunningNotified cell is an all-seq_cst RMW protocol — every write is
      // an RMW, so each sender's publish heads a release sequence the next
      // runner acquires (no plain store may break it), and the RMWs carry
      // the happens-before chain between successive token owners.
      {"run_tokens",
       "RunTokenCell",
       false,
       {
           {"state_", "load", "", {"seq_cst"}},
           {"state_", "exchange", "", {"seq_cst"}},
           {"state_", "compare_exchange_weak", "", {"seq_cst"}},
           {"state_", "compare_exchange_strong", "", {"seq_cst"}},
       },
       {
           {"publish", "state_", "compare_exchange_weak", {"seq_cst"}},
           {"begin_quantum", "state_", "exchange", {"seq_cst"}},
           {"retire_or_requeue", "state_", "compare_exchange_strong",
            {"seq_cst"}},
       },
       {}},
      // 1:1 park handshake (am/park_handshake.hpp): the flag is ONLY ever
      // touched through seq_cst exchanges (the HL006 RMW chain), plus the
      // explicitly-advisory relaxed peek for thief wakes.
      {"park_handshake",
       "ParkHandshake",
       false,
       {
           {"flag_", "exchange", "", {"seq_cst"}},
           {"flag_", "load", "armed_hint", {"relaxed"}},
       },
       {
           {"arm", "flag_", "exchange", {"seq_cst"}},
           {"claim_wake", "flag_", "exchange", {"seq_cst"}},
           {"disarm", "flag_", "exchange", {"seq_cst"}},
       },
       {}},
      // M:N scheduler fabric (the run-token and park protocols now live in
      // their extracted cells above): the wake epoch is a seq_cst bump read
      // with acquire (relaxed only in its diagnostic accessor); sleeper and
      // searcher bookkeeping is relaxed-advisory — the searcher cap is a
      // CAS against a relaxed count, and maybe_wake_thief may skip a wake on
      // a stale read because the token's owner runs it anyway. Steal counts
      // live in each worker's record, written by that worker alone. The
      // deadline hint next_due_ is written under the deadline table's mutex
      // and read without it only to time a park or skip the lock: relaxed.
      {"mn_scheduler",
       "MnMachine",
       false,
       {
           {"searchers_", "load", "search", {"relaxed"}},
           {"searchers_", "compare_exchange_weak", "search", {"relaxed"}},
           {"searchers_", "fetch_sub", "search", {"relaxed"}},
           {"searchers_", "load", "maybe_wake_thief", {"relaxed"}},
           {"sleepers_", "fetch_add", "", {"relaxed"}},
           {"sleepers_", "fetch_sub", "", {"relaxed"}},
           {"sleepers_", "load", "maybe_wake_thief", {"relaxed"}},
           {"wake_epoch_", "fetch_add", "", {"seq_cst"}},
           {"wake_epoch_", "load", "", {"acquire", "seq_cst"}},
           {"wake_epoch_", "load", "wake_epoch", {"relaxed"}},
           {"next_due_", "load", "", {"relaxed"}},
           {"next_due_", "store", "", {"relaxed"}},
       },
       {
           {"wake_hook", "wake_epoch_", "fetch_add", {"seq_cst"}},
       },
       {
           {"searchers_", "maybe_wake_thief"},
           {"sleepers_", "maybe_wake_thief"},
           {"next_due_", "publish_due"},
           {"next_due_", "fire_due"},
       }},
      // FrameBuilder deadlines: plain fields, safety by execution-stream
      // affinity. No atomics allowed at all.
      {"frame_deadlines", "FrameBuilder", true, {}, {}, {}},
  };
  return p;
}

const Policy* find_policy(std::string_view name) {
  for (const Policy& p : policies()) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

bool order_in(std::string_view order, const Orders& allowed) {
  for (std::string_view o : allowed) {
    if (o == order) return true;
  }
  return false;
}

bool in_any_range(const std::vector<proto::LoopRange>& rs, std::size_t tok) {
  for (const proto::LoopRange& r : rs) {
    if (r.body_begin < tok && tok < r.body_end) return true;
  }
  return false;
}

bool advisory_exempt(const Policy& p, std::string_view member,
                     std::string_view func) {
  for (const Advisory& a : p.advisory) {
    if (a.member == member && a.func == func) return true;
  }
  return false;
}

std::string orders_text(const Orders& orders) {
  std::string out;
  for (std::string_view o : orders) {
    if (!out.empty()) out += "/";
    out += o;
  }
  return out;
}

}  // namespace

void run_memory_order(CheckContext& ctx) {
  const Model& model = ctx.model();

  // Two-way drift between markers and the policy table.
  for (const ClassDecl& c : model.classes()) {
    if (c.protocol.empty()) continue;
    const Policy* p = find_policy(c.protocol);
    if (p == nullptr) {
      ctx.report(*c.file, c.protocol_line, 1, kId,
                 "HAL_MEMORY_PROTOCOL(\"" + c.protocol +
                     "\") names no policy; add a table entry in "
                     "check_memory_order.cpp or fix the marker");
    } else if (p->cls != c.name) {
      ctx.report(*c.file, c.protocol_line, 1, kId,
                 "protocol '" + c.protocol + "' is the policy for class '" +
                     std::string(p->cls) + "', but the marker is on '" +
                     c.name + "'");
    }
  }
  for (const Policy& pol : policies()) {
    const ClassDecl* c = model.find_class(pol.cls);
    if (c != nullptr && c->protocol.empty()) {
      ctx.report(*c->file, c->line, 1, kId,
                 "class '" + std::string(pol.cls) +
                     "' implements checked protocol '" +
                     std::string(pol.name) +
                     "' but lost its HAL_MEMORY_PROTOCOL marker");
    }
  }

  for (const Policy& pol : policies()) {
    const ClassDecl* c = model.find_class(pol.cls);
    if (c == nullptr || c->protocol != pol.name) continue;

    if (pol.single_writer) {
      for (const MemberVar& m : c->members) {
        if (m.type_text.find("atomic") != std::string::npos) {
          ctx.report(*c->file, m.line, 1, kId,
                     "single-writer protocol '" + std::string(pol.name) +
                         "': member '" + m.name +
                         "' must not be atomic — safety comes from "
                         "execution-stream affinity, not ordering");
        }
      }
    }

    std::set<std::string_view> listed;
    for (const OpRule& r : pol.allow) listed.insert(r.member);

    for (const FunctionDecl& fn : model.functions()) {
      if (fn.class_name != pol.cls) continue;
      const std::vector<Token>& t = fn.file->tokens();
      const auto conds = proto::condition_ranges(t, fn);
      for (const CallSite& cs : fn.calls) {
        if (cs.callee == "atomic_thread_fence" ||
            cs.callee == "atomic_signal_fence") {
          ctx.report(*fn.file, cs.line, cs.col, kId,
                     "fence in protocol '" + std::string(pol.name) +
                         "': this protocol encodes ordering in access "
                         "orders (TSan-modeled); fences silently diverge "
                         "from the checked model");
          continue;
        }
        if (!proto::is_atomic_op(cs.callee)) continue;
        const auto orders = proto::order_args(t, cs.lparen, fn.body_end);
        if (pol.single_writer) {
          if (!orders.empty()) {
            ctx.report(*fn.file, cs.line, cs.col, kId,
                       "single-writer protocol '" + std::string(pol.name) +
                           "' must not use memory orders; atomics here "
                           "paper over an execution-stream-affinity breach");
          }
          continue;
        }
        const std::string_view recv = proto::receiver_object(t, cs.tok);
        if (recv.empty() || listed.count(recv) == 0) continue;
        const std::string_view order =
            orders.empty() ? std::string_view("seq_cst") : orders[0];
        bool allowed = false;
        for (const OpRule& r : pol.allow) {
          if (r.member != recv || r.op != cs.callee) continue;
          if (!r.func.empty() && r.func != fn.name) continue;
          if (order_in(order, r.orders)) {
            allowed = true;
            break;
          }
        }
        if (!allowed) {
          ctx.report(*fn.file, cs.line, cs.col, kId,
                     "protocol '" + std::string(pol.name) + "': " +
                         std::string(recv) + "." + std::string(cs.callee) +
                         "(" + std::string(order) + ") in " + fn.name +
                         " matches no allow rule in the policy table");
        }
        if (cs.callee == "load" && !orders.empty() &&
            orders[0] == "relaxed" && in_any_range(conds, cs.tok) &&
            !advisory_exempt(pol, recv, fn.name)) {
          ctx.report(*fn.file, cs.line, cs.col, kId,
                     "relaxed load of '" + std::string(recv) +
                         "' feeds a control decision in " + fn.name +
                         "; advisory reads must be allow-listed in the "
                         "policy table");
        }
      }
    }

    for (const ReqRule& r : pol.require) {
      for (const FunctionDecl& fn : model.functions()) {
        if (fn.class_name != pol.cls || fn.name != r.func) continue;
        const std::vector<Token>& t = fn.file->tokens();
        bool found = false;
        for (const CallSite& cs : fn.calls) {
          if (cs.callee != r.op) continue;
          if (proto::receiver_object(t, cs.tok) != r.member) continue;
          const auto orders = proto::order_args(t, cs.lparen, fn.body_end);
          const std::string_view order =
              orders.empty() ? std::string_view("seq_cst") : orders[0];
          if (order_in(order, r.orders)) {
            found = true;
            break;
          }
        }
        if (!found) {
          ctx.report(*fn.file, fn.line, 1, kId,
                     "protocol '" + std::string(pol.name) + "' requires " +
                         std::string(r.member) + "." + std::string(r.op) +
                         "(" + orders_text(r.orders) + ") in " + fn.name +
                         "; the ordering edge was deleted or downgraded");
        }
      }
    }
  }
}

}  // namespace hal::lint

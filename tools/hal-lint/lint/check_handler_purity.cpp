// HL001 hal-handler-purity.
//
// Contract: active-message handlers run to completion on the receiving
// node's execution stream with the network logically paused (the CMAM
// discipline the paper's message layer builds on). Every function
// reachable from an AM handler root must therefore avoid
//   - blocking primitives (sleeps, waits, mutexes, futures),
//   - global operator new (make_unique/make_shared/new; the fast path is
//     allocation-free at the margin, enforced by bench/msgpath_alloc),
//   - std::function construction (type-erased callables heap-allocate;
//     use hal::InlineFunction), and
//   - re-entering the executor (Machine::run from inside a handler).
//
// Roots are `handle` overrides of classes deriving from am::NodeClient.
// Reachability is a bare-name call closure over the scanned sources: a
// call resolves to every scanned function with the same bare name, which
// over-approximates in favour of finding violations. The closure stops at
// the transport boundary (MnMachine / SimMachine own their internal
// synchronisation), at baseline/ comparators and the lang/ interpreter
// (sanctioned slow paths), and does not traverse names too generic to
// resolve (kCommonVocabulary below).
//
// A HAL_LINT_SUPPRESS(hal-handler-purity) on a function's definition line
// exempts that function AND stops the closure there; the reason string
// must say why the subtree is sound.
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "lint/checks.hpp"

namespace hal::lint {
namespace {

bool in_set(std::string_view x, std::initializer_list<std::string_view> s) {
  for (const std::string_view v : s) {
    if (x == v) return true;
  }
  return false;
}

bool path_contains(const FunctionDecl& fn, std::string_view needle) {
  return fn.file->path().find(needle) != std::string::npos;
}

bool boundary_function(const FunctionDecl& fn) {
  if (in_set(fn.class_name, {"SimMachine", "MnMachine"})) {
    return true;
  }
  // baseline/ comparators are measured against HAL, not part of it;
  // lang/ is the toy-language front end — parsing and evaluation happen
  // before the program is handed to the kernel, never inside a handler.
  return path_contains(fn, "baseline/") || path_contains(fn, "baseline\\") ||
         path_contains(fn, "lang/") || path_contains(fn, "lang\\");
}

// Bare names too generic to resolve through: `size()` in a handler is a
// container query, not FrontEnd::size; traversing these drags unrelated
// classes into the closure and every finding becomes noise. Violations
// INSIDE such functions are still caught when a specific-named caller
// pulls their class in via another edge.
const std::initializer_list<std::string_view> kCommonVocabulary = {
    "size", "empty", "get",  "load",  "store", "data",  "begin", "end",
    "count", "clear", "fail", "reset", "value", "front", "back",  "at"};

const std::initializer_list<std::string_view> kBlockingCalls = {
    "sleep_for", "sleep_until", "wait_for", "wait_until",
    "get_future", "async"};

const std::initializer_list<std::string_view> kBlockingTypes = {
    "mutex", "timed_mutex", "recursive_mutex", "shared_mutex",
    "condition_variable", "condition_variable_any", "lock_guard",
    "unique_lock", "scoped_lock", "shared_lock", "promise"};

std::string chain_to(const std::vector<FunctionDecl>& fns,
                     const std::unordered_map<std::size_t, std::size_t>& par,
                     std::size_t idx) {
  std::vector<std::string> names;
  std::size_t cur = idx;
  for (int hop = 0; hop < 6; ++hop) {
    names.push_back(fns[cur].qualified);
    const auto it = par.find(cur);
    if (it == par.end() || it->second == cur) break;
    cur = it->second;
  }
  std::string out;
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    if (!out.empty()) out += " -> ";
    out += *it;
  }
  return out;
}

}  // namespace

void run_handler_purity(CheckContext& ctx) {
  const Model& model = ctx.model();
  const std::vector<FunctionDecl>& fns = model.functions();

  // Roots: `handle` overrides of NodeClient-derived classes.
  std::deque<std::size_t> queue;
  std::unordered_set<std::size_t> reached;
  std::unordered_map<std::size_t, std::size_t> parent;
  for (std::size_t i = 0; i < fns.size(); ++i) {
    if (fns[i].name != "handle") continue;
    const ClassDecl* cls = model.find_class(fns[i].class_name);
    if (cls == nullptr ||
        cls->bases.find("NodeClient") == std::string::npos) {
      continue;
    }
    queue.push_back(i);
    reached.insert(i);
    parent.emplace(i, i);
  }

  while (!queue.empty()) {
    const std::size_t i = queue.front();
    queue.pop_front();
    FunctionDecl const& fn = fns[i];
    SourceFile& file = *fn.file;
    if (file.is_suppressed("hal-handler-purity", fn.line)) {
      continue;  // exempt subtree; the suppression's reason documents it
    }

    // Direct violations in this function's body.
    for (const CallSite& c : fn.calls) {
      if (c.callee == "new" && c.qual != "placement") {
        ctx.report(file, c.line, c.col, "hal-handler-purity",
                   "operator new on the AM handler path (" +
                       chain_to(fns, parent, i) +
                       "); handlers must be allocation-free at the margin");
        continue;
      }
      if (in_set(c.callee, {"make_unique", "make_shared"})) {
        ctx.report(file, c.line, c.col, "hal-handler-purity",
                   std::string(c.callee) + " on the AM handler path (" +
                       chain_to(fns, parent, i) +
                       "); handlers must be allocation-free at the margin");
        continue;
      }
      if (in_set(c.callee, kBlockingCalls)) {
        ctx.report(file, c.line, c.col, "hal-handler-purity",
                   "blocking primitive '" + std::string(c.callee) +
                       "' on the AM handler path (" +
                       chain_to(fns, parent, i) + ")");
        continue;
      }
      if (c.callee == "run" &&
          (c.qual.find("machine") != std::string::npos ||
           c.qual.find("Machine") != std::string::npos)) {
        ctx.report(file, c.line, c.col, "hal-handler-purity",
                   "re-enters the active-message executor (Machine::run) "
                   "from a handler (" +
                       chain_to(fns, parent, i) + ")");
        continue;
      }
    }

    // Token-level violations: blocking types and std::function.
    const std::vector<Token>& t = file.tokens();
    for (std::size_t j = fn.body_begin + 1;
         j + 0 < fn.body_end && j < t.size(); ++j) {
      if (t[j].kind != Tok::Identifier) continue;
      const bool std_qualified =
          j >= 2 && t[j - 1].text == "::" && t[j - 2].text == "std";
      if (in_set(t[j].text, kBlockingTypes) && std_qualified) {
        ctx.report(file, t[j].line, t[j].col, "hal-handler-purity",
                   "blocking synchronisation type 'std::" +
                       std::string(t[j].text) +
                       "' on the AM handler path (" +
                       chain_to(fns, parent, i) + ")");
      }
      if (t[j].text == "function" && std_qualified &&
          j + 1 < fn.body_end && t[j + 1].text == "<") {
        ctx.report(file, t[j].line, t[j].col, "hal-handler-purity",
                   "std::function constructed on the AM handler path (" +
                       chain_to(fns, parent, i) +
                       "); use hal::InlineFunction");
      }
    }

    // Expand the closure.
    for (const CallSite& c : fn.calls) {
      if (c.qual.rfind("std::", 0) == 0) continue;  // std:: not traversed
      if (in_set(c.callee, kCommonVocabulary)) continue;
      for (const std::size_t next : model.functions_named(c.callee)) {
        if (reached.contains(next)) continue;
        if (boundary_function(fns[next])) continue;
        reached.insert(next);
        parent.emplace(next, i);
        queue.push_back(next);
      }
    }
  }
}

}  // namespace hal::lint

#include "check/check.hpp"

#if HAL_CHECK

#include <atomic>
#include <cstdio>

#include "common/assert.hpp"

namespace hal::check {

namespace {

void default_handler(const Violation& v) {
  std::fprintf(stderr,
               "hal::check: %s violation in %s (owner node %u, acting node "
               "%u, detail %llu/%llu)\n",
               violation_kind_name(v.kind), v.component, v.owner, v.actor_node,
               static_cast<unsigned long long>(v.detail0),
               static_cast<unsigned long long>(v.detail1));
  HAL_PANIC("hal::check invariant violation");
}

// Atomic so an MnMachine worker thread hitting a violation while the
// bootstrap thread swaps handlers (tests) is a race on the pointer only,
// not undefined behaviour.
std::atomic<ViolationHandler> g_handler{&default_handler};

}  // namespace

ViolationHandler set_violation_handler(ViolationHandler h) noexcept {
  return g_handler.exchange(h != nullptr ? h : &default_handler);
}

void fail(const Violation& v) { g_handler.load()(v); }

}  // namespace hal::check

#endif  // HAL_CHECK

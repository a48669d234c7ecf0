// hal::check — debug invariant checker core (level 2).
//
// HAL_CHECK gates every runtime probe in src/check/. When off (the default,
// and all release builds) the probe classes are empty, their methods are
// empty inline functions, and the whole layer compiles away — verified by
// the benchmark-parity criterion in CI (table3/table4 and the msgpath
// allocation census must not move). When on (-DHAL_CHECK=ON), violations of
// the runtime's ownership and protocol invariants are reported through a
// process-wide handler that panics by default; tests install a capturing
// handler to prove each checker fires.
#pragma once

#include <cstdint>

#include "common/types.hpp"

#ifndef HAL_CHECK
#define HAL_CHECK 0
#endif

namespace hal::check {

/// What kind of invariant was violated. Attribution beyond the kind rides
/// in Violation's fields (component name, expected/actual node, detail).
enum class ViolationKind : std::uint8_t {
  kNodeAffinity,         ///< per-node state touched from a foreign stream
  kDoubleRetire,         ///< buffer released into a pool that already holds it
  kUseAfterRetire,       ///< poison fill of an idle pooled buffer overwritten
  kBufferLeak,           ///< buffers still outstanding at shutdown accounting
  kEpochRegression,      ///< locality descriptor updated with an older epoch
  kFirChainOverflow,     ///< FIR forwarding chain longer than the node count
  kCreditUnderflow,      ///< bulk flow-control credit window went negative
  kCounterConservation,  ///< termination detector handled > sent
  kUnsafeReclaim,        ///< descriptor released while a node may reach it
};

inline const char* violation_kind_name(ViolationKind k) noexcept {
  switch (k) {
    case ViolationKind::kNodeAffinity: return "node-affinity";
    case ViolationKind::kDoubleRetire: return "double-retire";
    case ViolationKind::kUseAfterRetire: return "use-after-retire";
    case ViolationKind::kBufferLeak: return "buffer-leak";
    case ViolationKind::kEpochRegression: return "epoch-regression";
    case ViolationKind::kFirChainOverflow: return "fir-chain-overflow";
    case ViolationKind::kCreditUnderflow: return "credit-underflow";
    case ViolationKind::kCounterConservation: return "counter-conservation";
    case ViolationKind::kUnsafeReclaim: return "unsafe-reclaim";
  }
  return "unknown";
}

/// One reported invariant violation, with node/component attribution.
struct Violation {
  ViolationKind kind = ViolationKind::kNodeAffinity;
  const char* component = "";          ///< e.g. "BufferPool", "NameTable"
  NodeId owner = kInvalidNode;         ///< node that owns the violated state
  NodeId actor_node = kInvalidNode;    ///< node whose stream performed the act
  std::uint64_t detail0 = 0;           ///< kind-specific (e.g. held epoch)
  std::uint64_t detail1 = 0;           ///< kind-specific (e.g. update epoch)
};

#if HAL_CHECK

/// Handler invoked on every violation. The default aborts via hal::panic so
/// a violated invariant can never scroll past unnoticed; tests install a
/// recording handler and restore the default afterwards.
using ViolationHandler = void (*)(const Violation&);

/// Install `h` (nullptr restores the default panicking handler). Returns the
/// previous handler so scoped installs can nest.
ViolationHandler set_violation_handler(ViolationHandler h) noexcept;

/// Report a violation through the installed handler.
void fail(const Violation& v);

#else  // !HAL_CHECK — the entire reporting layer compiles away.

using ViolationHandler = void (*)(const Violation&);
inline ViolationHandler set_violation_handler(ViolationHandler) noexcept {
  return nullptr;
}
inline void fail(const Violation&) {}

#endif  // HAL_CHECK

}  // namespace hal::check

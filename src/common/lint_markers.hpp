// Protocol markers for hal-lint's whole-program concurrency checks.
//
// The runtime's lock-free protocols are correct for reasons that live in
// proof comments (am/park_handshake.hpp, MpscQueue::empty,
// termination.hpp); these markers bind the code to those arguments so
// hal-lint can enforce the load-bearing parts mechanically:
//
//   HAL_MEMORY_PROTOCOL("name")   class-body marker tying the class to the
//                                 memory-order policy table of the same name
//                                 in hal-lint (HL007, docs/linting.md). The
//                                 marker and the table entry must agree in
//                                 both directions — deleting either is a
//                                 lint error, so the policy cannot silently
//                                 rot away from the code.
//   HAL_PARK_FLAG                 member attribute on a park/sleep flag that
//                                 takes part in the seq_cst RMW wakeup
//                                 handshake. Every wait loop touching such a
//                                 flag must re-arm it with a seq_cst
//                                 exchange before each predicate evaluation
//                                 (HL006 — the PR 8 lost-wakeup shape).
//   HAL_EPOCH_COUNTED             member attribute on a queue whose traffic
//                                 is counted by the termination detector:
//                                 every push must be preceded by note_sent
//                                 and every pop balanced by note_handled or
//                                 a hand-off (HL009).
//
// All three expand to nothing the compiler cares about; they exist for the
// token-level extractor in tools/hal-lint/lint/model.cpp.
#pragma once

#define HAL_MEMORY_PROTOCOL(name) \
  static_assert(true, "hal-lint memory protocol: " name)

#define HAL_PARK_FLAG

#define HAL_EPOCH_COUNTED

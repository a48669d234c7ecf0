// Protocol-state auditors (hal::check level 2).
//
// Four distributed-protocol invariants from the paper's runtime design,
// each checkable locally at a single node:
//
//  * Locality-descriptor epochs are monotone (§4 migration): a descriptor is
//    only ever overwritten with an equal-or-newer epoch. Monotone epochs are
//    what make FIR chases acyclic, so a regression is a protocol bug even if
//    nothing visibly breaks. Enforced by NameTable::update via
//    audit_epoch_monotone.
//
//  * FIR forwarding chains stay acyclic (§4.3). A chase may legitimately
//    revisit a node — the actor can migrate back while being chased — but
//    every revisit requires an intervening migration (an epoch advance), so
//    the hop count never exceeds node count + the highest descriptor epoch
//    seen along the chain. NodeManager threads the hop counter and the
//    max-epoch watermark through the spare packet words and audits the
//    bound at each relay: a chain whose length grows while its epoch
//    watermark stalls is a forwarding cycle.
//
//  * The bulk flow-control credit window never goes negative (§5: "one
//    active inbound transfer" — a window of exactly one credit). BulkChannel
//    embeds a CreditWindowAuditor; grants spend the credit, completions
//    refund it.
//
//  * A dead actor's birthplace descriptor is released only when no other
//    node can hold location information for it (§4.1; the reclamation
//    rule of docs/PROTOCOLS.md §1). Kernel audits each release via
//    audit_descriptor_reclaim: the descriptor must still name a local
//    actor at epoch 0, with no FIR outstanding and nothing parked,
//    awaiting registration or relaying under the address.
//
// The termination sent/handled conservation check lives directly in
// common/termination.hpp (it needs the detector's atomics) and reports
// through the same fail() channel.
#pragma once

#include <cstdint>

#include "check/affinity.hpp"
#include "check/check.hpp"
#include "common/types.hpp"

namespace hal::check {

/// NameTable::update is about to overwrite a descriptor holding epoch
/// `held` with one carrying epoch `next`. Regression = violation.
inline void audit_epoch_monotone([[maybe_unused]] NodeId owner,
                                 [[maybe_unused]] std::uint32_t held,
                                 [[maybe_unused]] std::uint32_t next) {
#if HAL_CHECK
  if (next < held) {
    fail(Violation{ViolationKind::kEpochRegression, "NameTable", owner,
                   current_node(), held, next});
  }
#endif
}

/// A FIR is about to be relayed with `hops` total relays behind it while
/// `max_epoch` is the highest descriptor epoch any node on the chain held.
/// A chain can visit at most node_count distinct nodes plus one revisit per
/// migration the actor has performed, so a longer chain proves a forwarding
/// cycle: it grew without the actor moving.
inline void audit_fir_chain([[maybe_unused]] NodeId owner,
                            [[maybe_unused]] std::uint64_t hops,
                            [[maybe_unused]] std::uint64_t node_count,
                            [[maybe_unused]] std::uint64_t max_epoch) {
#if HAL_CHECK
  if (hops > node_count + max_epoch) {
    fail(Violation{ViolationKind::kFirChainOverflow, "NodeManager", owner,
                   current_node(), hops, node_count + max_epoch});
  }
#endif
}

// Why audit_descriptor_reclaim objected, as bits of Violation::detail1.
/// The descriptor forwards: the actor moved.
inline constexpr std::uint64_t kReclaimNotLocal = 1;
/// Epoch != 0: other nodes may hold forward state for the actor.
inline constexpr std::uint64_t kReclaimMigrated = 2;
/// An FIR for the address is outstanding here.
inline constexpr std::uint64_t kReclaimFirPending = 4;
/// Work is parked, awaited or relayed under the address.
inline constexpr std::uint64_t kReclaimWaitingWork = 8;

/// Kernel is about to release the descriptor of a dead actor; `local`,
/// `epoch` and `fir_outstanding` are the descriptor's, `waiting_work` is
/// NodeManager::has_waiting_work for the address. Any hazard means some
/// node may still be led to the descriptor, which a release would turn
/// into a dangling name. detail0 carries the epoch, detail1 the hazards.
inline void audit_descriptor_reclaim([[maybe_unused]] NodeId owner,
                                     [[maybe_unused]] bool local,
                                     [[maybe_unused]] std::uint32_t epoch,
                                     [[maybe_unused]] bool fir_outstanding,
                                     [[maybe_unused]] bool waiting_work) {
#if HAL_CHECK
  const std::uint64_t hazards = (local ? 0 : kReclaimNotLocal) |
                                (epoch == 0 ? 0 : kReclaimMigrated) |
                                (fir_outstanding ? kReclaimFirPending : 0) |
                                (waiting_work ? kReclaimWaitingWork : 0);
  if (hazards != 0) {
    fail(Violation{ViolationKind::kUnsafeReclaim, "Kernel", owner,
                   current_node(), epoch, hazards});
  }
#endif
}

/// Audits the bulk channel's "one active inbound transfer" window: grants
/// spend the single credit, completions refund it. A negative balance means
/// a grant was issued while another transfer was still assembling — exactly
/// the overlap the flow-control stall queue exists to prevent. Inert when
/// flow control is disabled (the ablation legitimately overlaps transfers)
/// and in HAL_CHECK=0 builds.
class CreditWindowAuditor {
 public:
  void configure([[maybe_unused]] NodeId owner,
                 [[maybe_unused]] bool flow_control) noexcept {
#if HAL_CHECK
    owner_ = owner;
    armed_ = flow_control;
    credits_ = 1;
#endif
  }

  void note_grant() noexcept {
#if HAL_CHECK
    if (!armed_) return;
    --credits_;
    if (credits_ < 0) {
      fail(Violation{ViolationKind::kCreditUnderflow, "BulkChannel", owner_,
                     current_node(), static_cast<std::uint64_t>(-credits_),
                     0});
    }
#endif
  }

  void note_complete() noexcept {
#if HAL_CHECK
    if (!armed_) return;
    ++credits_;
#endif
  }

#if HAL_CHECK
 private:
  NodeId owner_ = kInvalidNode;
  std::int64_t credits_ = 1;
  bool armed_ = false;
#endif
};

}  // namespace hal::check

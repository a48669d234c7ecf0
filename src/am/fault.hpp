// Fault-injection configuration for the active-message wire (ROADMAP item 3).
//
// The paper's runtime rides the CM-5 data network, which delivers every
// packet exactly once and in order; Halcyon's machines inherited that
// assumption wholesale. `FaultConfig` makes the wire adversarial on demand:
// a seeded, per-source-node random stream decides — at transmission time —
// whether each packet is dropped, duplicated, or delayed (delay on a FIFO
// wire is what produces reordering). Under `SimMachine` the draws consume
// the event-loop's deterministic schedule, so a given seed reproduces the
// same fault pattern byte-for-byte; under `MnMachine` the same knobs
// give a statistical soak (delay is scrubbed there — real queues already
// reorder across nodes, and a wall-clock sleep would only slow the soak).
//
// Enabling faults also enables the reliable-link layer (`LinkEndpoint`):
// sequence numbers, cumulative acks, retransmission, and duplicate
// suppression. Disabled (the default) the wire is bypassed entirely — no
// sequencing, no clones, no extra branches on the zero-allocation fast
// path beyond one predictable test.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace hal::am {

struct FaultConfig {
  /// Master switch. When false every other knob is ignored and packets
  /// take the historical direct path (exactly-once, in-order).
  bool enabled = false;

  /// Per-transmission probability of silently dropping the packet.
  double drop = 0.0;
  /// Per-transmission probability of delivering the packet twice.
  double duplicate = 0.0;
  /// Per-copy probability of adding `delay_ns` of extra wire latency
  /// (SimMachine only). Delaying one packet past its successors is how
  /// reordering arises on an otherwise-FIFO wire.
  double delay = 0.0;
  /// Extra latency applied when a delay fires.
  SimTime delay_ns = 20'000;

  /// Deterministically drop the first N data transmissions on every
  /// directed channel, before any probabilistic draw. Lets regression
  /// tests target a *specific* loss ("the final quiescence-carrying
  /// message") instead of fishing for a seed.
  std::uint32_t drop_first = 0;

  /// Seed for the injector's random streams. 0 means "derive from the
  /// runtime seed" (RuntimeConfig::seed); each source node then gets an
  /// independent stream so MnMachine draws need no locking.
  std::uint64_t seed = 0;

  /// Retransmission timeout. 0 picks a machine-appropriate default
  /// (a few round-trips of virtual time under Sim, ~2 ms wall under
  /// Mn). Backoff doubles per retry, capped at 32x.
  SimTime rto_ns = 0;

  /// Retries per packet before the link declares the channel wedged and
  /// panics — a liveness backstop, not a recovery policy.
  std::uint32_t max_retries = 64;

  /// True when any knob can actually perturb a packet.
  [[nodiscard]] bool any_faults() const noexcept {
    return drop > 0.0 || duplicate > 0.0 || delay > 0.0 || drop_first > 0;
  }

  /// All probabilities inside [0, 1].
  [[nodiscard]] bool probabilities_valid() const noexcept {
    const auto ok = [](double p) { return p >= 0.0 && p <= 1.0; };
    return ok(drop) && ok(duplicate) && ok(delay);
  }
};

}  // namespace hal::am

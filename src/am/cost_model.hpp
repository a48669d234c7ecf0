// Virtual-time cost model for the simulated machine.
//
// The paper evaluates on a CM-5: 33 MHz Sparc nodes (~30 ns/cycle) with a
// network interface supporting CMAM active messages. SimMachine charges these
// costs so that the primitive-operation table (paper Table 2) and the
// application scaling tables *emerge* from the same protocol code that runs
// under the wall-clock machine. The cm5() calibration targets the two numbers
// the paper states exactly — alias-based remote-creation initiation 5.83 µs
// vs. 20.83 µs actual, locality check ≤ 1 µs — plus published CM-5 CMAM
// figures (one-way latency a few µs, ~10 MB/s per-node bulk bandwidth).
#pragma once

#include "common/types.hpp"

namespace hal::am {

struct CostModel {
  // --- Network / active message layer -----------------------------------
  SimTime wire_latency_ns = 2000;    ///< NI-to-NI transit time
  SimTime packet_inject_ns = 2000;   ///< sender-side injection overhead
  SimTime per_word_ns = 300;         ///< per argument word injected
  SimTime handler_entry_ns = 900;    ///< receiver-side handler dispatch
  SimTime payload_byte_ns = 100;     ///< per payload byte (≈10 MB/s)

  // --- Runtime kernel primitives -----------------------------------------
  SimTime actor_alloc_ns = 2500;       ///< allocate + initialize an actor
  SimTime descriptor_alloc_ns = 1200;  ///< allocate a locality descriptor
  SimTime name_lookup_ns = 800;        ///< hash lookup in the name table
  SimTime name_insert_ns = 900;        ///< insert into the name table
  SimTime locality_check_ns = 500;     ///< cached-descriptor locality check
  SimTime enqueue_ns = 600;            ///< mailbox/ready-queue enqueue
  SimTime dispatch_ns = 1100;          ///< generic method dispatch
  SimTime static_dispatch_ns = 150;    ///< compiler fast path (≈ a call)
  SimTime become_ns = 300;             ///< behaviour replacement
  SimTime join_alloc_ns = 800;         ///< allocate a join continuation
  SimTime join_fill_ns = 200;          ///< fill one continuation slot
  SimTime schedule_ns = 500;           ///< dispatcher hand-off (no ctx switch)
  SimTime constraint_check_ns = 200;   ///< evaluate a disabling condition

  // --- Application compute ------------------------------------------------
  /// Cost of one floating-point operation. A 33 MHz Sparc sustains roughly
  /// 5-10 MFlops on tuned block kernels (the paper's matmul peaks at
  /// 434 MFlops on 64 nodes ≈ 6.8 MFlops/node), so ~150 ns/flop.
  double flop_ns = 150.0;
  /// Cost of a unit of non-numeric user work (integer op, pointer chase).
  double work_ns = 60.0;

  /// Calibrated to the paper's CM-5 numbers (see above).
  static CostModel cm5() { return CostModel{}; }

  /// Network of workstations with a fast interconnect — the platform the
  /// paper's conclusions point at [Anderson et al. 95; von Eicken et al.
  /// 95: Active Messages over ATM]. Same processors, but an order of
  /// magnitude more latency and less bandwidth than the CM-5's NI.
  static CostModel now() {
    CostModel m{};
    m.wire_latency_ns = 25000;   // ~25 µs one-way over ATM
    m.packet_inject_ns = 6000;
    m.per_word_ns = 400;
    m.handler_entry_ns = 3000;
    m.payload_byte_ns = 250;     // ≈4 MB/s per stream
    return m;
  }

  /// Zero costs: pure-logic tests where virtual time is irrelevant.
  static CostModel zero() {
    CostModel m{};
    m.wire_latency_ns = m.packet_inject_ns = m.per_word_ns = 0;
    m.handler_entry_ns = m.payload_byte_ns = 0;
    m.actor_alloc_ns = m.descriptor_alloc_ns = 0;
    m.name_lookup_ns = m.name_insert_ns = m.locality_check_ns = 0;
    m.enqueue_ns = m.dispatch_ns = m.static_dispatch_ns = m.become_ns = 0;
    m.join_alloc_ns = m.join_fill_ns = m.schedule_ns = 0;
    m.constraint_check_ns = 0;
    m.flop_ns = 0.0;
    m.work_ns = 0.0;
    return m;
  }
};

}  // namespace hal::am

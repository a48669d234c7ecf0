// Probe identifiers for the observability layer.
//
// Each probe names one runtime primitive whose latency (or size) the paper's
// evaluation cares about: Tables 1-5 are built from µs-level measurements of
// message delivery, FIR resolution, migration and bulk transfer. A probe is
// charged in virtual ns under SimMachine and wall ns under MnMachine, so
// the two executors produce comparable distributions.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace hal::obs {

/// Probe identifiers; keep in sync with kProbeNames / kProbeUnits.
enum class Probe : std::uint32_t {
  kRemoteDelivery,    ///< packet injection -> receiver handler entry
  kFirRoundTrip,      ///< FIR sent -> response received (§4.3 chase)
  kMigration,         ///< pack started -> actor reinstalled at target
  kBulkTransfer,      ///< bulk REQUEST sent -> data delivered (§6.5)
  kBulkFlowStall,     ///< REQUEST held in the flow-control grant queue
  kStealRoundTrip,    ///< steal poll sent -> deny or stolen actor arrival
  kPendingResidency,  ///< message parked on a disabled method (§6.1)
  kMailboxResidency,  ///< mailbox enqueue -> dispatch
  kMethodExecution,   ///< one method body, including stolen handler cycles
  kJoinRoundTrip,     ///< join continuation created -> counter hit zero
  kBroadcastRelay,    ///< broadcast injection -> MST relay handler entry
  kDispatchBatch,     ///< items drained per dispatcher busy period (items)
  kRedelivery,        ///< first send -> delivery of a retransmitted packet
  kFrameFill,         ///< records per coalesced wire frame at close (msgs)
  kCount,
};

inline constexpr std::size_t kProbeCount =
    static_cast<std::size_t>(Probe::kCount);

/// Stable JSON key per probe; suffix echoes the unit.
inline constexpr std::array<std::string_view, kProbeCount> kProbeNames = {
    "remote_delivery_ns", "fir_round_trip_ns",    "migration_ns",
    "bulk_transfer_ns",   "bulk_flow_stall_ns",   "steal_round_trip_ns",
    "pending_residency_ns", "mailbox_residency_ns", "method_execution_ns",
    "join_round_trip_ns", "broadcast_relay_ns",   "dispatch_batch_items",
    "redelivery_ns",      "frame_fill_msgs",
};

inline constexpr std::array<std::string_view, kProbeCount> kProbeUnits = {
    "ns", "ns", "ns", "ns", "ns", "ns", "ns", "ns", "ns", "ns", "ns",
    "items", "ns", "msgs",
};

}  // namespace hal::obs

// Runtime configuration and its validation.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "am/cost_model.hpp"
#include "am/fault.hpp"
#include "am/wire_batch.hpp"
#include "common/types.hpp"

namespace hal {

enum class MachineKind : std::uint8_t {
  kSim,  ///< deterministic virtual-time simulator (default)
  kMn,   ///< M nodes multiplexed onto N worker threads (work-stealing)
};

/// Canonical machine names: the strings RunReport::machine carries, the
/// HAL_MACHINE env knob parses, and docs/machines.md documents. Keep the two
/// functions below inverse to each other.
constexpr std::string_view to_string(MachineKind kind) noexcept {
  switch (kind) {
    case MachineKind::kSim:
      return "sim";
    case MachineKind::kMn:
      return "mn";
  }
  return "unknown";
}

/// Parse a machine name ("sim" | "mn"); nullopt on anything else.
constexpr std::optional<MachineKind> parse_machine_kind(
    std::string_view name) noexcept {
  if (name == "sim") return MachineKind::kSim;
  if (name == "mn") return MachineKind::kMn;
  return std::nullopt;
}

/// Why a RuntimeConfig was rejected (ConfigError::code()).
enum class ConfigErrorCode : std::uint8_t {
  kZeroNodes,          ///< nodes == 0: nothing to boot
  kTooManyNodes,       ///< node id does not fit the 16-bit wire encoding
  kStackDepthTooLarge, ///< stack-scheduling quantum risks host-stack overflow
  kBadFaultConfig,     ///< fault-injection probability outside [0, 1]
  kBadBatchConfig,     ///< wire-batching knobs outside their valid ranges
};

/// Typed rejection of an invalid RuntimeConfig. Constructing a Runtime from
/// an invalid config throws this instead of aborting on an assert, so
/// embedders (language front-ends, long-lived tools) can surface the problem
/// to their users.
class ConfigError : public std::runtime_error {
 public:
  ConfigError(ConfigErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  ConfigErrorCode code() const noexcept { return code_; }

 private:
  ConfigErrorCode code_;
};

/// Node-count ceiling: mail addresses, continuation references and group ids
/// pack node ids into 16 bits on the wire with 0xffff reserved as the
/// invalid sentinel, so ids 0..0xfffe are addressable. (The binomial-tree
/// MST broadcast spans any count below this.)
inline constexpr NodeId kMaxNodes = 0xffff;

/// Stack-scheduling depth ceiling: each level of compiler-controlled direct
/// dispatch (§6.3) is a real host-stack frame, so an unbounded quantum turns
/// deep actor chains into stack overflow.
inline constexpr std::uint32_t kMaxStackDepth = 4096;

struct RuntimeConfig {
  NodeId nodes = 4;
  MachineKind machine = MachineKind::kSim;
  am::CostModel costs = am::CostModel::cm5();
  std::uint64_t seed = 0x5eed;

  /// Receiver-initiated random-polling load balancing (Table 4). Idle nodes
  /// poll random victims continuously while the machine-wide work hint is
  /// positive (the front-end stands in for the termination detector Kumar
  /// et al. pair with random polling), so an idle machine stays quiescent.
  bool load_balancing = false;

  /// Cache remote descriptor addresses in locality descriptors (§4.1).
  /// Disabled only by bench/ablation_namecache.
  bool name_cache = true;
  /// Minimal flow control on bulk transfers (§6.5). Disabled only by
  /// bench/ablation_flowcontrol.
  bool flow_control = true;
  /// Collective (quantum) scheduling of broadcast deliveries (§6.4).
  bool collective_broadcast = true;

  /// Compiler-controlled stack-based scheduling bound: send_static falls
  /// back to the generic buffered send beyond this nesting depth.
  std::uint32_t max_stack_depth = 64;

  /// SimMachine safety valve (0 = unlimited events).
  std::uint64_t sim_event_limit = 0;

  /// MnMachine worker-pool size; 0 picks min(hardware threads, nodes). The
  /// machine caps any value at the node count — more workers than nodes
  /// cannot be scheduled.
  std::uint32_t mn_workers = 0;

  /// Keep every probe span for Chrome-trace export (Runtime::write_trace),
  /// beside the histograms the probes always fill. Deterministic under
  /// SimMachine.
  bool trace = false;

  /// Fault injection on the active-message wire (am/fault.hpp). Enabling it
  /// also enables the reliable-link layer (sequence numbers, acks,
  /// retransmission, duplicate suppression), so the runtime's guarantee
  /// stays effectively-once, in-order per channel. faults.seed == 0 derives
  /// the injector seed from `seed` above, keeping one-knob reproducibility.
  am::FaultConfig faults;

  /// Destination-coalesced wire batching (am/wire_batch.hpp): small remote
  /// sends pack into one bounded frame per (source, destination) channel,
  /// amortizing per-message injection overhead on the hot path. On by
  /// default; single-node machines stay unbatched automatically. Delivery
  /// semantics are unchanged — frames preserve per-channel FIFO order and
  /// ride the reliable link whole under fault injection.
  am::BatchConfig batching;

  /// Validated construction: returns the first problem found, or nullopt for
  /// a usable config. Runtime's constructor throws the returned error.
  std::optional<ConfigError> validate() const {
    if (nodes == 0) {
      return ConfigError(ConfigErrorCode::kZeroNodes,
                         "RuntimeConfig: nodes must be >= 1");
    }
    if (nodes > kMaxNodes) {
      return ConfigError(
          ConfigErrorCode::kTooManyNodes,
          "RuntimeConfig: " + std::to_string(nodes) +
              " nodes exceeds the 16-bit mail-address wire encoding (max " +
              std::to_string(kMaxNodes) + ")");
    }
    if (max_stack_depth > kMaxStackDepth) {
      return ConfigError(
          ConfigErrorCode::kStackDepthTooLarge,
          "RuntimeConfig: max_stack_depth " + std::to_string(max_stack_depth) +
              " exceeds " + std::to_string(kMaxStackDepth) +
              " (each level is a host stack frame)");
    }
    if (!faults.probabilities_valid()) {
      return ConfigError(
          ConfigErrorCode::kBadFaultConfig,
          "RuntimeConfig: fault probabilities (drop/duplicate/delay) must "
          "lie in [0, 1]");
    }
    if (!batching.valid()) {
      return ConfigError(
          ConfigErrorCode::kBadBatchConfig,
          "RuntimeConfig: wire-batching knobs invalid (frame bytes must lie "
          "in [64, bulk-chunk], max_msgs >= 2, holdoff_min <= holdoff <= "
          "holdoff_max with holdoff_min >= 1)");
    }
    return std::nullopt;
  }
};

}  // namespace hal

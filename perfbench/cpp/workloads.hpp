// The three benchmark workloads (fib, storm, rpc), their seeded inputs and
// their exact result checks.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "obs/run_report.hpp"
#include "runtime/config.hpp"
#include "support.hpp"

namespace pb {

enum class Workload : std::uint8_t { kFib, kStorm, kRpc };

std::optional<Workload> parse_workload(std::string_view name);

/// Machine shape a workload runs on (the same under MnMachine and under
/// SimMachine; the worker count only applies to MnMachine).
struct Shape {
  hal::NodeId nodes = 0;
  std::uint32_t workers = 0;
};
Shape shape_of(Workload w);

// --- Sizes -------------------------------------------------------------------
inline constexpr unsigned kFibN = 32;
inline constexpr unsigned kFibCutoff = 8;
/// Runtime seed of every fib run (apps/fib's default).
inline constexpr std::uint64_t kFibSeed = 0x715b;
inline constexpr hal::NodeId kStormSenders = 3;
inline constexpr std::uint64_t kStormPerSender = 300'000;
/// Storm flow control: a sender sends kStormChunk messages per chunk and
/// keeps at most kStormWindow chunks in flight to the counter.
inline constexpr std::uint64_t kStormChunk = 512;
inline constexpr unsigned kStormWindow = 2;
inline constexpr std::uint32_t kRpcClients = 12;
inline constexpr hal::NodeId kRpcFirstClientNode = 4;
inline constexpr std::uint64_t kRpcPerClient = 50'000;
inline constexpr std::uint64_t kRpcMigrateEvery = 2'000;
inline constexpr hal::NodeId kRpcServerNodes = 4;

// --- Seeded inputs -----------------------------------------------------------
/// SplitMix64 finalizer: the one hash every input below derives from.
std::uint64_t mix(std::uint64_t x);

/// Storm: sender s (1-based node) sends kStormPerSender consecutive values
/// starting at `storm_base(seed, s)`.
std::uint64_t storm_base(std::uint64_t seed, hal::NodeId sender);
std::uint64_t storm_expected_sum(std::uint64_t seed);

/// RPC: the value client c sends with its i-th request and the reply the
/// server must return for it.
std::uint64_t rpc_value(std::uint64_t seed, std::uint32_t client,
                        std::uint64_t index);
std::uint64_t rpc_reply(std::uint64_t value);
std::uint64_t rpc_expected_total(std::uint64_t seed);

std::uint64_t fib_value(unsigned n);

// --- Exact checks (empty string = pass) --------------------------------------
std::string check_fib(std::uint64_t value, std::uint64_t dead_letters);
std::string check_storm(std::uint64_t seed, std::uint64_t sum,
                        std::uint64_t count, std::uint64_t dead_letters);
struct RpcOutcome {
  std::uint64_t server_total = 0;
  std::uint64_t server_count = 0;
  std::uint64_t migrations = 0;
  std::uint64_t clients_done = 0;
  std::uint64_t bad_replies = 0;
  std::uint64_t dead_letters = 0;
};
std::string check_rpc(std::uint64_t seed, const RpcOutcome& o);

// --- One run -----------------------------------------------------------------
struct RepResult {
  std::string error;  ///< empty when every exact check held
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t delivered = 0;  ///< RunReport messages_delivered
  LatencySummary latency;       ///< request latency (MnMachine runs only)
  std::uint64_t worker_steals = 0;
  hal::obs::RunReport report;
};

/// Build, seed and run one workload to quiescence on `machine`, recording
/// spans around every call into the runtime when `spans` is enabled.
RepResult run_workload(Workload w, std::uint64_t seed,
                       hal::MachineKind machine, SpanLog& spans);

}  // namespace pb

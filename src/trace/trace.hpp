// Execution tracing.
//
// When enabled (RuntimeConfig::trace), every kernel records protocol-level
// events — method executions, migrations, steals, FIR chases, bulk
// transfers — with virtual-time stamps. The recorder exports the Chrome
// trace-event JSON format (load in chrome://tracing or https://ui.perfetto.dev),
// one track per node, which makes the pipelining and load-balancing
// behaviour of a 64-node simulated run directly visible.
//
// Recording is deterministic under SimMachine: same seed, same trace.
#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace hal::trace {

enum class EventKind : std::uint8_t {
  kMethod,       // a = behavior id, b = selector
  kQuantum,      // a = group seq, b = members dispatched
  kSendRemote,   // a = destination node
  kCreateLocal,  // a = behavior id
  kCreateAlias,  // a = target node, b = behavior id
  kMigrateOut,   // a = target node, b = actor epoch after the move
  kMigrateIn,    // a = source node, b = actor epoch
  kStealServed,  // a = thief node
  kFirSent,      // a = chased-toward node
  kFirResolved,  // a = learned node
  kParked,       // message parked awaiting FIR resolution
  kJoinFired,    // a = slot count
  kBroadcast,    // a = group seq
  kCount,
};

std::string_view event_name(EventKind kind) noexcept;

struct Event {
  SimTime start = 0;
  SimTime duration = 0;  // 0 for instantaneous markers
  NodeId node = kInvalidNode;
  EventKind kind = EventKind::kMethod;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Shared, thread-safe event sink. The mutex is uncontended under the
/// simulator (one event loop) and acceptable under MnMachine — tracing
/// is a diagnosis tool, not a fast path; kernels skip the call entirely
/// when tracing is off.
class TraceRecorder {
 public:
  void record(const Event& e) {
    // HAL_LINT_SUPPRESS(hal-handler-purity): tracing is a diagnosis tool
    // (see class comment) — kernels skip the call when tracing is off, and
    // the lock is uncontended under the simulator's single event loop.
    std::lock_guard lock(mutex_);
    events_.push_back(e);
  }

  std::vector<Event> take() {
    std::lock_guard lock(mutex_);
    return std::move(events_);
  }

  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return events_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Event> events_;
};

/// Serialize events as a Chrome trace (JSON array of duration/instant
/// events; ts/dur in microseconds, tid = node).
void write_chrome_trace(std::ostream& out, const std::vector<Event>& events);

}  // namespace hal::trace

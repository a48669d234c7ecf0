// Front-end services (paper §3, Fig. 1).
//
// "The runtime system consists of a front-end which runs on the partition
// manager and a set of runtime kernels which run on the processing
// elements. … In addition to dynamic loading of user's executables, the
// front-end processes all I/O requests from the kernels running on the
// nodes." The BehaviorRegistry covers the loading half; this class covers
// I/O: kernels forward console output as packets to node 0, whose kernel
// hands the lines (with their virtual timestamps) to the front-end. Under
// the simulator the log is deterministic; lines are ordered by emission
// time.
#pragma once

#include <algorithm>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace hal {

class FrontEnd {
 public:
  struct Line {
    SimTime time = 0;    ///< emitting node's clock at the print call
    NodeId node = kInvalidNode;
    std::string text;
  };

  /// Called on node 0's execution stream (MnMachine: whichever worker runs
  /// node 0; bootstrap: the main thread) — serialized defensively anyway. Takes a
  /// view over the packet payload; the owning string is built in place here,
  /// not by the caller.
  void append(SimTime time, NodeId node, std::string_view text) {
    // HAL_LINT_SUPPRESS(hal-handler-purity): console output is not a fast
    // path; the lock is defensive (single writer in practice, see above)
    // and uncontended, and programs that print in a hot loop are measuring
    // their console, not HAL.
    std::lock_guard lock(mutex_);
    lines_.push_back(Line{time, node, std::string(text)});
  }

  /// All output, ordered by virtual emission time (stable for ties).
  /// Call after Runtime::run().
  std::vector<Line> take_ordered() {
    std::lock_guard lock(mutex_);
    std::stable_sort(lines_.begin(), lines_.end(),
                     [](const Line& a, const Line& b) {
                       return a.time < b.time;
                     });
    return std::move(lines_);
  }

  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return lines_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Line> lines_;
};

}  // namespace hal

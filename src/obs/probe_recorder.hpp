// Per-node probe recorder.
//
// One Log2Histogram per Probe, owned by a single node's kernel and written
// only from that node's execution stream (same single-writer discipline as
// StatBlock — no atomics, no locks). Runtime::report() merges the per-node
// recorders into the aggregate distribution at quiescence.
#pragma once

#include "check/affinity.hpp"
#include "check/capability.hpp"
#include "obs/histogram.hpp"
#include "obs/probe.hpp"

namespace hal::obs {

class ProbeRecorder {
 public:
  void record(Probe p, std::uint64_t value) noexcept {
    affinity_.assert_here();
    histograms_[static_cast<std::size_t>(p)].record(value);
  }

  /// Duration helper with saturation: cross-node wall-clock deltas under
  /// MnMachine can come out "negative" when the endpoints race; clamp to
  /// zero rather than recording a wrapped uint64.
  void record_span(Probe p, std::uint64_t start, std::uint64_t end) noexcept {
    record(p, end >= start ? end - start : 0);
  }

  // Quiescent-time readers/mergers (Runtime::report on the bootstrap
  // thread): opted out of the capability analysis rather than asserted.
  const Log2Histogram& histogram(Probe p) const noexcept
      HAL_NO_THREAD_SAFETY_ANALYSIS {
    return histograms_[static_cast<std::size_t>(p)];
  }

  /// Number of probes with at least one sample.
  std::size_t populated() const noexcept HAL_NO_THREAD_SAFETY_ANALYSIS {
    std::size_t n = 0;
    for (const auto& h : histograms_) {
      if (!h.empty()) ++n;
    }
    return n;
  }

  ProbeRecorder& operator+=(const ProbeRecorder& other) noexcept
      HAL_NO_THREAD_SAFETY_ANALYSIS {
    for (std::size_t i = 0; i < kProbeCount; ++i) {
      histograms_[i] += other.histograms_[i];
    }
    return *this;
  }

  /// Name the owning node (called once by the owning kernel's constructor).
  void bind_owner(NodeId node) noexcept {
    affinity_.bind(node, "ProbeRecorder");
  }

 private:
  check::NodeAffinityGuard affinity_;
  std::array<Log2Histogram, kProbeCount> histograms_ HAL_GUARDED_BY(affinity_){};
};

}  // namespace hal::obs

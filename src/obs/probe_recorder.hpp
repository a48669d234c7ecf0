// Per-node probe recorder.
//
// One Log2Histogram per Probe, owned by a single node's kernel and written
// only from that node's execution stream (same single-writer discipline as
// StatBlock — no atomics, no locks). Runtime::report() merges the per-node
// recorders into the aggregate distribution at quiescence.
//
// record_span() is the runtime's one event hook. With RuntimeConfig::trace
// on, the recorder also keeps every span it samples, in the order the node
// recorded them; Runtime::write_trace exports the lists as a Chrome trace,
// one track per node, so the trace and the histograms are the same events.
#pragma once

#include <vector>

#include "check/affinity.hpp"
#include "check/capability.hpp"
#include "common/types.hpp"
#include "obs/histogram.hpp"
#include "obs/probe.hpp"

namespace hal::obs {

/// One recorded probe span: a Chrome trace event on its node's track.
struct Span {
  std::uint64_t start = 0;     ///< ns, the probe's start stamp
  std::uint64_t duration = 0;  ///< ns, the histogram's sample
  NodeId node = kInvalidNode;  ///< the recording node
  Probe probe = Probe::kCount;
};

class ProbeRecorder {
 public:
  void record(Probe p, std::uint64_t value) noexcept {
    affinity_.assert_here();
    histograms_[static_cast<std::size_t>(p)].record(value);
  }

  /// Duration helper with saturation: cross-node wall-clock deltas under
  /// MnMachine can come out "negative" when the endpoints race; clamp to
  /// zero rather than recording a wrapped uint64.
  void record_span(Probe p, std::uint64_t start, std::uint64_t end) {
    affinity_.assert_here();
    const std::uint64_t duration = end >= start ? end - start : 0;
    histograms_[static_cast<std::size_t>(p)].record(duration);
    if (keep_spans_) spans_.push_back(Span{start, duration, node_, p});
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

  /// Merges histograms only: a merged recorder keeps no spans.
  ProbeRecorder& operator+=(const ProbeRecorder& other) noexcept
      HAL_NO_THREAD_SAFETY_ANALYSIS {
    for (std::size_t i = 0; i < kProbeCount; ++i) {
      histograms_[i] += other.histograms_[i];
    }
    return *this;
  }

  /// The spans kept so far (empty unless keep_spans was set).
  const std::vector<Span>& spans() const noexcept
      HAL_NO_THREAD_SAFETY_ANALYSIS {
    return spans_;
  }

  /// Name the owning node and whether record_span keeps its spans for the
  /// trace (called once by the owning kernel's constructor, before the
  /// node's stream runs).
  void bind_owner(NodeId node, bool keep_spans) noexcept
      HAL_NO_THREAD_SAFETY_ANALYSIS {
    affinity_.bind(node, "ProbeRecorder");
    node_ = node;
    keep_spans_ = keep_spans;
  }

 private:
  check::NodeAffinityGuard affinity_;
  std::array<Log2Histogram, kProbeCount> histograms_ HAL_GUARDED_BY(affinity_){};
  std::vector<Span> spans_ HAL_GUARDED_BY(affinity_);
  NodeId node_ HAL_GUARDED_BY(affinity_) = kInvalidNode;
  bool keep_spans_ HAL_GUARDED_BY(affinity_) = false;
};

}  // namespace hal::obs

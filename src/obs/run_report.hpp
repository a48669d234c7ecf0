// Structured run results: the one thing a Halcyon run hands back.
//
// RunReport is the single value object carrying everything the paper's
// evaluation tables need: machine kind, node count, makespan, per-node and
// aggregate event counters, and per-probe latency histograms. to_json() is
// deterministic — fixed key order, integers only — so two SimMachine runs of
// the same seed serialize byte-identically and BENCH_*.json files diff
// cleanly across PRs.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "obs/probe_recorder.hpp"

namespace hal::obs {

/// Schema identifier embedded in the JSON (bump on layout changes).
/// v3: adds "dead_letter_causes" (per-cause breakdown summing to
/// "dead_letters") and the link/fault stat counters + redelivery probe.
/// v4: adds "workers" (execution contexts the machine used: 1 for sim,
/// pool size N for mn) and the "mn" machine kind.
/// v5: adds the wire-batching counters (wire_frames, coalesced_msgs and the
/// four wire_flush_* cause counters) and the frame_fill_msgs probe.
inline constexpr std::string_view kRunReportSchema = "halcyon.run_report.v5";

/// Payload-buffer lifecycle audit, filled from the hal::check ledger. All
/// fields are zero in HAL_CHECK=0 builds (the ledger compiles away).
struct BufferAudit {
  std::uint64_t acquired = 0;   ///< pool acquisitions recorded
  std::uint64_t retired = 0;    ///< releases of ledger-tracked buffers
  std::uint64_t adopted = 0;    ///< releases of externally allocated buffers
  std::uint64_t escaped = 0;    ///< payloads moved out to user code (decode)
  std::uint64_t in_flight = 0;  ///< live buffers still reachable in queues
  std::uint64_t leaked = 0;     ///< live buffers reachable from nowhere
  std::uint64_t double_retires = 0;  ///< same buffer released twice
  std::uint64_t poison_hits = 0;     ///< writes to a buffer after release
};

struct RunReport {
  std::string machine;  ///< "sim" or "mn" (to_string(MachineKind))
  std::uint64_t nodes = 0;
  /// Execution contexts the machine scheduled nodes onto (worker_count()):
  /// 1 for sim, the worker-pool size for mn. The scaling
  /// sweep in bench/mn_scaling reads its x-axis from here.
  std::uint64_t workers = 1;
  std::uint64_t seed = 0;
  std::uint64_t makespan_ns = 0;
  std::uint64_t dead_letters = 0;
  /// Per-cause breakdown of dead_letters, indexed by DeadLetterCause
  /// (unknown actor, stale descriptor, shutdown drain); sums to
  /// dead_letters.
  std::array<std::uint64_t, 3> dead_letter_causes{};
  BufferAudit buffers;  ///< hal::check buffer audit (zeros when disabled)

  StatBlock total;                        ///< sum of per_node
  std::vector<StatBlock> per_node;        ///< index = NodeId
  ProbeRecorder probes;                   ///< merged across nodes
  std::vector<ProbeRecorder> per_node_probes;  ///< index = NodeId

  /// Deterministic JSON serialization (schema halcyon.run_report.v5):
  /// {
  ///   "schema": "...", "machine": "sim", "nodes": N, "workers": W,
  ///   "seed": S, "makespan_ns": M, "dead_letters": D,
  ///   "dead_letter_causes": {"unknown_actor": u, "stale_descriptor": s,
  ///                          "shutdown_drain": d},
  ///   "buffers": {"acquired": A, "retired": R, "adopted": a, "escaped": e,
  ///               "in_flight": i, "leaked": l, "double_retires": d,
  ///               "poison_hits": p},
  ///   "stats": {"<stat>": count, ...},            // all counters, in order
  ///   "per_node_stats": [{...}, ...],
  ///   "probes": {"<probe>": {"unit": "...", "count": C, "sum": S,
  ///               "min": m, "max": M, "p50": q, "p90": q, "p99": q,
  ///               "buckets": [[lower_bound, count], ...]}, ...}
  /// }
  std::string to_json() const;
};

/// Serialize probe spans as a Chrome trace (chrome://tracing, Perfetto): a
/// JSON array of complete events, one per span, in the given order. "tid"
/// is the recording node, so each node gets one track; "name" is the
/// probe's JSON key; "ts" and "dur" are µs with exactly three decimals, so
/// no ns is lost.
void write_chrome_trace(std::ostream& out, const std::vector<Span>& spans);

}  // namespace hal::obs

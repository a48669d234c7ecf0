// Shared helpers for the benchmark harness.
//
// Every bench binary prints a paper-style table to stdout, writes a
// machine-readable BENCH_<name>.json (the perf trajectory tracked across
// PRs), and exits 0; the HAL_BENCH_SCALE environment variable selects
// problem sizes:
//   small (default) — seconds-scale, CI friendly
//   paper           — closer to the paper's sizes (minutes on one core)
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include "common/types.hpp"
#include "obs/run_report.hpp"
#include "runtime/config.hpp"

namespace hal::bench {

inline bool paper_scale() {
  const char* s = std::getenv("HAL_BENCH_SCALE");
  return s != nullptr && std::strcmp(s, "paper") == 0;
}

/// Read an unsigned integer from the environment. Malformed values (empty,
/// non-digit characters, overflow) are rejected with a stderr warning and
/// the default is used — the old atoi version silently turned "abc12" into 0
/// and quietly ran the wrong experiment.
inline unsigned env_unsigned(const char* name, unsigned fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr) return fallback;
  unsigned value = 0;
  bool ok = *s != '\0';
  for (const char* p = s; ok && *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') {
      ok = false;
      break;
    }
    const unsigned digit = static_cast<unsigned>(*p - '0');
    if (value > (std::numeric_limits<unsigned>::max() - digit) / 10u) {
      ok = false;  // overflow
      break;
    }
    value = value * 10u + digit;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "warning: ignoring malformed %s='%s' (expected an unsigned "
                 "integer); using default %u\n",
                 name, s, fallback);
    return fallback;
  }
  return value;
}

/// Machine selection for every bench binary: HAL_MACHINE=sim|mn
/// (parse_machine_kind's canonical names). Unknown values are rejected with
/// a stderr warning and the benchmark's default machine is used — same
/// contract as env_unsigned above.
inline MachineKind env_machine(MachineKind fallback) {
  const char* s = std::getenv("HAL_MACHINE");
  if (s == nullptr) return fallback;
  if (const auto kind = parse_machine_kind(s)) return *kind;
  std::fprintf(stderr,
               "warning: ignoring unknown HAL_MACHINE='%s' (expected "
               "sim|mn); using default '%s'\n",
               s, std::string(to_string(fallback)).c_str());
  return fallback;
}

/// MnMachine worker-pool size: HAL_MN_WORKERS=N (0 = auto, the default).
/// Ignored unless the selected machine is mn.
inline std::uint32_t env_mn_workers() {
  return env_unsigned("HAL_MN_WORKERS", 0);
}

/// Wire-batching knobs for every bench binary (docs/perf.md):
///   HAL_BATCH=0|1            master switch (default: the config's default)
///   HAL_BATCH_FRAME_BYTES=N  frame payload cap
///   HAL_BATCH_MAX_MSGS=N     fill-flush record threshold
///   HAL_BATCH_HOLDOFF_NS=N   initial per-destination holdoff
/// Values that would make the config invalid are rejected with a warning
/// and the fallback is kept — same contract as env_unsigned above.
inline am::BatchConfig env_batching(am::BatchConfig fallback) {
  am::BatchConfig cfg = fallback;
  cfg.enabled = env_unsigned("HAL_BATCH", cfg.enabled ? 1 : 0) != 0;
  cfg.max_frame_bytes = env_unsigned("HAL_BATCH_FRAME_BYTES",
                                     cfg.max_frame_bytes);
  cfg.max_msgs = env_unsigned("HAL_BATCH_MAX_MSGS", cfg.max_msgs);
  cfg.holdoff_ns = env_unsigned(
      "HAL_BATCH_HOLDOFF_NS", static_cast<unsigned>(cfg.holdoff_ns));
  // Keep the adaptive clamp range around a knobbed holdoff.
  cfg.holdoff_min_ns = std::min(cfg.holdoff_min_ns, cfg.holdoff_ns);
  cfg.holdoff_max_ns = std::max(cfg.holdoff_max_ns, cfg.holdoff_ns);
  if (!cfg.valid()) {
    std::fprintf(stderr,
                 "warning: HAL_BATCH_* values form an invalid BatchConfig; "
                 "using defaults\n");
    return fallback;
  }
  return cfg;
}

inline double ms(SimTime ns) { return static_cast<double>(ns) / 1e6; }
inline double us(SimTime ns) { return static_cast<double>(ns) / 1e3; }
inline double secs(SimTime ns) { return static_cast<double>(ns) / 1e9; }

/// Banner naming the executor that runs the bench: the HAL_MACHINE selection,
/// or `pinned_machine` for a bench that picks its executor itself.
inline void header(const char* title, const char* paper_ref,
                   const char* pinned_machine = nullptr) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  if (pinned_machine != nullptr) {
    std::printf("machine: %s\n", pinned_machine);
  } else {
    switch (env_machine(MachineKind::kSim)) {
      case MachineKind::kSim:
        std::printf("machine: virtual-time simulator calibrated to a CM-5 "
                    "node\n");
        break;
      case MachineKind::kMn: {
        const std::uint32_t requested = env_mn_workers();
        std::printf("machine: MnMachine, each run's nodes on min(nodes, %u) "
                    "worker threads (%s); wall-clock time\n",
                    requested != 0 ? requested
                                   : std::thread::hardware_concurrency(),
                    requested != 0 ? "HAL_MN_WORKERS" : "host cores");
        break;
      }
    }
  }
  std::printf("==============================================================\n");
}

/// Write a run's structured report to `path` (deterministic JSON).
inline void report_json_path(const hal::obs::RunReport& report,
                             const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot open %s for writing\n",
                 path.c_str());
    return;
  }
  const std::string json = report.to_json();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("report: %s\n", path.c_str());
}

/// Standard emission point for bench binaries: BENCH_<name>.json in the
/// working directory, next to the text table.
inline void report_json(const hal::obs::RunReport& report, const char* name) {
  report_json_path(report, std::string("BENCH_") + name + ".json");
}

}  // namespace hal::bench

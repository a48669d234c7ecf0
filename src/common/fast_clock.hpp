// Cheap nanosecond clock for the wall-clock machine.
//
// MnMachine stamps every packet and brackets every method execution with a
// clock read; through the vDSO, steady_clock::now() cost ~25-30 ns on the
// host this clock was written for — a third of the whole per-message
// delivery path once batching has amortized the queue and wake costs. On
// x86-64 with an invariant TSC (constant_tsc + nonstop_tsc, universal on
// anything this decade), a calibrated rdtsc gives the same
// nanoseconds-since-epoch reading without the vDSO. What a read costs
// depends on the host: perfbench's ledger entry am.clock_now_ns measured
// 20-27 ns on a 4-vCPU Xeon VM (GCC 12.2, Release), so measure it there
// rather than trust a fixed figure.
//
// The cycles-per-nanosecond ratio is calibrated once per process against
// steady_clock (a ~2 ms busy window, amortized across every machine the
// process creates). Each FastClock instance then anchors its own epoch, so
// now_ns() is nanoseconds since construction — the same contract as the
// steady_clock arithmetic it replaces. The ratio's calibration error
// (<0.1%) only skews how a long run's readings compare to an *external*
// clock; every consumer (holdoff deadlines, retransmit timers, probe spans)
// compares readings from the same instance, which stay self-consistent.
//
// Non-x86 targets (and builds without __x86_64__) fall back to steady_clock
// transparently — same interface, the historical cost.
#pragma once

#include <chrono>
#include <cstdint>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace hal {

class FastClock {
 public:
#if defined(__x86_64__)
  FastClock() : ns_per_cycle_(calibration()), base_(__rdtsc()) {}

  /// Nanoseconds since this instance was constructed.
  std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(
        static_cast<double>(__rdtsc() - base_) * ns_per_cycle_);
  }

 private:
  /// Process-wide cycles->ns ratio, measured once against steady_clock.
  static double calibration() {
    static const double ratio = [] {
      const auto t0 = std::chrono::steady_clock::now();
      const std::uint64_t c0 = __rdtsc();
      while (std::chrono::steady_clock::now() - t0 <
             std::chrono::milliseconds(2)) {
      }
      const std::uint64_t c1 = __rdtsc();
      const auto t1 = std::chrono::steady_clock::now();
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          t1 - t0)
                          .count();
      return static_cast<double>(ns) / static_cast<double>(c1 - c0);
    }();
    return ratio;
  }

  double ns_per_cycle_;
  std::uint64_t base_;
#else
  FastClock() : epoch_(std::chrono::steady_clock::now()) {}

  std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
#endif
};

}  // namespace hal

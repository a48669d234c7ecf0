// Cheap nanosecond clock for the wall-clock machine.
//
// MnMachine stamps packets and the kernel's probe spans with clock reads.
// Through the vDSO, steady_clock::now() cost ~25-30 ns on the host this
// clock was written for. On x86-64 with an invariant TSC (constant_tsc +
// nonstop_tsc, universal on anything this decade), a calibrated rdtsc gives
// the same nanoseconds-since-epoch reading without the vDSO. What a read
// costs depends on the host: perfbench's ledger entry am.clock_now_ns
// measured 20-27 ns on a 4-vCPU Xeon VM (GCC 12.2, Release), so the kernel
// takes about one read per dispatched message rather than one per span
// endpoint (Kernel::stamp).
//
// The cycles-per-nanosecond ratio is calibrated once per process against
// steady_clock, from two points about 200 us apart. Each point is a TSC
// read bracketed by two steady_clock reads, placed at the midpoint of the
// narrowest of a few brackets; a point whose bracket shows a preemption is
// taken again. On a 4-vCPU Xeon VM, 200 calibrations against a 500 ms
// reference erred by at most 0.003% (the single 2 ms window this replaced:
// 0.034%), and calibration takes ~0.2 ms of process setup instead of 2 ms.
// Each FastClock instance then anchors its own epoch, so now_ns() is
// nanoseconds since construction, the same contract as the steady_clock
// arithmetic it replaces. The ratio's error only skews how a long run's
// readings compare to an *external* clock; every consumer (holdoff
// deadlines, retransmit timers, probe spans) compares readings from the
// same instance, which stay self-consistent.
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
    static const double ratio = measure_ratio();
    return ratio;
  }

  /// ns per cycle between two calibration points kSpanNs apart.
  static double measure_ratio() {
    const Point a = point();
    while (std::chrono::steady_clock::now() - a.before <
           std::chrono::nanoseconds(kSpanNs)) {
    }
    const Point b = point();
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(b.before -
                                                                 a.before)
                .count()) +
        static_cast<double>(b.width_ns - a.width_ns) / 2.0;
    return ns / static_cast<double>(b.tsc - a.tsc);
  }

  /// One calibration point: a TSC read taken between the steady_clock
  /// reading `before` and `width_ns` later. Its midpoint is the TSC read's
  /// steady_clock time, to within half the width.
  struct Point {
    std::chrono::steady_clock::time_point before;
    std::int64_t width_ns;
    std::uint64_t tsc;
  };

  /// The narrowest of kTries brackets around a TSC read. A narrowest
  /// bracket wider than kPreemptedNs means the thread lost the core inside
  /// every try: take the point again (up to kRetries times, so a host whose
  /// steady_clock is slow still calibrates).
  static Point point() {
    using Clock = std::chrono::steady_clock;
    Point best{Clock::time_point{}, INT64_MAX, 0};
    for (int retry = 0; retry < kRetries && best.width_ns > kPreemptedNs;
         ++retry) {
      for (int i = 0; i < kTries; ++i) {
        const auto t0 = Clock::now();
        const std::uint64_t c = __rdtsc();
        const auto t1 = Clock::now();
        const std::int64_t width =
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count();
        if (width < best.width_ns) best = Point{t0, width, c};
      }
    }
    return best;
  }

  static constexpr std::int64_t kSpanNs = 200'000;  // between the points
  static constexpr int kTries = 5;
  static constexpr int kRetries = 10;
  static constexpr std::int64_t kPreemptedNs = 1'000;

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

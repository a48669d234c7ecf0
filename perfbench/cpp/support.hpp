// Shared helpers of the perfbench binary: wall clock, latency summaries,
// the in-memory span log and a tiny JSON object writer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"

namespace pb {

/// Nanoseconds on CLOCK_MONOTONIC. The clock is system-wide on Linux, so
/// spans recorded by different benchmark processes share one time axis.
inline std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nearest-rank percentile of `samples` (sorted in place): the smallest
/// sample with at least q·n samples at or below it. `beyond` counts the
/// samples strictly above the returned value, so a caller can tell whether
/// the percentile rests on enough tail samples to be trusted.
struct Percentile {
  std::uint64_t value = 0;
  std::size_t beyond = 0;
};

template <typename T>
Percentile percentile(std::vector<T>& samples, double q) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  const double want = q * static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(want);
  if (static_cast<double>(rank) < want) ++rank;
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  const T v = samples[rank - 1];
  const auto above = std::upper_bound(samples.begin(), samples.end(), v);
  return {static_cast<std::uint64_t>(v),
          static_cast<std::size_t>(samples.end() - above)};
}

/// Latency distribution of one run: sample count, p50, p90, p99 and how
/// many samples lie beyond the p90 and the p99.
struct LatencySummary {
  std::size_t count = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p90_ns = 0;
  std::uint64_t p99_ns = 0;
  std::size_t beyond_p90 = 0;
  std::size_t beyond_p99 = 0;
};

template <typename T>
LatencySummary summarize(std::vector<T>& samples) {
  LatencySummary s;
  s.count = samples.size();
  s.p50_ns = percentile(samples, 0.50).value;
  const Percentile p90 = percentile(samples, 0.90);
  const Percentile p99 = percentile(samples, 0.99);
  s.p90_ns = p90.value;
  s.p99_ns = p99.value;
  s.beyond_p90 = p90.beyond;
  s.beyond_p99 = p99.beyond;
  return s;
}

/// Quantile of a runtime probe histogram, interpolated linearly inside the
/// log2 bucket that holds the sample of rank ceil(q·count) and clamped to
/// the observed min and max; 0 for an empty histogram. (The histogram's own
/// quantile() returns the bucket's lower bound, a power of two.)
inline double bucket_quantile(const hal::obs::Log2Histogram& h, double q) {
  using H = hal::obs::Log2Histogram;
  if (h.empty()) return 0.0;
  const double rank =
      std::max(1.0, std::ceil(q * static_cast<double>(h.count())));
  double seen = 0.0;
  for (std::size_t b = 0; b < H::kBuckets; ++b) {
    const auto n = static_cast<double>(h.bucket_count(b));
    if (n > 0 && seen + n >= rank) {
      const double lo = std::max(static_cast<double>(H::bucket_lower(b)),
                                 static_cast<double>(h.min()));
      const double top = b + 1 < H::kBuckets
                             ? static_cast<double>(H::bucket_lower(b + 1))
                             : static_cast<double>(h.max());
      const double hi = std::min(top, static_cast<double>(h.max()));
      return lo + (hi - lo) * (rank - seen) / n;
    }
    seen += n;
  }
  return static_cast<double>(h.max());
}

/// Spans recorded by the benchmark's own code around each call it makes
/// into a layer: name, start, end, parent span and run id. Held in memory
/// and written out as JSON lines when the process ends; run.py merges the
/// files of all runs into one Chrome trace.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = top level
  };

  explicit SpanLog(bool enabled = false, std::string run = {})
      : enabled_(enabled), run_(std::move(run)) {}

  bool enabled() const noexcept { return enabled_; }

  std::uint32_t begin(std::string name) {
    if (!enabled_) return 0;
    const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back(Span{std::move(name), mono_ns(), 0, id,
                          open_.empty() ? 0 : open_.back()});
    open_.push_back(id);
    return id;
  }

  void end(std::uint32_t id) {
    if (!enabled_ || id == 0) return;
    spans_[id - 1].end_ns = mono_ns();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  /// Run `fn` inside a span named `name`; returns fn's result.
  template <typename Fn>
  decltype(auto) around(std::string name, Fn&& fn) {
    struct Closer {
      SpanLog& log;
      std::uint32_t id;
      ~Closer() { log.end(id); }
    } closer{*this, begin(std::move(name))};
    return fn();
  }

  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::string run_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// Flat JSON object writer for the one-line results the children print.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v);
  JsonObject& num(const std::string& key, std::uint64_t v);
  JsonObject& boolean(const std::string& key, bool v);
  JsonObject& str(const std::string& key, const std::string& v);
  /// Insert an already serialized JSON value.
  JsonObject& raw(const std::string& key, const std::string& json);
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

}  // namespace pb

#include "obs/run_report.hpp"

#include <ostream>

namespace hal::obs {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

/// ns as µs with three decimals, in integers: 1200092800 -> "1200092.800".
void append_us(std::string& out, std::uint64_t ns) {
  append_u64(out, ns / 1000);
  const auto frac = static_cast<unsigned>(ns % 1000);
  out += '.';
  out += static_cast<char>('0' + frac / 100);
  out += static_cast<char>('0' + frac / 10 % 10);
  out += static_cast<char>('0' + frac % 10);
}

void append_stats(std::string& out, const StatBlock& stats) {
  out += '{';
  for (std::size_t i = 0; i < kStatNames.size(); ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += kStatNames[i];
    out += "\":";
    append_u64(out, stats.get(static_cast<Stat>(i)));
  }
  out += '}';
}

void append_histogram(std::string& out, const Log2Histogram& h,
                      std::string_view unit) {
  out += "{\"unit\":\"";
  out += unit;
  out += "\",\"count\":";
  append_u64(out, h.count());
  out += ",\"sum\":";
  append_u64(out, h.sum());
  out += ",\"min\":";
  append_u64(out, h.min());
  out += ",\"max\":";
  append_u64(out, h.max());
  out += ",\"p50\":";
  append_u64(out, h.empty() ? 0 : h.quantile(0.50));
  out += ",\"p90\":";
  append_u64(out, h.empty() ? 0 : h.quantile(0.90));
  out += ",\"p99\":";
  append_u64(out, h.empty() ? 0 : h.quantile(0.99));
  out += ",\"buckets\":[";
  bool first = true;
  for (std::size_t b = 0; b < Log2Histogram::kBuckets; ++b) {
    if (h.bucket_count(b) == 0) continue;
    if (!first) out += ',';
    first = false;
    out += '[';
    append_u64(out, Log2Histogram::bucket_lower(b));
    out += ',';
    append_u64(out, h.bucket_count(b));
    out += ']';
  }
  out += "]}";
}

void append_probes(std::string& out, const ProbeRecorder& probes) {
  out += '{';
  for (std::size_t i = 0; i < kProbeCount; ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += kProbeNames[i];
    out += "\":";
    append_histogram(out, probes.histogram(static_cast<Probe>(i)),
                     kProbeUnits[i]);
  }
  out += '}';
}

}  // namespace

std::string RunReport::to_json() const {
  std::string out;
  out.reserve(4096);
  out += "{\"schema\":\"";
  out += kRunReportSchema;
  out += "\",\"machine\":\"";
  out += machine;
  out += "\",\"nodes\":";
  append_u64(out, nodes);
  out += ",\"workers\":";
  append_u64(out, workers);
  out += ",\"seed\":";
  append_u64(out, seed);
  out += ",\"makespan_ns\":";
  append_u64(out, makespan_ns);
  out += ",\"dead_letters\":";
  append_u64(out, dead_letters);
  out += ",\"dead_letter_causes\":{\"unknown_actor\":";
  append_u64(out, dead_letter_causes[0]);
  out += ",\"stale_descriptor\":";
  append_u64(out, dead_letter_causes[1]);
  out += ",\"shutdown_drain\":";
  append_u64(out, dead_letter_causes[2]);
  out += "},\"buffers\":{\"acquired\":";
  append_u64(out, buffers.acquired);
  out += ",\"retired\":";
  append_u64(out, buffers.retired);
  out += ",\"adopted\":";
  append_u64(out, buffers.adopted);
  out += ",\"escaped\":";
  append_u64(out, buffers.escaped);
  out += ",\"in_flight\":";
  append_u64(out, buffers.in_flight);
  out += ",\"leaked\":";
  append_u64(out, buffers.leaked);
  out += ",\"double_retires\":";
  append_u64(out, buffers.double_retires);
  out += ",\"poison_hits\":";
  append_u64(out, buffers.poison_hits);
  out += "},\"stats\":";
  append_stats(out, total);
  out += ",\"per_node_stats\":[";
  for (std::size_t n = 0; n < per_node.size(); ++n) {
    if (n != 0) out += ',';
    append_stats(out, per_node[n]);
  }
  out += "],\"probes\":";
  append_probes(out, probes);
  out += '}';
  return out;
}

void write_chrome_trace(std::ostream& out, const std::vector<Span>& spans) {
  out << "[\n";
  std::string event;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    event.clear();
    if (i != 0) event += ",\n";
    event += "{\"name\":\"";
    event += kProbeNames[static_cast<std::size_t>(s.probe)];
    event += "\",\"pid\":0,\"tid\":";
    append_u64(event, s.node);
    event += ",\"ph\":\"X\",\"ts\":";
    append_us(event, s.start);
    event += ",\"dur\":";
    append_us(event, s.duration);
    event += '}';
    out << event;
  }
  out << "\n]\n";
}

}  // namespace hal::obs

// perfbench: one process per measured run. run.py starts it, enforces the
// watchdog, and aggregates what it prints. Every command prints exactly one
// JSON object on its last stdout line.
//
//   perfbench info                               host and build facts
//   perfbench rep   --workload W --seed S [--spans F --run R]
//                                                one MnMachine run of W
//   perfbench sim   --workload W --seed S        SimMachine exactness gate
//   perfbench ledger [--spans F --run R]         per-layer costs in isolation
//   perfbench msg   --kind local|remote|reply --seed S
//                                                per-message cost, 2 nodes
//   perfbench pool                               WorkStealPool fib comparator
//   perfbench selftest                           helper and check self-tests
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>

#include "ledger.hpp"
#include "support.hpp"
#include "workloads.hpp"

namespace {

struct Args {
  std::string command;
  std::string workload = "fib";
  std::string kind = "remote";
  std::string spans;
  std::string run = "run";
  std::uint64_t seed = 1;
};

bool parse(int argc, char** argv, Args& a) {
  if (argc < 2) return false;
  a.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--spans") {
      a.spans = val;
    } else if (key == "--run") {
      a.run = val;
    } else if (key == "--kind") {
      a.kind = val;
    } else {
      return false;
    }
  }
  return (argc % 2) == 0;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string stats_json(const hal::obs::RunReport& r) {
  pb::JsonObject o;
  for (std::size_t i = 0; i < hal::kStatNames.size(); ++i) {
    o.num(std::string(hal::kStatNames[i]),
          r.total.get(static_cast<hal::Stat>(i)));
  }
  return o.done();
}

std::string probes_json(const hal::obs::RunReport& r) {
  pb::JsonObject o;
  for (std::size_t i = 0; i < hal::obs::kProbeCount; ++i) {
    const auto& h = r.probes.histogram(static_cast<hal::obs::Probe>(i));
    pb::JsonObject p;
    p.num("count", h.count());
    p.num("p50", pb::bucket_quantile(h, 0.50));
    p.num("p99", pb::bucket_quantile(h, 0.99));
    o.raw(std::string(hal::obs::kProbeNames[i]), p.done());
  }
  return o.done();
}

int cmd_rep(const Args& a, pb::Workload w) {
  pb::SpanLog spans(!a.spans.empty(), a.run);
  const pb::RepResult r =
      pb::run_workload(w, a.seed, hal::MachineKind::kMn, spans);
  pb::JsonObject o;
  o.boolean("exact", r.error.empty());
  o.str("error", r.error);
  o.num("setup_s", r.setup_s);
  o.num("run_s", r.run_s);
  o.num("delivered", r.delivered);
  o.num("lat_count", static_cast<std::uint64_t>(r.latency.count));
  o.num("lat_p50_ns", r.latency.p50_ns);
  o.num("lat_p90_ns", r.latency.p90_ns);
  o.num("lat_p99_ns", r.latency.p99_ns);
  o.num("lat_beyond_p90", static_cast<std::uint64_t>(r.latency.beyond_p90));
  o.num("lat_beyond_p99", static_cast<std::uint64_t>(r.latency.beyond_p99));
  o.num("rss_mb", peak_rss_mib());
  o.num("nodes", r.report.nodes);
  o.num("workers", r.report.workers);
  o.str("machine", r.report.machine);
  if (spans.enabled()) {
    o.num("worker_steals", r.worker_steals);
    o.raw("stats", stats_json(r.report));
    o.raw("probes", probes_json(r.report));
    if (!spans.write(a.spans)) return 2;
  }
  std::printf("%s\n", o.done().c_str());
  return 0;
}

int cmd_sim(const Args& a, pb::Workload w) {
  pb::SpanLog off;
  const pb::RepResult first =
      pb::run_workload(w, a.seed, hal::MachineKind::kSim, off);
  const pb::RepResult second =
      pb::run_workload(w, a.seed, hal::MachineKind::kSim, off);
  const std::string j1 = first.report.to_json();
  const std::string j2 = second.report.to_json();
  std::string error = first.error.empty() ? second.error : first.error;
  if (error.empty() && j1 != j2) {
    error = "SimMachine RunReports of one seed differ between two runs";
  }
  pb::JsonObject o;
  o.boolean("exact", error.empty());
  o.str("error", error);
  o.num("makespan_ms",
        static_cast<double>(first.report.makespan_ns) * 1e-6);
  o.num("report_bytes", static_cast<std::uint64_t>(j1.size()));
  o.num("nodes", first.report.nodes);
  std::printf("%s\n", o.done().c_str());
  return 0;
}

int cmd_info() {
  pb::JsonObject o;
  o.num("nproc", std::uint64_t{std::thread::hardware_concurrency()});
  o.str("compiler", PERFBENCH_COMPILER);
  o.str("build_type", PERFBENCH_BUILD_TYPE);
  std::printf("%s\n", o.done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench info|rep|sim|ledger|msg|pool|selftest "
                 "[--workload W] [--seed S] [--spans FILE] [--run ID] "
                 "[--kind K]\n");
    return 2;
  }
  if (a.command == "info") return cmd_info();
  if (a.command == "selftest") return pb::selftest();
  if (a.command == "ledger" || a.command == "msg" || a.command == "pool") {
    pb::SpanLog spans(!a.spans.empty(), a.run);
    const std::string out = a.command == "ledger" ? pb::run_ledger(spans)
                            : a.command == "msg"
                                ? pb::run_msg(a.kind, a.seed, spans)
                                : pb::run_pool(spans);
    if (out.empty()) return 2;
    std::printf("%s\n", out.c_str());
    return spans.enabled() && !spans.write(a.spans) ? 2 : 0;
  }
  const auto w = pb::parse_workload(a.workload);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  if (a.command == "rep") return cmd_rep(a, *w);
  if (a.command == "sim") return cmd_sim(a, *w);
  std::fprintf(stderr, "perfbench: unknown command '%s'\n", a.command.c_str());
  return 2;
}

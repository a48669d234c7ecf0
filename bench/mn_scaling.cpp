// MnMachine worker-scaling sweep (the P >> N regime the M:N machine exists
// for).
//
// Two workloads at HAL_MN_NODES nodes (default 4096 — thousands of nodes on
// a handful of workers, far past what one OS thread per node could host):
//   * fib        — fork/join traffic spread by receiver-initiated random
//                  polling, so runnable nodes churn through the run queues
//                  and the work-stealing path carries real load
//   * FIR chase  — a migrating actor with third-party senders over a lossy
//                  wire: stale-descriptor forwards, FIR re-resolution, and
//                  link retransmission timers all ride the worker pool
// Both are asserted exact (fib value, chase sum, zero dead letters) at every
// pool size N in {1, 2, 4, 8}; the wall-clock makespans form the scaling
// curve. Each fib run's report is emitted as BENCH_mn_scaling_w<N>.json
// (RunReport::workers carries the x-axis) and the widest pool's report as
// BENCH_mn_scaling.json; CI's mn-smoke step feeds them all through
// scripts/check_report.py --max-dead-letters 0.
#include <cstdint>
#include <string>

#include "apps/fib.hpp"
#include "bench_util.hpp"
#include "common/assert.hpp"
#include "runtime/api.hpp"

namespace {

using namespace hal;

/// A migratable accumulator touring the machine while senders chase it.
class Roamer : public ActorBase {
 public:
  void on_add(Context&, std::int64_t v) { sum_ += v; }
  void on_hop(Context& ctx, NodeId target) { ctx.migrate_to(target); }
  HAL_BEHAVIOR(Roamer, &Roamer::on_add, &Roamer::on_hop)

  bool migratable() const override { return true; }
  void pack_state(ByteWriter& w) const override { w.write(sum_); }
  void unpack_state(ByteReader& r) override { sum_ = r.read<std::int64_t>(); }

  std::int64_t sum() const { return sum_; }

 private:
  std::int64_t sum_ = 0;
};

/// Fires a burst at the (long-gone) target, forcing forward + FIR chase.
class Chaser : public ActorBase {
 public:
  void on_fire(Context& ctx, MailAddress target, std::int64_t count) {
    for (std::int64_t i = 0; i < count; ++i) {
      ctx.send<&Roamer::on_add>(target, std::int64_t{1});
    }
  }
  HAL_BEHAVIOR(Chaser, &Chaser::on_fire)
};

std::uint64_t fib_value(unsigned n) {
  std::uint64_t a = 0, b = 1;
  for (unsigned i = 0; i < n; ++i) {
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  return a;
}

hal::obs::RunReport run_fib_at(NodeId nodes, std::uint32_t workers,
                               unsigned n) {
  apps::FibParams p;
  p.n = n;
  p.cutoff = 8;
  p.nodes = nodes;
  p.load_balancing = true;
  p.machine = MachineKind::kMn;
  p.mn_workers = workers;
  const apps::FibResult r = apps::run_fib(p);
  HAL_ASSERT(r.value == fib_value(n));
  HAL_ASSERT(r.dead_letters == 0);
  HAL_ASSERT(r.report.workers == workers);
  return r.report;
}

hal::obs::RunReport run_chase_at(NodeId nodes, std::uint32_t workers,
                                 unsigned burst) {
  RuntimeConfig cfg;
  cfg.nodes = nodes;
  cfg.machine = MachineKind::kMn;
  cfg.mn_workers = workers;
  cfg.costs = am::CostModel::cm5();
  // A lossy wire at scale: retransmission timers for thousands of endpoints
  // share the pool's timer table instead of one thread per node.
  cfg.faults.enabled = true;
  cfg.faults.drop = 0.02;
  cfg.faults.duplicate = 0.01;
  cfg.faults.rto_ns = 500'000;
  Runtime rt(cfg);
  rt.load<Roamer>();
  rt.load<Chaser>();
  const MailAddress w = rt.spawn<Roamer>(0);
  // Tour a slice of the machine; every hop leaves a stale descriptor.
  const NodeId laps = nodes < 64 ? nodes : 64;
  for (NodeId n = 1; n < laps; ++n) rt.inject<&Roamer::on_hop>(w, n);
  rt.inject<&Roamer::on_hop>(w, NodeId{0});
  // Chasers spread across the whole node range route via the birthplace.
  std::int64_t expected = 0;
  const NodeId stride = nodes < 32 ? 1 : nodes / 32;
  for (NodeId n = 1; n < nodes; n += stride) {
    rt.inject<&Chaser::on_fire>(rt.spawn<Chaser>(n), w,
                                std::int64_t{burst});
    expected += burst;
  }
  rt.run();
  const Roamer* obj = rt.find_behavior<Roamer>(w);
  HAL_ASSERT(obj != nullptr && obj->sum() == expected);
  HAL_ASSERT(rt.dead_letters() == 0);
  return rt.report();
}

void print_row(const char* workload, std::uint32_t workers,
               const hal::obs::RunReport& r, SimTime base_ns) {
  using namespace hal::bench;
  const double speedup =
      r.makespan_ns == 0 ? 0.0
                         : static_cast<double>(base_ns) /
                               static_cast<double>(r.makespan_ns);
  std::printf("%-10s %7u %12.2f %8.2fx %12llu\n", workload, workers,
              ms(r.makespan_ns), speedup,
              static_cast<unsigned long long>(
                  r.total.get(Stat::kMessagesDelivered)));
}

}  // namespace

int main() {
  using namespace hal::bench;
  header("MnMachine scaling: M nodes on N workers",
         "ROADMAP item 1 — the paper's P-node protocols at P >> cores",
         "MnMachine, worker pool size per row; wall-clock time");

  const NodeId nodes =
      static_cast<NodeId>(env_unsigned("HAL_MN_NODES", 4096));
  const unsigned fib_n =
      env_unsigned("HAL_FIB_N", paper_scale() ? 26 : 22);
  const unsigned burst = env_unsigned("HAL_CHASE_BURST", 20);
  const std::uint32_t sweep[] = {1, 2, 4, 8};

  std::printf("nodes: %u (fib n=%u cutoff=8; chase burst=%u)\n\n",
              static_cast<unsigned>(nodes), fib_n, burst);
  std::printf("%-10s %7s %12s %9s %12s\n", "workload", "workers",
              "makespan ms", "speedup", "msgs dlvd");

  hal::obs::RunReport widest;
  SimTime fib_base = 0;
  for (const std::uint32_t w : sweep) {
    const hal::obs::RunReport r = run_fib_at(nodes, w, fib_n);
    if (w == 1) fib_base = r.makespan_ns;
    print_row("fib", w, r, fib_base);
    report_json_path(r, "BENCH_mn_scaling_w" + std::to_string(w) + ".json");
    widest = r;
  }
  SimTime chase_base = 0;
  for (const std::uint32_t w : sweep) {
    const hal::obs::RunReport r = run_chase_at(nodes, w, burst);
    if (w == 1) chase_base = r.makespan_ns;
    print_row("fir-chase", w, r, chase_base);
  }

  std::printf(
      "\nEvery run is asserted exact (fib value, chase sum, zero dead\n"
      "letters) — the pool size changes the schedule, never the result.\n"
      "N=1 is the degenerate point of receiver-initiated polling: the idle\n"
      "nodes' poll quanta serialize onto the one worker that also runs the\n"
      "real work, so the N=1 fib row measures the balancer storm, not fib.\n");
  report_json(widest, "mn_scaling");
  return 0;
}

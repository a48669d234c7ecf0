// CAF-style mailbox storms: the wire-batching payoff measurement.
//
// Three storms borrowed from the actor-framework benchmark family, run on
// MnMachine's default pool (min(host cores, nodes) real worker threads, real
// wall clock) with destination-coalesced wire batching toggled per run:
//
//   mailbox    — one remote sender floods one receiver (1:1). The classic
//                mailbox_performance shape: per-message enqueue + wake
//                overhead dominates, which is exactly what frames amortize.
//   n:1 storm  — every other node floods node 0's counter concurrently.
//                The contended shape: P-1 senders on their own workers
//                hammer one mailbox; coalescing divides the push/wake
//                traffic by the frame occupancy. Results are checked
//                exactly (the sum of all injected values), so batching
//                must not reorder or drop anything it touches.
//   ping+work  — latency-sensitive ping-pong next to a busy compute actor
//                on each node. Sends here leave on the idle-transition
//                flush (the pinger's node quiesces after each hop), so
//                this storm bounds the latency tax of the holdoff.
//
// Knobs (docs/perf.md): HAL_BATCH, HAL_BATCH_FRAME_BYTES,
// HAL_BATCH_MAX_MSGS, HAL_BATCH_HOLDOFF_NS select the batched
// configuration; HAL_CAF_MIN_SPEEDUP=<percent> turns the n:1 batched-over-
// unbatched throughput ratio into a hard budget (CI perf-smoke sets 130 —
// the batching layer must buy at least 1.3x on the contended storm).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"
#include "runtime/api.hpp"

namespace {

using namespace hal;

// --- Storm actors --------------------------------------------------------------

/// Flood sink: sums every value it receives (the exact-result check).
class Counter : public ActorBase {
 public:
  void on_add(Context&, std::uint64_t v) { sum += v; }
  HAL_BEHAVIOR(Counter, &Counter::on_add)
  std::uint64_t sum = 0;
};

/// Flood source: streams `total` counted messages at `dst` in self-paced
/// chunks (one burst per dispatch keeps the mailbox and flow control
/// honest — a single handler must not sit in a million-iteration loop).
class Flooder : public ActorBase {
 public:
  void on_init(Context&, MailAddress dst, std::uint64_t base) {
    dst_ = dst;
    next_ = base;
  }
  void on_flood(Context& ctx, std::uint64_t left) {
    const std::uint64_t chunk = std::min<std::uint64_t>(left, 512);
    for (std::uint64_t i = 0; i < chunk; ++i) {
      ctx.send<&Counter::on_add>(dst_, next_++);
    }
    if (left > chunk) {
      ctx.send<&Flooder::on_flood>(ctx.self(), left - chunk);
    }
  }
  HAL_BEHAVIOR(Flooder, &Flooder::on_init, &Flooder::on_flood)

 private:
  MailAddress dst_;
  std::uint64_t next_ = 0;
};

/// Half of a cross-node ping-pong pair; counts the hops it sees.
class Pinger : public ActorBase {
 public:
  void on_init(Context&, MailAddress peer) { peer_ = peer; }
  void on_ping(Context& ctx, std::uint64_t left) {
    ++hops;
    if (left > 0) ctx.send<&Pinger::on_ping>(peer_, left - 1);
  }
  HAL_BEHAVIOR(Pinger, &Pinger::on_init, &Pinger::on_ping)
  std::uint64_t hops = 0;

 private:
  MailAddress peer_;
};

/// Background compute load: self-sends with a spin of real work per
/// dispatch, keeping its node busy so batched traffic cannot ride the
/// idle-transition flush and must go through the holdoff timer instead.
class Burner : public ActorBase {
 public:
  void on_burn(Context& ctx, std::uint64_t left) {
    volatile std::uint64_t acc = left;
    for (int i = 0; i < 2000; ++i) acc = acc * 2862933555777941757ULL + 1;
    sink = acc;
    if (left > 0) ctx.send<&Burner::on_burn>(ctx.self(), left - 1);
  }
  HAL_BEHAVIOR(Burner, &Burner::on_burn)
  std::uint64_t sink = 0;
};

// --- Harness -------------------------------------------------------------------

struct StormOut {
  double wall_s = 0.0;
  std::uint64_t msgs = 0;
  bool exact = false;  ///< every counted message arrived exactly once
  obs::RunReport report;
};

/// Sum of base..base+count-1 (the flood's expected contribution).
std::uint64_t arith_sum(std::uint64_t base, std::uint64_t count) {
  return count * base + count * (count - 1) / 2;
}

template <typename SetupFn, typename CheckFn>
StormOut run_storm(NodeId nodes, const am::BatchConfig& batching,
                   std::uint64_t msgs, SetupFn&& setup, CheckFn&& check) {
  RuntimeConfig cfg;
  cfg.nodes = nodes;
  cfg.machine = MachineKind::kMn;  // default pool: mn_workers = 0
  cfg.batching = batching;
  Runtime rt(cfg);
  setup(rt);
  StormOut out;
  const auto t0 = std::chrono::steady_clock::now();
  rt.run();
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  out.msgs = msgs;
  out.exact = check(rt) && rt.dead_letters() == 0;
  out.report = rt.report();
  return out;
}

StormOut mailbox_storm(const am::BatchConfig& b, std::uint64_t n) {
  MailAddress sink, src;
  return run_storm(
      2, b, n,
      [&](Runtime& rt) {
        rt.load<Counter>();
        rt.load<Flooder>();
        sink = rt.spawn<Counter>(0);
        src = rt.spawn<Flooder>(1);
        rt.inject<&Flooder::on_init>(src, sink, std::uint64_t{1});
        rt.inject<&Flooder::on_flood>(src, n);
      },
      [&](Runtime& rt) {
        const auto* c = rt.find_behavior<Counter>(sink);
        return c != nullptr && c->sum == arith_sum(1, n);
      });
}

StormOut n_to_one_storm(const am::BatchConfig& b, NodeId nodes,
                        std::uint64_t per_sender) {
  MailAddress sink;
  const std::uint64_t total = per_sender * (nodes - 1);
  return run_storm(
      nodes, b, total,
      [&](Runtime& rt) {
        rt.load<Counter>();
        rt.load<Flooder>();
        sink = rt.spawn<Counter>(0);
        for (NodeId s = 1; s < nodes; ++s) {
          const MailAddress f = rt.spawn<Flooder>(s);
          rt.inject<&Flooder::on_init>(f, sink, per_sender * s);
          rt.inject<&Flooder::on_flood>(f, per_sender);
        }
      },
      [&](Runtime& rt) {
        std::uint64_t want = 0;
        for (NodeId s = 1; s < nodes; ++s) {
          want += arith_sum(per_sender * s, per_sender);
        }
        const auto* c = rt.find_behavior<Counter>(sink);
        return c != nullptr && c->sum == want;
      });
}

StormOut ping_compute_storm(const am::BatchConfig& b, std::uint64_t rounds,
                            std::uint64_t burns) {
  MailAddress a, c;
  return run_storm(
      2, b, 2 * rounds,
      [&](Runtime& rt) {
        rt.load<Pinger>();
        rt.load<Burner>();
        a = rt.spawn<Pinger>(0);
        c = rt.spawn<Pinger>(1);
        rt.inject<&Pinger::on_init>(a, c);
        rt.inject<&Pinger::on_init>(c, a);
        const MailAddress b0 = rt.spawn<Burner>(0);
        const MailAddress b1 = rt.spawn<Burner>(1);
        rt.inject<&Burner::on_burn>(b0, burns);
        rt.inject<&Burner::on_burn>(b1, burns);
        rt.inject<&Pinger::on_ping>(a, 2 * rounds - 1);
      },
      [&](Runtime& rt) {
        const auto* pa = rt.find_behavior<Pinger>(a);
        const auto* pc = rt.find_behavior<Pinger>(c);
        return pa != nullptr && pc != nullptr &&
               pa->hops + pc->hops == 2 * rounds;
      });
}

struct Row {
  const char* name;
  StormOut off;
  StormOut on;
};

double mrate(const StormOut& s) {
  return static_cast<double>(s.msgs) / s.wall_s;
}

/// Best-of-N wall time (HAL_BENCH_REPS, default 3): wall-clock storms on a
/// shared machine see multi-10% scheduler noise per run, and the minimum is
/// the standard noise-robust estimator for a fixed workload. Exactness is
/// ANDed across every rep — a single lost message in any rep fails the
/// bench even if that rep's timing is discarded.
template <typename Fn>
StormOut best_of(Fn&& fn) {
  const unsigned reps =
      std::max(1u, hal::bench::env_unsigned("HAL_BENCH_REPS", 3));
  StormOut best = fn();
  bool exact = best.exact;
  for (unsigned i = 1; i < reps; ++i) {
    StormOut next = fn();
    exact = exact && next.exact;
    if (next.wall_s < best.wall_s) best = std::move(next);
  }
  best.exact = exact;
  return best;
}

}  // namespace

int main() {
  hal::bench::header(
      "CAF-style mailbox storms (MnMachine, batching off vs on)",
      "destination-coalesced wire batching: per-message overhead amortized "
      "per frame",
      "MnMachine, each storm's nodes on min(nodes, host cores) worker "
      "threads (default pool); wall-clock time");

  const bool paper = hal::bench::paper_scale();
  const std::uint64_t flood_n = paper ? 2'000'000 : 200'000;
  const std::uint64_t per_sender = paper ? 500'000 : 100'000;
  const std::uint64_t rounds = paper ? 20'000 : 5'000;
  const std::uint64_t burns = paper ? 4'000 : 1'000;
  const NodeId storm_nodes = 4;

  am::BatchConfig off;
  off.enabled = false;
  const am::BatchConfig on = hal::bench::env_batching(am::BatchConfig{});

  Row rows[] = {
      {"mailbox flood (1:1, 2 nodes)",
       best_of([&] { return mailbox_storm(off, flood_n); }),
       best_of([&] { return mailbox_storm(on, flood_n); })},
      {"enqueue storm (3:1, 4 nodes)",
       best_of([&] { return n_to_one_storm(off, storm_nodes, per_sender); }),
       best_of([&] { return n_to_one_storm(on, storm_nodes, per_sender); })},
      {"ping + compute (2 nodes)",
       best_of([&] { return ping_compute_storm(off, rounds, burns); }),
       best_of([&] { return ping_compute_storm(on, rounds, burns); })},
  };

  std::printf("%-32s %10s %14s %14s %9s\n", "storm", "messages",
              "off msgs/s", "on msgs/s", "speedup");
  bool all_exact = true;
  for (const Row& r : rows) {
    all_exact = all_exact && r.off.exact && r.on.exact;
    std::printf("%-32s %10llu %14.0f %14.0f %8.2fx\n", r.name,
                static_cast<unsigned long long>(r.on.msgs), mrate(r.off),
                mrate(r.on), mrate(r.on) / mrate(r.off));
  }
  if (!all_exact) {
    std::fprintf(stderr,
                 "FAIL: a storm lost, duplicated or dead-lettered counted "
                 "messages — batching must be semantically invisible\n");
    return 1;
  }
  std::printf(
      "\nexactness: PASS — every storm's sum matched with 0 dead letters on\n"
      "both configurations; frames coalesce, they never reorder or drop.\n");

  // Structured report from the batched contended storm: the shape the
  // frame-fill histogram and wire counters are most interesting for.
  hal::bench::report_json(rows[1].on.report, "caf_storms");

  // Optional hard budget on the contended storm's payoff (presence of the
  // variable enables the check; the value is a percentage, CI uses 130).
  if (std::getenv("HAL_CAF_MIN_SPEEDUP") != nullptr) {
    const unsigned pct = hal::bench::env_unsigned("HAL_CAF_MIN_SPEEDUP", 130);
    const double need = static_cast<double>(pct) / 100.0;
    const double got = mrate(rows[1].on) / mrate(rows[1].off);
    if (got < need) {
      std::fprintf(stderr,
                   "FAIL: n:1 storm speedup %.2fx below the %.2fx budget\n",
                   got, need);
      return 1;
    }
    std::printf("speedup budget: PASS (n:1 storm %.2fx >= %.2fx)\n", got,
                need);
  }
  return 0;
}

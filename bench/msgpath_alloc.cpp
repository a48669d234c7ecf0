// Allocation census of the message path.
//
// The zero-allocation fast path claims that steady-state small-message
// traffic performs no heap allocation: packet bodies memcpy into pooled
// buffers, the dispatcher ring and mailbox rings stop growing at their
// high-water marks, and retired payload buffers recycle through each
// kernel's BufferPool. This bench *measures* that claim: global operator
// new/delete are intercepted and counted around three fixed message storms
// (local send, remote send, reply-to-continuation), each run at two sizes so
// the marginal allocations per extra message cancel out warmup (pool fills,
// ring growth, event-queue doubling).
//
// A fourth storm counts actor turnover: each round creates a child, sends
// it a request through a join, and the child replies and terminates. It is
// reported per created actor. A freed actor slot keeps its initial-size
// mailbox ring and the join lives inline, so the one allocation left is the
// child's behaviour object. The same storm also reports the locality
// descriptors retained per created actor, the marginal growth of the name
// tables: a child dies where it was born, unmoved and unaliased, so its
// descriptor is released with it and the row reads 0.
//
// HAL_MSGPATH_MAX_ALLOCS=<n> (optional; set but empty counts as set) turns
// the numbers into a hard budget: the binary exits non-zero if
// allocations-per-small-message exceeds n on *any* message storm — local,
// remote, or reply — or if the spawn storm exceeds 1 allocation or 0.01
// retained descriptors per created actor, whatever n is. CI runs
// SimMachine with a budget of 0 (the join path is inline, so the reply
// storm allocates nothing either) and MnMachine with a budget of 1 (its
// node mailboxes allocate one queue node per physical packet).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "bench_util.hpp"
#include "runtime/api.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

inline void count_alloc() noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

void* checked_malloc(std::size_t n) {
  count_alloc();
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Replaceable global allocation functions: count, then defer to malloc/free.
void* operator new(std::size_t n) { return checked_malloc(n); }
void* operator new[](std::size_t n) { return checked_malloc(n); }
void* operator new(std::size_t n, std::align_val_t) { return checked_malloc(n); }
void* operator new[](std::size_t n, std::align_val_t) {
  return checked_malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace hal;

// --- Storm actors --------------------------------------------------------------

/// Small-message hop chain: every hop is one inline-args message (no
/// payload). With peer == self this is the local-send storm; across two
/// nodes it is the remote-send storm.
class Hopper : public ActorBase {
 public:
  void on_peer(Context&, MailAddress p) { peer = p; }
  void on_hop(Context& ctx, std::int64_t left) {
    if (left > 0) ctx.send<&Hopper::on_hop>(peer, left - 1);
  }
  HAL_BEHAVIOR(Hopper, &Hopper::on_peer, &Hopper::on_hop)
  MailAddress peer;
};

class Replier : public ActorBase {
 public:
  void on_ask(Context& ctx) { ctx.reply(++served); }
  HAL_BEHAVIOR(Replier, &Replier::on_ask)
  std::int64_t served = 0;
};

/// Sequential request/reply rounds against a remote server: each round is a
/// remote request, a remote reply routed to the join-continuation slot, and
/// a local self-send from the continuation body (3 messages per round, plus
/// one join continuation).
class Asker : public ActorBase {
 public:
  void on_init(Context&, MailAddress s) { server = s; }
  void on_go(Context& ctx, std::int64_t left) {
    if (left <= 0) return;
    const MailAddress me = ctx.self();
    ctx.request<&Replier::on_ask>(
        server, [me, left](Context& c, const JoinView&) {
          c.send<&Asker::on_go>(me, left - 1);
        });
  }
  HAL_BEHAVIOR(Asker, &Asker::on_init, &Asker::on_go)
  MailAddress server;
};

/// Actor turnover: a child that answers one request and terminates.
class Mayfly : public ActorBase {
 public:
  void on_ask(Context& ctx) {
    ctx.reply(1);
    ctx.terminate();
  }
  HAL_BEHAVIOR(Mayfly, &Mayfly::on_ask)
};

/// One child per round: create it locally, request through a join, and
/// start the next round from the join body (2 messages, 1 join, 1 actor).
class Spawner : public ActorBase {
 public:
  void on_go(Context& ctx, std::int64_t left) {
    if (left <= 0) return;
    const MailAddress child = ctx.create<Mayfly>();
    const MailAddress me = ctx.self();
    ctx.request<&Mayfly::on_ask>(
        child, [me, left](Context& c, const JoinView&) {
          c.send<&Spawner::on_go>(me, left - 1);
        });
  }
  HAL_BEHAVIOR(Spawner, &Spawner::on_go)
};

// --- Harness -------------------------------------------------------------------

struct StormOut {
  std::uint64_t allocs = 0;  ///< heap allocations during Runtime::run()
  double wall_s = 0.0;       ///< host wall time of Runtime::run()
  std::size_t descriptors = 0;  ///< live descriptors on all nodes after it
  obs::RunReport report;
};

template <typename SetupFn>
StormOut run_storm(NodeId nodes, SetupFn&& setup) {
  RuntimeConfig cfg;
  cfg.nodes = nodes;
  cfg.machine = hal::bench::env_machine(cfg.machine);
  cfg.mn_workers = hal::bench::env_mn_workers();
  Runtime rt(cfg);
  setup(rt);
  StormOut out;
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  rt.run();
  const auto t1 = std::chrono::steady_clock::now();
  g_counting.store(false, std::memory_order_relaxed);
  out.allocs = g_allocs.load(std::memory_order_relaxed);
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  for (NodeId n = 0; n < nodes; ++n) {
    out.descriptors += rt.kernel(n).names().live_descriptors();
  }
  out.report = rt.report();
  return out;
}

StormOut local_storm(std::int64_t hops) {
  return run_storm(1, [hops](Runtime& rt) {
    rt.load<Hopper>();
    const MailAddress a = rt.spawn<Hopper>(0);
    rt.inject<&Hopper::on_peer>(a, a);
    rt.inject<&Hopper::on_hop>(a, hops);
  });
}

StormOut remote_storm(std::int64_t hops) {
  return run_storm(2, [hops](Runtime& rt) {
    rt.load<Hopper>();
    const MailAddress a = rt.spawn<Hopper>(0);
    const MailAddress b = rt.spawn<Hopper>(1);
    rt.inject<&Hopper::on_peer>(a, b);
    rt.inject<&Hopper::on_peer>(b, a);
    rt.inject<&Hopper::on_hop>(a, hops);
  });
}

StormOut reply_storm(std::int64_t rounds) {
  return run_storm(2, [rounds](Runtime& rt) {
    rt.load<Replier>();
    rt.load<Asker>();
    const MailAddress server = rt.spawn<Replier>(0);
    const MailAddress asker = rt.spawn<Asker>(1);
    rt.inject<&Asker::on_init>(asker, server);
    rt.inject<&Asker::on_go>(asker, rounds);
  });
}

StormOut spawn_storm(std::int64_t rounds) {
  return run_storm(1, [rounds](Runtime& rt) {
    rt.load<Mayfly>();
    rt.load<Spawner>();
    const MailAddress s = rt.spawn<Spawner>(0);
    rt.inject<&Spawner::on_go>(s, rounds);
  });
}

/// One census row; a unit is a message, or a created actor for the spawn
/// storm.
struct Row {
  const char* name;
  double allocs_per_unit;
  double units_per_sec;
  std::uint64_t units;
  double descriptors_per_unit;  ///< marginal name-table growth
};

/// Marginal allocation rate: run at N and 2N, attribute the difference to
/// the extra units. One-time costs (pool warmup, ring growth to the
/// high-water mark, simulator event-queue doubling) appear in both runs and
/// cancel; what remains is the steady-state per-unit rate.
template <typename StormFn>
Row measure(const char* name, StormFn&& storm, std::int64_t n,
            std::int64_t units_per_round, StormOut* keep_report = nullptr) {
  const StormOut small = storm(n);
  const StormOut big = storm(2 * n);
  if (keep_report != nullptr) *keep_report = big;
  const double extra_units =
      static_cast<double>(units_per_round) * static_cast<double>(n);
  const double extra_allocs =
      big.allocs >= small.allocs
          ? static_cast<double>(big.allocs - small.allocs)
          : 0.0;
  const std::uint64_t big_units = static_cast<std::uint64_t>(
      units_per_round * 2 * n);
  const double extra_descriptors =
      big.descriptors >= small.descriptors
          ? static_cast<double>(big.descriptors - small.descriptors)
          : 0.0;
  return Row{name, extra_allocs / extra_units,
             static_cast<double>(big_units) / big.wall_s, big_units,
             extra_descriptors / extra_units};
}

void print_row(const Row& r) {
  std::printf("%-40s %12llu %14.3f %12.0f\n", r.name,
              static_cast<unsigned long long>(r.units), r.allocs_per_unit,
              r.units_per_sec);
}

}  // namespace

int main() {
  hal::bench::header(
      "Message-path allocation census (marginal allocs per message)",
      "zero-allocation small-message fast path (pooled buffers, ring "
      "dispatcher)");

  const bool paper = hal::bench::paper_scale();
  const std::int64_t send_n = paper ? 200000 : 20000;
  const std::int64_t reply_n = paper ? 50000 : 5000;
  const std::int64_t spawn_n = paper ? 50000 : 5000;

  StormOut reply_report;
  const Row rows[] = {
      measure("local send (1 node, inline args)", local_storm, send_n, 1),
      measure("remote send (2 nodes, inline args)", remote_storm, send_n, 1),
      measure("reply-to-continuation (2 nodes)", reply_storm, reply_n, 3,
              &reply_report),
  };
  const Row spawn =
      measure("spawn, request, terminate (1 node)", spawn_storm, spawn_n, 1);

  std::printf("%-40s %12s %14s %12s\n", "storm", "messages", "allocs/msg",
              "msgs/sec");
  for (const Row& r : rows) print_row(r);
  std::printf("%-40s %12s %14s %12s\n", "", "actors", "allocs/actor",
              "actors/sec");
  print_row(spawn);
  std::printf("%-40s %12s %14s\n", "", "actors", "descs/actor");
  std::printf("%-40s %12llu %14.3f\n", "descriptors retained (spawn storm)",
              static_cast<unsigned long long>(spawn.units),
              spawn.descriptors_per_unit);
  std::printf(
      "\nshape check: every message storm should sit at ~0 allocs/msg — the\n"
      "reply round's join continuation lives entirely inline (InlineFunction\n"
      "body, inline slots, no pooled buffer for a body-less request). The\n"
      "spawn storm should sit at 1 alloc/actor: the behaviour object; the\n"
      "recycled actor slot keeps its mailbox ring. It should retain 0\n"
      "descriptors per actor: each child's descriptor dies with it.\n");

  // Structured report from the largest reply storm: it populates the remote
  // delivery, mailbox residency, method execution, dispatch batch, and join
  // round-trip histograms.
  hal::bench::report_json(reply_report.report, "msgpath_alloc");

  // Optional hard budget over the three message storms (CI sets 0 on
  // SimMachine: the message path — including reply-to-continuation — must
  // be allocation-free at the margin). Presence of the variable enables the
  // check, so a budget of 0 is expressible. The spawn storm is held to 1
  // allocation per created actor, the behaviour object, and to no retained
  // descriptor per created actor, at any budget.
  if (std::getenv("HAL_MSGPATH_MAX_ALLOCS") != nullptr) {
    const unsigned budget =
        hal::bench::env_unsigned("HAL_MSGPATH_MAX_ALLOCS", 0);
    // Tolerance for O(log n) effects (ring/event-queue doubling) that do
    // not fully cancel in the marginal measurement.
    constexpr double kTolerance = 0.01;
    const double limit = static_cast<double>(budget) + kTolerance;
    for (const Row& r : rows) {
      if (r.allocs_per_unit > limit) {
        std::fprintf(stderr,
                     "FAIL: %s exceeded the allocation budget: %.3f > %u "
                     "allocs per small message\n",
                     r.name, r.allocs_per_unit, budget);
        return 1;
      }
    }
    if (spawn.allocs_per_unit > 1.0 + kTolerance) {
      std::fprintf(stderr,
                   "FAIL: %s exceeded the allocation budget: %.3f > 1 "
                   "allocs per created actor\n",
                   spawn.name, spawn.allocs_per_unit);
      return 1;
    }
    if (spawn.descriptors_per_unit > kTolerance) {
      std::fprintf(stderr,
                   "FAIL: %s retained %.3f > %.2f descriptors per created "
                   "actor\n",
                   spawn.name, spawn.descriptors_per_unit, kTolerance);
      return 1;
    }
    std::printf(
        "allocation budget: PASS (<= %u per small message, <= 1 per created "
        "actor, <= %.2f descriptors retained per created actor)\n",
        budget, kTolerance);
  }
  return 0;
}

#include "ledger.hpp"

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "am/link.hpp"
#include "am/park_handshake.hpp"
#include "am/run_token.hpp"
#include "am/wire_batch.hpp"
#include "baseline/seq_kernels.hpp"
#include "baseline/worksteal.hpp"
#include "common/buffer_pool.hpp"
#include "common/fast_clock.hpp"
#include "common/mpsc_queue.hpp"
#include "common/ring_buffer.hpp"
#include "common/ws_deque.hpp"
#include "name/name_table.hpp"
#include "runtime/api.hpp"
#include "runtime/dispatcher.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using hal::ActorBase;
using hal::Context;
using hal::MailAddress;

/// Keeps measured loops from being optimized away.
std::atomic<std::uint64_t> g_guard{0};
void keep(std::uint64_t v) { g_guard.fetch_add(v, std::memory_order_relaxed); }

constexpr int kBatches = 9;

/// Median nanoseconds per operation over kBatches timed batches of `ops`
/// operations each (after one untimed warm-up batch). `batch` runs `ops`
/// operations; it may return the elapsed ns itself (for batches whose timed
/// region excludes thread start-up), or 0 to be timed from outside.
double time_entry(SpanLog& spans, const std::string& name, std::uint64_t ops,
                  const std::function<std::uint64_t()>& batch) {
  const std::uint32_t entry = spans.begin("ledger:" + name);
  (void)batch();
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    const std::uint32_t span = spans.begin("batch");
    const std::uint64_t t0 = mono_ns();
    std::uint64_t ns = batch();
    if (ns == 0) ns = mono_ns() - t0;
    spans.end(span);
    per_op.push_back(static_cast<double>(ns) / static_cast<double>(ops));
  }
  spans.end(entry);
  std::sort(per_op.begin(), per_op.end());
  return per_op[per_op.size() / 2];
}

// --- common ------------------------------------------------------------------

std::uint64_t mpsc_three_to_one(std::uint64_t per_producer) {
  hal::MpscQueue<std::uint64_t> q;
  std::atomic<bool> go{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&q, &go, per_producer] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t i = 0; i < per_producer; ++i) q.push(i);
    });
  }
  const std::uint64_t t0 = mono_ns();
  go.store(true, std::memory_order_release);
  std::uint64_t got = 0;
  std::uint64_t sum = 0;
  while (got < 3 * per_producer) {
    if (auto v = q.pop()) {
      sum += *v;
      ++got;
    }
  }
  const std::uint64_t ns = mono_ns() - t0;
  for (std::thread& t : producers) t.join();
  keep(sum);
  return ns;
}

// --- am ----------------------------------------------------------------------

hal::am::Packet small_packet(std::uint64_t i) {
  hal::am::Packet p;
  p.src = 0;
  p.dst = 1;
  p.handler = 3;
  p.words = {i, 0x1234, i ^ 0x55, 0, 0, 0};
  p.stamp = i;
  return p;
}

/// One direction of the park/wake pair: the MnMachine inject-queue shape
/// (MPSC push, claim the handshake, notify under the mutex; the consumer
/// re-arms before every check).
struct Mailbox {
  hal::MpscQueue<std::uint64_t> q;
  hal::am::ParkHandshake<> sleeping;
  std::mutex mutex;
  std::condition_variable cv;

  void send(std::uint64_t v) {
    q.push(v);
    if (sleeping.claim_wake()) {
      std::lock_guard lock(mutex);
      cv.notify_one();
    }
  }
  std::uint64_t receive() {
    for (;;) {
      if (auto v = q.pop()) return *v;
      std::unique_lock lock(mutex);
      for (;;) {
        sleeping.arm();
        if (!q.empty()) break;
        cv.wait(lock);
      }
      sleeping.disarm();
    }
  }
};

std::uint64_t park_wake_round_trips(std::uint64_t rounds) {
  Mailbox to_b;
  Mailbox to_a;
  std::thread b([&] {
    for (std::uint64_t i = 0; i < rounds; ++i) to_a.send(to_b.receive() + 1);
  });
  const std::uint64_t t0 = mono_ns();
  std::uint64_t v = 0;
  for (std::uint64_t i = 0; i < rounds; ++i) {
    to_b.send(v);
    v = to_a.receive();
  }
  const std::uint64_t ns = mono_ns() - t0;
  b.join();
  keep(v);
  return ns;
}

/// Loopback wire between two link endpoints: transmissions queue here and
/// the test loop hands each to the endpoint it is addressed to.
class LoopWire final : public hal::am::LinkSink {
 public:
  void link_transmit(hal::am::Packet p, hal::SimTime) override {
    wire.push_back(std::move(p));
  }
  void link_deliver(hal::am::Packet p) override {
    delivered += p.words[0];
  }
  std::vector<hal::am::Packet> wire;
  std::uint64_t delivered = 0;
};

// --- runtime -----------------------------------------------------------------

class Target : public ActorBase {
 public:
  void on_call(Context&, std::int64_t v) { acc += v; }
  HAL_BEHAVIOR(Target, &Target::on_call)
  std::int64_t acc = 0;
};

hal::RuntimeConfig one_node() {
  hal::RuntimeConfig cfg;
  cfg.nodes = 1;
  return cfg;
}

// --- msg: 2-node MnMachine per-message cost ----------------------------------

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

class Echo : public ActorBase {
 public:
  void on_ask(Context& ctx, std::uint64_t v) { ctx.reply(v + 1); }
  HAL_BEHAVIOR(Echo, &Echo::on_ask)
};

class Asker;
struct AskStep {
  MailAddress echo;
  std::uint64_t left = 0;
  void operator()(Context& jc, const hal::JoinView& v) const;
};

class Asker : public ActorBase {
 public:
  void on_go(Context& ctx, MailAddress echo, std::uint64_t left) {
    ctx.request<&Echo::on_ask>(echo, AskStep{echo, left}, left);
  }
  void on_count(Context&, std::uint64_t ok) { answered += ok; }
  HAL_BEHAVIOR(Asker, &Asker::on_go, &Asker::on_count)
  std::uint64_t answered = 0;
};

void AskStep::operator()(Context& jc, const hal::JoinView& v) const {
  if (v.word(0) == left + 1 && left > 1) {
    jc.request<&Echo::on_ask>(echo, AskStep{echo, left - 1}, left - 1);
  } else {
    jc.send<&Asker::on_count>(jc.self(), std::uint64_t{v.word(0) == left + 1});
  }
}

/// Cilk-style continuation-passing fib on the Chase–Lev pool (the same
/// comparator bench/table4_fib runs).
std::uint64_t ws_fib(hal::baseline::WorkStealPool& pool, unsigned n,
                     unsigned cutoff) {
  struct Node {
    std::atomic<int> pending{2};
    std::uint64_t parts[2] = {0, 0};
    Node* parent = nullptr;
    int slot = 0;
  };
  std::atomic<std::uint64_t> result{0};
  std::function<void(unsigned, Node*, int)> spawn = [&](unsigned m,
                                                        Node* parent,
                                                        int slot) {
    if (m < cutoff) {
      std::uint64_t value = hal::baseline::fib_seq(m);
      Node* cur = parent;
      int s = slot;
      while (cur != nullptr) {
        cur->parts[s] = value;
        if (cur->pending.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
        value = cur->parts[0] + cur->parts[1];
        Node* up = cur->parent;
        s = cur->slot;
        delete cur;
        cur = up;
      }
      result.store(value, std::memory_order_release);
      return;
    }
    auto* node = new Node;
    node->parent = parent;
    node->slot = slot;
    pool.fork([&spawn, m, node] { spawn(m - 1, node, 0); });
    pool.fork([&spawn, m, node] { spawn(m - 2, node, 1); });
  };
  pool.run([&] { spawn(n, nullptr, 0); });
  return result.load(std::memory_order_acquire);
}

}  // namespace

std::string run_ledger(SpanLog& spans) {
  JsonObject out;
  auto entry = [&](const std::string& name, std::uint64_t ops,
                   const std::function<std::uint64_t()>& batch) {
    out.num(name, time_entry(spans, name, ops, batch));
  };

  // common
  {
    hal::MpscQueue<std::uint64_t> q;
    constexpr std::uint64_t kOps = 200'000;
    entry("common.mpsc_push_pop_ns", kOps, [&] {
      std::uint64_t sum = 0;
      for (std::uint64_t i = 0; i < kOps; ++i) {
        q.push(i);
        sum += *q.pop();
      }
      keep(sum);
      return std::uint64_t{0};
    });
  }
  {
    constexpr std::uint64_t kPer = 100'000;
    entry("common.mpsc_3to1_ns", 3 * kPer,
          [&] { return mpsc_three_to_one(kPer); });
  }
  {
    hal::WsDeque<std::uint64_t> d;
    std::uint64_t item = 7;
    constexpr std::uint64_t kOps = 1'000'000;
    entry("common.wsdeque_push_pop_ns", kOps, [&] {
      std::uint64_t sum = 0;
      for (std::uint64_t i = 0; i < kOps; ++i) {
        d.push_bottom(&item);
        sum += *d.pop_bottom();
      }
      keep(sum);
      return std::uint64_t{0};
    });
    entry("common.wsdeque_steal_ns", kOps, [&] {
      std::uint64_t sum = 0;
      for (std::uint64_t i = 0; i < kOps; ++i) {
        d.push_bottom(&item);
        sum += *d.steal_top();
      }
      keep(sum);
      return std::uint64_t{0};
    });
  }
  {
    hal::BufferPool pool;
    constexpr std::uint64_t kOps = 500'000;
    for (const std::size_t bytes : {std::size_t{64}, std::size_t{4096}}) {
      const std::string name = bytes == 64
                                   ? "common.pool_acquire_release_64_ns"
                                   : "common.pool_acquire_release_4k_ns";
      entry(name, kOps, [&pool, bytes] {
        std::uint64_t sum = 0;
        for (std::uint64_t i = 0; i < kOps; ++i) {
          hal::Bytes b = pool.acquire(bytes);
          sum += b.size();
          pool.release(std::move(b));
        }
        keep(sum);
        return std::uint64_t{0};
      });
    }
  }
  {
    hal::RingDeque<std::uint64_t> ring;
    for (std::uint64_t i = 0; i < 16; ++i) ring.push_back(i);
    constexpr std::uint64_t kOps = 1'000'000;
    entry("common.ring_push_take_ns", kOps, [&] {
      std::uint64_t sum = 0;
      for (std::uint64_t i = 0; i < kOps; ++i) {
        ring.push_back(i);
        sum += ring.take_front();
      }
      keep(sum);
      return std::uint64_t{0};
    });
  }

  // am
  {
    const hal::am::BatchConfig cfg;
    hal::BufferPool pool;
    hal::am::FrameBuilder fb;
    constexpr std::uint64_t kOps = 200'000;
    entry("am.frame_add_ns", kOps, [&] {
      std::uint64_t frames = 0;
      for (std::uint64_t i = 0; i < kOps; ++i) {
        hal::am::Packet p = small_packet(i);
        if (!fb.fits(p, cfg) || fb.count() >= cfg.max_msgs) {
          hal::am::Packet f =
              fb.close(0, 1, hal::am::FlushCause::kFill, cfg);
          pool.release(std::move(f.payload));
          ++frames;
        }
        fb.add(std::move(p), i, cfg, pool);
      }
      keep(frames);
      return std::uint64_t{0};
    });

    // Decode: a full frame (the storm's fill), read whole.
    hal::am::FrameBuilder one;
    for (std::uint64_t i = 0; i < cfg.max_msgs; ++i) {
      one.add(small_packet(i), i, cfg, pool);
    }
    const hal::am::Packet frame =
        one.close(0, 1, hal::am::FlushCause::kFill, cfg);
    constexpr std::uint64_t kFrames = 5'000;
    entry("am.frame_decode_ns", kFrames * cfg.max_msgs, [&] {
      std::uint64_t sum = 0;
      hal::am::Packet out_p;
      for (std::uint64_t f = 0; f < kFrames; ++f) {
        hal::am::FrameReader reader(frame);
        while (reader.next(out_p, pool)) sum += out_p.words[0];
      }
      keep(sum);
      return std::uint64_t{0};
    });
  }
  {
    hal::am::RunTokenCell<> cell;
    constexpr std::uint64_t kOps = 1'000'000;
    entry("am.runtoken_cycle_ns", kOps, [&] {
      std::uint64_t requeues = 0;
      for (std::uint64_t i = 0; i < kOps; ++i) {
        if (cell.publish()) {
          cell.begin_quantum();
          requeues += cell.retire_or_requeue() ? 1U : 0U;
        }
      }
      keep(requeues);
      return std::uint64_t{0};
    });
  }
  {
    constexpr std::uint64_t kRounds = 5'000;
    entry("am.park_wake_ns", 2 * kRounds,
          [&] { return park_wake_round_trips(kRounds); });
  }
  {
    const hal::FastClock clock;
    constexpr std::uint64_t kOps = 1'000'000;
    entry("am.clock_now_ns", kOps, [&] {
      std::uint64_t sum = 0;
      for (std::uint64_t i = 0; i < kOps; ++i) sum += clock.now_ns();
      keep(sum);
      return std::uint64_t{0};
    });
  }
  {
    hal::am::FaultConfig faults;
    faults.enabled = true;  // the reliable link, with no faults injected
    hal::am::LinkEndpoint a;
    hal::am::LinkEndpoint b;
    a.configure(0, faults, 1'000'000'000, nullptr);
    b.configure(1, faults, 1'000'000'000, nullptr);
    LoopWire wire;
    constexpr std::uint64_t kOps = 100'000;
    entry("am.link_seq_ack_ns", kOps, [&] {
      for (std::uint64_t i = 0; i < kOps; ++i) {
        a.send_data(small_packet(i), i, wire);
        while (!wire.wire.empty()) {
          hal::am::Packet p = std::move(wire.wire.back());
          wire.wire.pop_back();
          (p.dst == 1 ? b : a).receive(std::move(p), wire);
        }
      }
      keep(wire.delivered);
      return std::uint64_t{0};
    });
  }

  // name
  {
    hal::StatBlock stats;
    hal::NameTable table(0, stats);
    constexpr std::uint32_t kNames = 1024;
    std::vector<MailAddress> home(kNames);
    std::vector<MailAddress> foreign(kNames);
    for (std::uint32_t i = 0; i < kNames; ++i) {
      const hal::SlotId s = table.allocate();
      home[i].home = 0;
      home[i].desc = s;
      foreign[i].home = 1;
      foreign[i].desc = hal::SlotId{i, 1};
      table.bind(foreign[i], s);
    }
    constexpr std::uint64_t kOps = 1'000'000;
    for (const bool is_home : {true, false}) {
      const std::vector<MailAddress>& names = is_home ? home : foreign;
      entry(is_home ? "name.resolve_home_ns" : "name.resolve_foreign_ns", kOps,
            [&] {
              std::uint64_t sum = 0;
              for (std::uint64_t i = 0; i < kOps; ++i) {
                sum += table.resolve(names[i % kNames]).index;
              }
              keep(sum);
              return std::uint64_t{0};
            });
    }
  }

  // runtime
  {
    hal::Runtime rt(one_node());
    rt.load<Target>();
    const MailAddress target = rt.spawn<Target>(0);
    hal::Kernel& k = rt.kernel(0);
    Context ctx(k, hal::SlotId{}, target, nullptr);
    constexpr std::uint64_t kOps = 200'000;
    entry("runtime.static_dispatch_ns", kOps, [&] {
      std::uint64_t fired = 0;
      for (std::uint64_t i = 0; i < kOps; ++i) {
        fired += hal::compiled::try_invoke_local<&Target::on_call>(
                     ctx, target, std::int64_t{1})
                     ? 1U
                     : 0U;
      }
      keep(fired);
      return std::uint64_t{0};
    });
    hal::Message msg;
    msg.dest = target;
    msg.selector = hal::sel<&Target::on_call>();
    hal::codec::encode_args(msg, std::int64_t{1});
    entry("runtime.generic_send_ns", kOps, [&] {
      std::uint64_t steps = 0;
      for (std::uint64_t i = 0; i < kOps; ++i) {
        k.send_message(msg);
        steps += k.step() ? 1U : 0U;
      }
      keep(steps);
      return std::uint64_t{0};
    });
    entry("runtime.join_fill_ns", kOps, [&] {
      for (std::uint64_t i = 0; i < kOps; ++i) {
        const hal::ContRef ref = k.make_join(
            1, [](Context&, const hal::JoinView& v) { keep(v.word(0)); },
            target);
        k.fill_join(ref.at(0), i, {});
      }
      return std::uint64_t{0};
    });
  }
  {
    constexpr std::uint64_t kOps = 20'000;
    entry("runtime.spawn_ns", kOps, [&] {
      hal::Runtime rt(one_node());
      rt.load<Target>();
      const std::uint64_t t0 = mono_ns();
      for (std::uint64_t i = 0; i < kOps; ++i) {
        keep(rt.spawn<Target>(0).desc.index);
      }
      return mono_ns() - t0;
    });
  }
  {
    hal::Dispatcher d;
    constexpr std::uint64_t kOps = 1'000'000;
    entry("runtime.dispatcher_ns", kOps, [&] {
      std::uint64_t sum = 0;
      for (std::uint64_t i = 0; i < kOps; ++i) {
        d.schedule_actor(hal::SlotId{static_cast<std::uint32_t>(i), 1});
        sum += d.next()->actor.index;
      }
      keep(sum);
      return std::uint64_t{0};
    });
  }
  return out.done();
}

std::string run_msg(const std::string& kind, std::uint64_t seed,
                    SpanLog& spans) {
  constexpr std::uint64_t kHops = 20'000;
  hal::RuntimeConfig cfg;
  cfg.nodes = 2;
  cfg.machine = hal::MachineKind::kMn;
  cfg.mn_workers = 2;
  cfg.seed = seed;
  hal::Runtime rt(cfg);
  std::uint64_t messages = 0;
  std::function<bool()> exact;
  if (kind == "local" || kind == "remote") {
    rt.load<Pinger>();
    const MailAddress a = rt.spawn<Pinger>(0);
    const MailAddress b = rt.spawn<Pinger>(kind == "local" ? 0 : 1);
    rt.inject<&Pinger::on_init>(a, b);
    rt.inject<&Pinger::on_init>(b, a);
    rt.inject<&Pinger::on_ping>(a, kHops - 1);
    messages = kHops;
    exact = [&rt, a, b] {
      const Pinger* pa = rt.find_behavior<Pinger>(a);
      const Pinger* pb_ = rt.find_behavior<Pinger>(b);
      return pa != nullptr && pb_ != nullptr && pa->hops + pb_->hops == kHops;
    };
  } else if (kind == "reply") {
    rt.load<Echo>();
    rt.load<Asker>();
    const MailAddress echo = rt.spawn<Echo>(1);
    const MailAddress asker = rt.spawn<Asker>(0);
    rt.inject<&Asker::on_go>(asker, echo, kHops / 2);
    messages = kHops;  // each request and each reply is one message
    exact = [&rt, asker] {
      const Asker* s = rt.find_behavior<Asker>(asker);
      return s != nullptr && s->answered == 1;
    };
  } else {
    return {};
  }
  const std::uint64_t t0 = mono_ns();
  spans.around("Runtime::run", [&] {
    rt.run();
    return 0;
  });
  const std::uint64_t ns = mono_ns() - t0;
  JsonObject o;
  o.boolean("exact", exact() && rt.dead_letters() == 0);
  o.num("ns_per_msg", static_cast<double>(ns) / static_cast<double>(messages));
  return o.done();
}

std::string run_pool(SpanLog& spans) {
  constexpr unsigned kPoolReps = 7;
  const std::uint32_t workers = shape_of(Workload::kFib).workers;
  hal::baseline::WorkStealPool pool(workers);
  std::vector<double> seconds;
  bool exact = true;
  (void)ws_fib(pool, kFibN, kFibCutoff);  // warm-up
  for (unsigned r = 0; r < kPoolReps; ++r) {
    const std::uint64_t t0 = mono_ns();
    const std::uint64_t v = spans.around(
        "WorkStealPool::run", [&] { return ws_fib(pool, kFibN, kFibCutoff); });
    seconds.push_back(static_cast<double>(mono_ns() - t0) * 1e-9);
    exact = exact && v == fib_value(kFibN);
  }
  std::sort(seconds.begin(), seconds.end());
  JsonObject o;
  o.boolean("exact", exact);
  o.num("ws_fib_s", seconds[seconds.size() / 2]);
  o.num("workers", std::uint64_t{workers});
  return o.done();
}

}  // namespace pb

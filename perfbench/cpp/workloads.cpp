#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "am/mn_machine.hpp"
#include "baseline/seq_kernels.hpp"
#include "runtime/api.hpp"

namespace pb {

using hal::ActorBase;
using hal::ContRef;
using hal::Context;
using hal::JoinView;
using hal::MailAddress;
using hal::NodeId;
using hal::SimTime;

// --- Seeded inputs -----------------------------------------------------------

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t storm_base(std::uint64_t seed, NodeId sender) {
  return mix(seed * 8 + sender) & 0xffffffffULL;
}

std::uint64_t storm_expected_sum(std::uint64_t seed) {
  constexpr std::uint64_t c = kStormPerSender;
  std::uint64_t sum = 0;
  for (NodeId s = 1; s <= kStormSenders; ++s) {
    sum += c * storm_base(seed, s) + c * (c - 1) / 2;
  }
  return sum;
}

std::uint64_t rpc_value(std::uint64_t seed, std::uint32_t client,
                        std::uint64_t index) {
  return mix(mix(seed) ^ (std::uint64_t{client} << 40) ^ index) &
         0xffffffffULL;
}

std::uint64_t rpc_reply(std::uint64_t value) { return 3 * value + 1; }

std::uint64_t rpc_expected_total(std::uint64_t seed) {
  std::uint64_t total = 0;
  for (std::uint32_t c = 0; c < kRpcClients; ++c) {
    for (std::uint64_t i = 0; i < kRpcPerClient; ++i) {
      total += rpc_value(seed, c, i);
    }
  }
  return total;
}

std::uint64_t fib_value(unsigned n) {
  std::uint64_t a = 0;
  std::uint64_t b = 1;
  for (unsigned i = 0; i < n; ++i) {
    const std::uint64_t c = a + b;
    a = b;
    b = c;
  }
  return a;
}

// --- Exact checks ------------------------------------------------------------

std::string check_fib(std::uint64_t value, std::uint64_t dead_letters) {
  if (value != fib_value(kFibN)) {
    return "fib(" + std::to_string(kFibN) + ") = " + std::to_string(value) +
           ", want " + std::to_string(fib_value(kFibN));
  }
  if (dead_letters != 0) {
    return std::to_string(dead_letters) + " dead letters";
  }
  return {};
}

std::string check_storm(std::uint64_t seed, std::uint64_t sum,
                        std::uint64_t count, std::uint64_t dead_letters) {
  constexpr std::uint64_t want = kStormSenders * kStormPerSender;
  if (count != want) {
    return "storm delivered " + std::to_string(count) + " messages, want " +
           std::to_string(want);
  }
  if (sum != storm_expected_sum(seed)) {
    return "storm sum " + std::to_string(sum) + ", want " +
           std::to_string(storm_expected_sum(seed));
  }
  if (dead_letters != 0) {
    return std::to_string(dead_letters) + " dead letters";
  }
  return {};
}

std::string check_rpc(std::uint64_t seed, const RpcOutcome& o) {
  const std::uint64_t want_count = kRpcClients * kRpcPerClient;
  if (o.server_count != want_count) {
    return "rpc server handled " + std::to_string(o.server_count) +
           " requests, want " + std::to_string(want_count);
  }
  if (o.server_total != rpc_expected_total(seed)) {
    return "rpc server total " + std::to_string(o.server_total) + ", want " +
           std::to_string(rpc_expected_total(seed));
  }
  if (o.migrations != want_count / kRpcMigrateEvery) {
    return "rpc server migrated " + std::to_string(o.migrations) +
           " times, want " + std::to_string(want_count / kRpcMigrateEvery);
  }
  if (o.clients_done != kRpcClients || o.bad_replies != 0) {
    return "rpc: " + std::to_string(o.clients_done) + " of " +
           std::to_string(kRpcClients) + " clients finished, " +
           std::to_string(o.bad_replies) + " wrong replies";
  }
  if (o.dead_letters != 0) {
    return std::to_string(o.dead_letters) + " dead letters";
  }
  return {};
}

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "fib") return Workload::kFib;
  if (name == "storm") return Workload::kStorm;
  if (name == "rpc") return Workload::kRpc;
  return std::nullopt;
}

Shape shape_of(Workload w) {
  switch (w) {
    case Workload::kFib:
    case Workload::kStorm:
      return {4, 4};
    case Workload::kRpc:
      return {16, 4};
  }
  return {};
}

namespace {

// --- Per-node sample sinks ---------------------------------------------------
//
// Latency samples and client tallies are written by actor and continuation
// code into the sink of the node it runs on. A node runs on one worker at a
// time and successive workers are ordered by the run-token handoff, so each
// sink has a single writer at any moment without locks.

struct alignas(64) NodeSink {
  std::vector<std::uint32_t> latency_ns;
  std::uint64_t bad = 0;
  std::uint64_t done = 0;
};

std::vector<NodeSink> g_sinks;
std::uint64_t g_seed = 0;  // read-only while a run is in progress

NodeSink& sink(Context& ctx) { return g_sinks[ctx.node()]; }

void record_latency(Context& ctx, SimTime start) {
  const SimTime now = ctx.now();
  sink(ctx).latency_ns.push_back(
      static_cast<std::uint32_t>(std::min<SimTime>(now - start, 0xffffffffU)));
}

// --- fib ---------------------------------------------------------------------

/// Virtual work units per inlined call, as in apps/fib (Table 4).
constexpr std::uint64_t kWorkPerCall = 4;

/// One actor per call at or above the cutoff, exactly the shape of
/// apps/fib's FibActor. Actors at the cutoff level time their two-child
/// request round trip (create → join fired) as the workload's latency.
class FibActor : public ActorBase {
 public:
  void on_compute(Context& ctx, std::uint64_t n, std::uint64_t cutoff,
                  ContRef reply) {
    if (n < cutoff) {
      // The leaf runs inline as the naive recursion, which makes
      // 2·fib(n+1) − 1 calls.
      const auto leaf = static_cast<unsigned>(n);
      ctx.charge_work((2 * fib_value(leaf + 1) - 1) * kWorkPerCall);
      ctx.reply_to(reply, hal::baseline::fib_seq(leaf));
      ctx.terminate();
      return;
    }
    ctx.charge_work(kWorkPerCall);
    const bool timed = n == cutoff;
    const SimTime t0 = timed ? ctx.now() : 0;
    const ContRef join = ctx.make_join(
        2, [reply, timed, t0](Context& jc, const JoinView& v) {
          if (timed) record_latency(jc, t0);
          jc.kernel().reply_to(reply, v.word(0) + v.word(1));
        });
    const MailAddress left = ctx.create<FibActor>();
    const MailAddress right = ctx.create<FibActor>();
    ctx.set_relocatable(left, true);
    ctx.set_relocatable(right, true);
    ctx.send<&FibActor::on_compute>(left, n - 1, cutoff, join.at(0));
    ctx.send<&FibActor::on_compute>(right, n - 2, cutoff, join.at(1));
    ctx.terminate();
  }
  HAL_BEHAVIOR(FibActor, &FibActor::on_compute)

  bool migratable() const override { return true; }
  void pack_state(hal::ByteWriter&) const override {}
  void unpack_state(hal::ByteReader&) override {}
};

class FibRoot : public ActorBase {
 public:
  void on_start(Context& ctx, std::uint64_t n, std::uint64_t cutoff) {
    const ContRef join =
        ctx.make_join(1, [self = ctx.self()](Context& jc, const JoinView& v) {
          jc.send<&FibRoot::on_done>(self, v.word(0));
        });
    const MailAddress top = ctx.create<FibActor>();
    ctx.set_relocatable(top, true);
    ctx.send<&FibActor::on_compute>(top, n, cutoff, join.at(0));
  }
  void on_done(Context&, std::uint64_t value) { result = value; }
  HAL_BEHAVIOR(FibRoot, &FibRoot::on_start, &FibRoot::on_done)

  std::uint64_t result = 0;
};

// --- storm -------------------------------------------------------------------

/// Every this many counted messages carries a send stamp; the counter turns
/// it into a one-way delivery latency sample.
constexpr std::uint64_t kStormStampEvery = 64;

class Counter : public ActorBase {
 public:
  void on_add(Context& ctx, std::uint64_t v, std::uint64_t stamp) {
    sum += v;
    ++count;
    if (stamp != 0) record_latency(ctx, stamp);
  }
  /// A flooder's chunk has been counted: give it the credit for one more.
  void on_chunk_end(Context& ctx, MailAddress from);
  HAL_BEHAVIOR(Counter, &Counter::on_add, &Counter::on_chunk_end)

  std::uint64_t sum = 0;
  std::uint64_t count = 0;
};

/// Streams its counted values at the counter in chunks of kStormChunk, one
/// chunk per dispatch, with at most kStormWindow chunks not yet counted.
/// The window keeps the counter's backlog bounded, so a send stamp measures
/// delivery through a queue of fixed depth, not a backlog that grows with
/// how far the senders outrun the counter.
class Flooder : public ActorBase {
 public:
  void on_init(Context&, MailAddress dst, std::uint64_t base) {
    dst_ = dst;
    next_ = base;
  }
  void on_flood(Context& ctx, std::uint64_t total) {
    left_ = total;
    for (unsigned i = 0; i < kStormWindow; ++i) send_chunk(ctx);
  }
  void on_credit(Context& ctx) { send_chunk(ctx); }
  HAL_BEHAVIOR(Flooder, &Flooder::on_init, &Flooder::on_flood,
               &Flooder::on_credit)

 private:
  void send_chunk(Context& ctx) {
    if (left_ == 0) return;
    const std::uint64_t chunk = std::min(left_, kStormChunk);
    for (std::uint64_t i = 0; i < chunk; ++i) {
      const std::uint64_t stamp =
          (sent_++ % kStormStampEvery == 0) ? std::max<SimTime>(ctx.now(), 1)
                                            : 0;
      ctx.send<&Counter::on_add>(dst_, next_++, stamp);
    }
    left_ -= chunk;
    if (left_ != 0) ctx.send<&Counter::on_chunk_end>(dst_, ctx.self());
  }

  MailAddress dst_;
  std::uint64_t next_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t left_ = 0;
};

void Counter::on_chunk_end(Context& ctx, MailAddress from) {
  ctx.send<&Flooder::on_credit>(from);
}

// --- rpc ---------------------------------------------------------------------

/// The roaming server: sums request values, replies 3v+1, and every
/// kRpcMigrateEvery requests moves round-robin to the next of nodes 0-3.
class Server : public ActorBase {
 public:
  void on_req(Context& ctx, std::uint64_t v) {
    total += v;
    ++count;
    ctx.reply(rpc_reply(v));
    if (count % kRpcMigrateEvery == 0) {
      ++migrations;
      ctx.migrate_to(static_cast<NodeId>((ctx.node() + 1) % kRpcServerNodes));
    }
  }
  HAL_BEHAVIOR(Server, &Server::on_req)

  bool migratable() const override { return true; }
  void pack_state(hal::ByteWriter& w) const override {
    w.write(total);
    w.write(count);
    w.write(migrations);
  }
  void unpack_state(hal::ByteReader& r) override {
    total = r.read<std::uint64_t>();
    count = r.read<std::uint64_t>();
    migrations = r.read<std::uint64_t>();
  }

  std::uint64_t total = 0;
  std::uint64_t count = 0;
  std::uint64_t migrations = 0;
};

void issue_request(Context& ctx, const MailAddress& server,
                   std::uint32_t client, std::uint32_t index);

/// Continuation of one client request: time it, check the reply, issue the
/// next request (closed loop).
struct ClientStep {
  MailAddress server;
  SimTime t0 = 0;
  std::uint32_t client = 0;
  std::uint32_t index = 0;

  void operator()(Context& jc, const JoinView& v) const {
    record_latency(jc, t0);
    if (v.word(0) != rpc_reply(rpc_value(g_seed, client, index))) {
      ++sink(jc).bad;
    }
    if (index + 1 < kRpcPerClient) {
      issue_request(jc, server, client, index + 1);
    } else {
      ++sink(jc).done;
    }
  }
};

void issue_request(Context& ctx, const MailAddress& server,
                   std::uint32_t client, std::uint32_t index) {
  ctx.request<&Server::on_req>(server,
                               ClientStep{server, ctx.now(), client, index},
                               rpc_value(g_seed, client, index));
}

class Client : public ActorBase {
 public:
  void on_start(Context& ctx, MailAddress server, std::uint64_t client) {
    issue_request(ctx, server, static_cast<std::uint32_t>(client), 0);
  }
  HAL_BEHAVIOR(Client, &Client::on_start)
};

// --- Harness -----------------------------------------------------------------

hal::RuntimeConfig config_for(Workload w, std::uint64_t seed,
                              hal::MachineKind machine) {
  hal::RuntimeConfig cfg;
  const Shape shape = shape_of(w);
  cfg.nodes = shape.nodes;
  cfg.machine = machine;
  cfg.mn_workers = shape.workers;
  // fib has no seeded input, and the balancer's polling seed moves its
  // time: the SimMachine makespan is bimodal in it (about 1.76 or 2.6
  // virtual s) and MnMachine medians differ by up to 10% between seeds. So
  // fib always runs at one fixed runtime seed.
  cfg.seed = w == Workload::kFib ? kFibSeed : seed;
  cfg.load_balancing = w == Workload::kFib;
  return cfg;
}

/// Checks a workload's results after run(), reading the state of the actor
/// whose address it is given.
using Checker = std::string (*)(hal::Runtime&, std::uint64_t,
                                const MailAddress&);

std::string check_fib_run(hal::Runtime& rt, std::uint64_t,
                          const MailAddress& root) {
  const FibRoot* r = rt.find_behavior<FibRoot>(root);
  return check_fib(r == nullptr ? 0 : r->result, rt.dead_letters());
}

std::string check_storm_run(hal::Runtime& rt, std::uint64_t seed,
                            const MailAddress& counter) {
  const Counter* c = rt.find_behavior<Counter>(counter);
  if (c == nullptr) return "storm counter not found";
  return check_storm(seed, c->sum, c->count, rt.dead_letters());
}

std::string check_rpc_run(hal::Runtime& rt, std::uint64_t seed,
                          const MailAddress& server) {
  const Server* s = rt.find_behavior<Server>(server);
  if (s == nullptr) return "rpc server not found";
  RpcOutcome o;
  o.server_total = s->total;
  o.server_count = s->count;
  o.migrations = s->migrations;
  for (const NodeSink& n : g_sinks) {
    o.clients_done += n.done;
    o.bad_replies += n.bad;
  }
  o.dead_letters = rt.dead_letters();
  return check_rpc(seed, o);
}

}  // namespace

RepResult run_workload(Workload w, std::uint64_t seed,
                       hal::MachineKind machine, SpanLog& spans) {
  const Shape shape = shape_of(w);
  g_seed = seed;
  g_sinks.assign(shape.nodes, NodeSink{});
  for (NodeSink& s : g_sinks) s.latency_ns.reserve(1 << 16);

  RepResult out;
  const std::uint64_t t_setup = mono_ns();
  const std::uint32_t setup_span = spans.begin("setup");
  auto rt = spans.around("Runtime::Runtime", [&] {
    return std::make_unique<hal::Runtime>(config_for(w, seed, machine));
  });
  MailAddress checked;  // the actor whose state the check reads
  Checker check = nullptr;
  switch (w) {
    case Workload::kFib: {
      spans.around("Runtime::load", [&] {
        rt->load<FibActor>();
        return rt->load<FibRoot>();
      });
      checked = spans.around("Runtime::spawn",
                             [&] { return rt->spawn<FibRoot>(0); });
      spans.around("Runtime::inject", [&] {
        rt->inject<&FibRoot::on_start>(checked, std::uint64_t{kFibN},
                                       std::uint64_t{kFibCutoff});
        return 0;
      });
      check = check_fib_run;
      break;
    }
    case Workload::kStorm: {
      spans.around("Runtime::load", [&] {
        rt->load<Counter>();
        return rt->load<Flooder>();
      });
      std::array<MailAddress, kStormSenders + 1> actors{};
      spans.around("Runtime::spawn", [&] {
        actors[0] = rt->spawn<Counter>(0);
        for (NodeId s = 1; s <= kStormSenders; ++s) {
          actors[s] = rt->spawn<Flooder>(s);
        }
        return 0;
      });
      spans.around("Runtime::inject", [&] {
        for (NodeId s = 1; s <= kStormSenders; ++s) {
          rt->inject<&Flooder::on_init>(actors[s], actors[0],
                                        storm_base(seed, s));
          rt->inject<&Flooder::on_flood>(actors[s], kStormPerSender);
        }
        return 0;
      });
      checked = actors[0];
      check = check_storm_run;
      break;
    }
    case Workload::kRpc: {
      spans.around("Runtime::load", [&] {
        rt->load<Server>();
        return rt->load<Client>();
      });
      std::array<MailAddress, kRpcClients> clients{};
      spans.around("Runtime::spawn", [&] {
        checked = rt->spawn<Server>(0);
        for (std::uint32_t c = 0; c < kRpcClients; ++c) {
          clients[c] =
              rt->spawn<Client>(static_cast<NodeId>(kRpcFirstClientNode + c));
        }
        return 0;
      });
      spans.around("Runtime::inject", [&] {
        for (std::uint32_t c = 0; c < kRpcClients; ++c) {
          rt->inject<&Client::on_start>(clients[c], checked, std::uint64_t{c});
        }
        return 0;
      });
      check = check_rpc_run;
      break;
    }
  }
  spans.end(setup_span);
  const std::uint64_t t_run = mono_ns();
  spans.around("Runtime::run", [&] {
    rt->run();
    return 0;
  });
  const std::uint64_t t_done = mono_ns();
  out.setup_s = static_cast<double>(t_run - t_setup) * 1e-9;
  out.run_s = static_cast<double>(t_done - t_run) * 1e-9;

  out.report = spans.around("Runtime::report", [&] { return rt->report(); });
  out.delivered = out.report.total.get(hal::Stat::kMessagesDelivered);
  if (auto* mn = dynamic_cast<hal::am::MnMachine*>(&rt->machine())) {
    out.worker_steals = mn->steals();
  }
  out.error = check(*rt, seed, checked);
  const hal::DrainStats drained =
      spans.around("Runtime::shutdown_drain",
                   [&] { return rt->shutdown_drain(); });
  if (out.error.empty() && drained.messages != 0) {
    out.error = std::to_string(drained.messages) +
                " messages still buffered at shutdown";
  }

  std::vector<std::uint32_t> all;
  for (NodeSink& s : g_sinks) {
    all.insert(all.end(), s.latency_ns.begin(), s.latency_ns.end());
  }
  out.latency = summarize(all);
  spans.around("Runtime::~Runtime", [&] {
    rt.reset();
    return 0;
  });
  return out;
}

}  // namespace pb

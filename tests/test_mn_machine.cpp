// MnMachine: the P >> N regime — node affinity under work stealing,
// termination with thousands of nodes on a handful of workers, link-layer
// recovery on a multiplexed pool, and the large-P assumptions audit
// (RuntimeConfig::validate at P = 16384, detector and probe memory).
//
// Suite names all contain "MnMachine" so the whole file rides the TSan CI
// job's -R 'Stress|MnMachine|Bulk|Fault' soak filter: the node-state token
// protocol, the Chase-Lev deques, and the cross-worker mailbox handoff are
// exactly the code paths a 50x repeat under ThreadSanitizer is meant to
// shake.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "am/mn_machine.hpp"
#include "apps/fib.hpp"
#include "common/termination.hpp"
#include "obs/probe_recorder.hpp"
#include "runtime/api.hpp"

namespace hal {
namespace {

// --- Machine-level harness ----------------------------------------------------

/// Counts with a PLAIN int on purpose: the machine's contract is one
/// execution stream per node (a node never runs on two workers at once, and
/// the token-state RMWs hand the stream over with happens-before). A data
/// race here is the TSan soak's way of catching a broken handoff.
class CountingClient : public am::NodeClient {
 public:
  std::function<void(am::Packet)> on_packet;
  std::uint64_t handled = 0;

  void handle(am::Packet p) override {
    ++handled;
    if (on_packet) on_packet(std::move(p));
  }
  bool step() override { return false; }
  bool has_work() const override { return false; }
};

struct MnHarness {
  am::MnMachine machine;
  std::vector<CountingClient> clients;

  MnHarness(NodeId nodes, std::uint32_t workers)
      : machine(nodes, am::CostModel::zero(), workers), clients(nodes) {
    for (NodeId n = 0; n < nodes; ++n) machine.attach(n, &clients[n]);
  }
};

am::Packet make_packet(NodeId src, NodeId dst, std::uint64_t tag) {
  am::Packet p;
  p.src = src;
  p.dst = dst;
  p.handler = 1;
  p.words[0] = tag;
  return p;
}

// --- Delivery and termination at P >> N ---------------------------------------

TEST(MnMachine, FanoutAndRepliesAtLargeFanoutSmallPool) {
  constexpr NodeId kNodes = 256;
  MnHarness h(kNodes, 2);
  // Every node acks node 0 when pinged; node 0 must see every ack.
  for (NodeId n = 1; n < kNodes; ++n) {
    h.clients[n].on_packet = [&h, n](am::Packet p) {
      h.machine.send(make_packet(n, 0, p.words[0]));
    };
  }
  for (NodeId n = 1; n < kNodes; ++n) {
    h.machine.send(make_packet(0, n, n));
  }
  h.machine.run();
  EXPECT_EQ(h.clients[0].handled, kNodes - 1u);
  for (NodeId n = 1; n < kNodes; ++n) {
    EXPECT_EQ(h.clients[n].handled, 1u) << "node " << n;
  }
}

TEST(MnMachine, TerminationAtThousandNodesOnFourWorkers) {
  constexpr NodeId kNodes = 1024;
  MnHarness h(kNodes, 4);
  // Relay ring seeded at a single node: termination must see the one packet
  // hopping among 1024 mailboxes and declare quiescence exactly when the
  // countdown dies — not before (stranded token) and not never (lost wake).
  for (NodeId n = 0; n < kNodes; ++n) {
    h.clients[n].on_packet = [&h, n](am::Packet p) {
      if (p.words[0] > 0) {
        h.machine.send(make_packet(n, (n + 1) % kNodes, p.words[0] - 1));
      }
    };
  }
  h.machine.send(make_packet(0, 1, 3000));
  h.machine.run();
  std::uint64_t total = 0;
  for (auto& c : h.clients) total += c.handled;
  EXPECT_EQ(total, 3001u);
  // Epoch conservation: every unit (packet or run token) that was sent got
  // handled — the double scan's sent == handled held at the end.
  EXPECT_EQ(h.machine.units_sent(), h.machine.units_handled());
}

TEST(MnMachine, NodeAffinityUnderStealing) {
  // All traffic is seeded through node 0, so every relay token is born in
  // the deque of whichever worker runs node 0 — the other workers only get
  // work by stealing. The plain per-node counters stay exact throughout
  // (stolen nodes carry their execution stream with them).
  constexpr NodeId kNodes = 64;
  constexpr std::uint32_t kWorkers = 4;
  constexpr std::uint64_t kBursts = 32;
  std::uint64_t steals = 0;
  for (int attempt = 0; attempt < 10 && steals == 0; ++attempt) {
    MnHarness h(kNodes, kWorkers);
    h.clients[0].on_packet = [&h](am::Packet p) {
      if (p.words[0] == 0) return;  // an echo, not a burst trigger
      for (NodeId n = 1; n < kNodes; ++n) {
        h.machine.send(make_packet(0, n, p.words[0]));
      }
    };
    for (NodeId n = 1; n < kNodes; ++n) {
      h.clients[n].on_packet = [&h, n](am::Packet) {
        // ~1us of busy work per echo: without it the seeding worker drains
        // the whole flood before a parked thief wakes from its futex, and
        // the attempt observes zero steals.
        volatile std::uint64_t spin = 0;
        for (int i = 0; i < 2000; ++i) {
          spin = spin + static_cast<std::uint64_t>(i);
        }
        h.machine.send(make_packet(n, 0, 0));  // echo back
      };
    }
    for (std::uint64_t i = 1; i <= kBursts; ++i) {
      h.machine.send(make_packet(1, 0, i));
    }
    h.machine.run();
    // Node 0: kBursts triggers + (kNodes-1) echoes per burst.
    EXPECT_EQ(h.clients[0].handled, kBursts + kBursts * (kNodes - 1));
    for (NodeId n = 1; n < kNodes; ++n) {
      EXPECT_EQ(h.clients[n].handled, kBursts) << "node " << n;
    }
    steals = h.machine.steals();
  }
  // Stealing is timing-dependent (a worker parked at the wrong moment may
  // miss a window), hence the retry loop — but five floods through one
  // worker's deque without a single steal means the thief path is dead.
  EXPECT_GT(steals, 0u);
}

TEST(MnMachine, SixteenThousandNodesDeliverAndQuiesce) {
  // The validate() ceiling is the 16-bit wire encoding, not worker count:
  // a 16384-node machine on 4 workers must boot, deliver, and terminate.
  constexpr NodeId kNodes = 16384;
  MnHarness h(kNodes, 4);
  constexpr NodeId kStride = 1024;  // ping a scattered sample, reply to 0
  for (NodeId n = kStride - 1; n < kNodes; n += kStride) {
    h.clients[n].on_packet = [&h, n](am::Packet p) {
      h.machine.send(make_packet(n, 0, p.words[0]));
    };
    h.machine.send(make_packet(0, n, n));
  }
  h.machine.run();
  EXPECT_EQ(h.clients[0].handled, kNodes / kStride);
}

// --- Runtime-level: fib under loss at P >> N ----------------------------------

TEST(MnMachineRuntime, FibUnderLossAtLargePStaysExact) {
  apps::FibParams p;
  p.n = 16;
  p.cutoff = 8;
  p.nodes = 512;
  p.load_balancing = true;
  p.machine = MachineKind::kMn;
  p.mn_workers = 4;
  p.faults.enabled = true;
  p.faults.drop = 0.05;
  p.faults.duplicate = 0.02;
  p.faults.rto_ns = 500'000;
  const apps::FibResult r = apps::run_fib(p);
  EXPECT_EQ(r.value, 987u);
  EXPECT_EQ(r.dead_letters, 0u);
}

// --- Runtime-level: balancer-free closed loop ---------------------------------

// A scaled-down perfbench `rpc`: closed-loop clients, one roaming server,
// no balancer. Latency-bound, so every reply crosses workers through the
// search and claimed-wake paths the soak is meant to shake.
constexpr std::uint32_t kLoopClients = 12;
constexpr std::uint64_t kLoopRequests = 2000;
constexpr std::uint64_t kLoopMigrateEvery = 500;
constexpr NodeId kLoopServerNodes = 4;

std::uint64_t loop_value(std::uint64_t client, std::uint64_t index) {
  return client * 1'000'003 + index * 7 + 1;
}
std::uint64_t loop_reply(std::uint64_t value) { return 3 * value + 1; }

/// Sums request values, replies 3v+1, and every kLoopMigrateEvery requests
/// moves round-robin to the next of nodes 0..kLoopServerNodes-1.
class LoopServer : public ActorBase {
 public:
  void on_req(Context& ctx, std::uint64_t v) {
    total += v;
    ++count;
    ctx.reply(loop_reply(v));
    if (count % kLoopMigrateEvery == 0) {
      ++migrations;
      ctx.migrate_to(static_cast<NodeId>((ctx.node() + 1) % kLoopServerNodes));
    }
  }
  HAL_BEHAVIOR(LoopServer, &LoopServer::on_req)

  bool migratable() const override { return true; }
  void pack_state(ByteWriter& w) const override {
    w.write(total);
    w.write(count);
    w.write(migrations);
  }
  void unpack_state(ByteReader& r) override {
    total = r.read<std::uint64_t>();
    count = r.read<std::uint64_t>();
    migrations = r.read<std::uint64_t>();
  }

  std::uint64_t total = 0;
  std::uint64_t count = 0;
  std::uint64_t migrations = 0;
};

/// One request outstanding at a time: the reply's continuation checks the
/// value and sends the next request.
class LoopClient : public ActorBase {
 public:
  void on_start(Context& ctx, MailAddress server, std::uint64_t id) {
    server_ = server;
    id_ = id;
    request_next(ctx);
  }
  HAL_BEHAVIOR(LoopClient, &LoopClient::on_start)

  std::uint64_t replies = 0;
  std::uint64_t bad = 0;

 private:
  void request_next(Context& ctx) {
    const std::uint64_t v = loop_value(id_, replies);
    ctx.request<&LoopServer::on_req>(
        server_,
        [this, v](Context& jc, const JoinView& r) {
          if (r.word(0) != loop_reply(v)) ++bad;
          if (++replies < kLoopRequests) request_next(jc);
        },
        v);
  }

  MailAddress server_;
  std::uint64_t id_ = 0;
};

TEST(MnMachine, BalancerFreeClosedLoopStaysExactAndQuiet) {
  RuntimeConfig cfg;
  cfg.nodes = 16;
  cfg.machine = MachineKind::kMn;
  cfg.mn_workers = 4;
  cfg.load_balancing = false;
  Runtime rt(cfg);
  rt.load<LoopServer>();
  rt.load<LoopClient>();
  const MailAddress server = rt.spawn<LoopServer>(0);
  std::vector<MailAddress> clients;
  for (std::uint32_t c = 0; c < kLoopClients; ++c) {
    clients.push_back(
        rt.spawn<LoopClient>(static_cast<NodeId>(kLoopServerNodes + c)));
    rt.inject<&LoopClient::on_start>(clients.back(), server,
                                     std::uint64_t{c});
  }
  rt.run();

  std::uint64_t want_total = 0;
  for (std::uint64_t c = 0; c < kLoopClients; ++c) {
    for (std::uint64_t i = 0; i < kLoopRequests; ++i) {
      want_total += loop_value(c, i);
    }
  }
  const LoopServer* s = rt.find_behavior<LoopServer>(server);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, kLoopClients * kLoopRequests);
  EXPECT_EQ(s->total, want_total);
  EXPECT_EQ(s->migrations, kLoopClients * kLoopRequests / kLoopMigrateEvery);
  for (const MailAddress& a : clients) {
    const LoopClient* c = rt.find_behavior<LoopClient>(a);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->replies, kLoopRequests);
    EXPECT_EQ(c->bad, 0u);
  }
  EXPECT_EQ(rt.dead_letters(), 0u);

  // Without a balancer the work hint never leaves 0, so only stop() — once
  // per worker that reaches the quiescent verdict, at most — may bump the
  // wake epoch; no request edge rouses the whole pool.
  auto* mn = dynamic_cast<am::MnMachine*>(&rt.machine());
  ASSERT_NE(mn, nullptr);
  EXPECT_EQ(rt.machine().work_hint(), 0);
  EXPECT_LE(mn->wake_epoch(), std::uint64_t{mn->worker_count()});

  const DrainStats drained = rt.shutdown_drain();
  EXPECT_EQ(drained.messages, 0u);
  EXPECT_EQ(drained.payloads, 0u);
}

TEST(MnMachineRuntime, ReportCarriesMachineKindAndWorkerCount) {
  RuntimeConfig cfg;
  cfg.nodes = 8;
  cfg.machine = MachineKind::kMn;
  cfg.mn_workers = 3;
  Runtime rt(cfg);
  rt.run();
  const obs::RunReport r = rt.report();
  EXPECT_EQ(r.machine, "mn");
  EXPECT_EQ(r.workers, 3u);
  EXPECT_EQ(r.nodes, 8u);
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"machine\":\"mn\""), std::string::npos);
  EXPECT_NE(json.find("\"workers\":3"), std::string::npos);
}

TEST(MnMachineRuntime, WorkerCountIsCappedAtNodeCount) {
  RuntimeConfig cfg;
  cfg.nodes = 2;
  cfg.machine = MachineKind::kMn;
  cfg.mn_workers = 64;  // more workers than nodes cannot be scheduled
  Runtime rt(cfg);
  rt.run();
  EXPECT_EQ(rt.report().workers, 2u);
}

// --- Large-P assumptions audit (satellite 4) ----------------------------------

TEST(MnMachineConfig, ValidateAcceptsSixteenThousandNodes) {
  RuntimeConfig cfg;
  cfg.machine = MachineKind::kMn;
  cfg.nodes = 16384;
  EXPECT_FALSE(cfg.validate().has_value());
  cfg.nodes = kMaxNodes;  // 0xffff: the last id the wire encoding carries
  EXPECT_FALSE(cfg.validate().has_value());
  cfg.nodes = kMaxNodes + 1;
  const auto err = cfg.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code(), ConfigErrorCode::kTooManyNodes);
}

TEST(MnMachineConfig, MachineKindNamesRoundTrip) {
  for (const MachineKind k : {MachineKind::kSim, MachineKind::kMn}) {
    const auto parsed = parse_machine_kind(to_string(k));
    ASSERT_TRUE(parsed.has_value()) << to_string(k);
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(parse_machine_kind("").has_value());
  EXPECT_FALSE(parse_machine_kind("Sim").has_value());
  EXPECT_FALSE(parse_machine_kind("mn ").has_value());
  EXPECT_FALSE(parse_machine_kind("threads").has_value());
  EXPECT_FALSE(parse_machine_kind("thread").has_value());
}

TEST(MnMachineScale, TerminationDetectorHandlesSixteenThousandParticipants) {
  // Participant count is a shard-local counter, not a per-participant
  // table: 16384 participants must construct in O(shards) memory and the
  // double scan must still converge when they all leave.
  TerminationDetector det(16384);
  static_assert(sizeof(TerminationDetector) < 8192,
                "detector memory must not scale with participant count");
  det.note_sent(0);
  det.note_handled(0);
  for (std::uint32_t i = 0; i < 16384; ++i) det.deactivate(i);
  EXPECT_EQ(det.check([] { return std::uint64_t{0}; }),
            TerminationDetector::Verdict::kQuiescent);
}

TEST(MnMachineScale, PerNodeProbeMemoryIsBoundedAtLargeP) {
  // Runtime keeps one ProbeRecorder per node. At P = 16384 that footprint
  // is P * sizeof(ProbeRecorder); keep the per-node cost under 8 KiB so the
  // machine fits thousands of nodes in a few hundred MB, histograms
  // included.
  static_assert(sizeof(obs::ProbeRecorder) <= 8192,
                "per-node probe memory grew past the large-P budget");
  static_assert(sizeof(obs::Log2Histogram) <= 640,
                "histogram must stay a fixed 65-bucket array");
  SUCCEED();
}

}  // namespace
}  // namespace hal

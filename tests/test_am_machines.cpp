// Unit tests: active-message substrate (SimMachine, MnMachine, MST, bulk
// transfer protocol with minimal flow control).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <numeric>
#include <set>
#include <vector>

#include "am/bulk.hpp"
#include "am/mn_machine.hpp"
#include "am/mst.hpp"
#include "am/sim_machine.hpp"

namespace hal::am {
namespace {

// A scriptable node client for substrate tests.
class TestClient : public NodeClient {
 public:
  std::function<void(TestClient&, Packet)> on_packet;
  std::vector<Packet> received;

  void handle(Packet p) override {
    received.push_back(p);
    if (on_packet) on_packet(*this, std::move(p));
  }
  bool step() override { return false; }
  bool has_work() const override { return false; }
};

template <typename M>
struct Harness {
  M machine;
  std::vector<TestClient> clients;

  Harness(NodeId nodes, CostModel costs = CostModel::zero())
      : machine(nodes, costs), clients(nodes) {
    for (NodeId n = 0; n < nodes; ++n) machine.attach(n, &clients[n]);
  }
};

Packet make_packet(NodeId src, NodeId dst, std::uint64_t tag) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.handler = 1;
  p.words[0] = tag;
  return p;
}

// --- SimMachine -------------------------------------------------------------------

TEST(SimMachine, DeliversPacket) {
  Harness<SimMachine> h(2);
  h.machine.send(make_packet(0, 1, 77));
  h.machine.run();
  ASSERT_EQ(h.clients[1].received.size(), 1u);
  EXPECT_EQ(h.clients[1].received[0].words[0], 77u);
}

TEST(SimMachine, PerLinkFifoWithEqualSizes) {
  Harness<SimMachine> h(2);
  for (std::uint64_t i = 0; i < 50; ++i) h.machine.send(make_packet(0, 1, i));
  h.machine.run();
  ASSERT_EQ(h.clients[1].received.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(h.clients[1].received[i].words[0], i);
  }
}

TEST(SimMachine, VirtualTimeAdvancesWithCosts) {
  Harness<SimMachine> h(2, CostModel::cm5());
  h.machine.send(make_packet(0, 1, 0));
  h.machine.run();
  const CostModel c = CostModel::cm5();
  // Sender pays injection, receiver pays handler entry, wire in between.
  EXPECT_GE(h.machine.makespan(),
            c.packet_inject_ns + c.wire_latency_ns + c.handler_entry_ns);
}

TEST(SimMachine, DeterministicEventCount) {
  auto run_once = [] {
    Harness<SimMachine> h(4, CostModel::cm5());
    // Each node relays once: 0→1→2→3.
    for (NodeId n = 0; n < 3; ++n) {
      h.clients[n].on_packet = [](TestClient&, Packet) {};
    }
    h.clients[0].on_packet = nullptr;
    for (int i = 0; i < 10; ++i) h.machine.send(make_packet(0, 1, 5));
    h.machine.run();
    return h.machine.events_processed();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SimMachine, HandlerMaySendOnward) {
  Harness<SimMachine> h(3);
  h.clients[1].on_packet = [&h](TestClient&, Packet p) {
    h.machine.send(make_packet(1, 2, p.words[0] + 1));
  };
  h.machine.send(make_packet(0, 1, 10));
  h.machine.run();
  ASSERT_EQ(h.clients[2].received.size(), 1u);
  EXPECT_EQ(h.clients[2].received[0].words[0], 11u);
}

TEST(SimMachine, ChargeAccumulatesPerNode) {
  Harness<SimMachine> h(2);
  h.machine.charge(0, 500);
  h.machine.charge(0, 250);
  EXPECT_EQ(h.machine.now(0), 750u);
  EXPECT_EQ(h.machine.now(1), 0u);
}

// --- MnMachine ---------------------------------------------------------------------
// (The large-P / stealing / termination suite lives in test_mn_machine.cpp;
// here MnMachine just rides the same substrate matrix as SimMachine.)

TEST(MnMachine, DeliversAndQuiesces) {
  Harness<MnMachine> h(2);
  h.machine.send(make_packet(0, 1, 99));
  h.machine.run();
  ASSERT_EQ(h.clients[1].received.size(), 1u);
  EXPECT_EQ(h.clients[1].received[0].words[0], 99u);
}

TEST(MnMachine, RelayChainQuiesces) {
  Harness<MnMachine> h(4);
  for (NodeId n = 0; n < 4; ++n) {
    h.clients[n].on_packet = [&h, n](TestClient&, Packet p) {
      if (p.words[0] > 0) {
        h.machine.send(make_packet(n, (n + 1) % 4, p.words[0] - 1));
      }
    };
  }
  h.machine.send(make_packet(0, 1, 100));
  h.machine.run();
  std::size_t total = 0;
  for (auto& c : h.clients) total += c.received.size();
  EXPECT_EQ(total, 101u);
}

// --- Service deadlines ------------------------------------------------------------
// NodeClient::service_deadline re-runs an idle client's on_idle although no
// packet reaches it (the balancer's backed-off repoll). Node 1 asks, at its
// first on_idle, to be serviced kServiceDelay later; node 0 stays busy until
// that second on_idle has run, or until kServiceCap, well past the deadline,
// so the run is still going when the deadline passes. MnMachine needs two workers here:
// with one, the busy node keeps the only worker from parking, and nothing
// checks the service deadlines until the run ends.

constexpr SimTime kServiceDelay = 1'000'000;   // 1 ms
constexpr SimTime kServiceCap = 1'000'000'000;  // 1 s
constexpr SimTime kBusyStep = 10'000;           // charged per step (Sim)

struct ServicedClient : NodeClient {
  Machine* machine = nullptr;
  SimTime deadline = 0;
  std::vector<SimTime> idle_at;  // written by node 1's stream only
  std::atomic<std::size_t> idle_runs{0};
  std::size_t packets = 0;

  void handle(Packet) override { ++packets; }
  bool step() override { return false; }
  bool has_work() const override { return false; }
  void on_idle() override {
    const SimTime t = machine->now(1);
    idle_at.push_back(t);
    deadline = idle_at.size() == 1 ? t + kServiceDelay : 0;
    idle_runs.store(idle_at.size(), std::memory_order_release);
  }
  SimTime service_deadline() const override { return deadline; }
};

struct BusyClient : NodeClient {
  Machine* machine = nullptr;
  const ServicedClient* serviced = nullptr;

  void handle(Packet) override {}
  bool step() override {
    if (!has_work()) return false;
    machine->charge(0, kBusyStep);
    return true;
  }
  bool has_work() const override {
    return serviced->idle_runs.load(std::memory_order_acquire) < 2 &&
           machine->now(0) < kServiceCap;
  }
};

void run_service_deadline(Machine& m) {
  BusyClient busy;
  ServicedClient serviced;
  busy.machine = &m;
  busy.serviced = &serviced;
  serviced.machine = &m;
  m.attach(0, &busy);
  m.attach(1, &serviced);
  m.run();
  ASSERT_EQ(serviced.idle_at.size(), 2u) << "on_idle did not re-run";
  EXPECT_GE(serviced.idle_at[1], serviced.idle_at[0] + kServiceDelay);
  EXPECT_EQ(serviced.packets, 0u);
}

TEST(SimMachine, ServiceDeadlineRerunsIdleClient) {
  SimMachine m(2, CostModel::zero());
  run_service_deadline(m);
}

TEST(MnMachine, ServiceDeadlineRerunsIdleClient) {
  MnMachine m(2, CostModel::zero(), /*workers=*/2);
  run_service_deadline(m);
}

// The firing policy: only a worker that went idle fires service deadlines,
// because an idle node's repoll is spare-capacity work. On one worker, node
// 0 stays busy for kSpell of wall time while node 1 asks, at every on_idle,
// to be re-run 1 ms later; it stops asking once the spell is over. Firing
// deadlines at quantum boundaries would re-run node 1 about once per
// millisecond of the spell; the idle-only policy reaches its deadline only
// after the spell, when it no longer wants the re-run.
TEST(MnMachine, ServiceDeadlineWaitsForAnIdleWorker) {
  constexpr SimTime kSpell = 20'000'000;  // 20 ms
  struct Spinner : NodeClient {
    Machine* machine = nullptr;
    void handle(Packet) override {}
    bool step() override { return has_work(); }
    bool has_work() const override { return machine->now(0) < kSpell; }
  };
  struct Repoller : NodeClient {
    Machine* machine = nullptr;
    SimTime deadline = 0;
    std::size_t idle_runs = 0;  // node 1's stream only
    void handle(Packet) override {}
    bool step() override { return false; }
    bool has_work() const override { return false; }
    void on_idle() override {
      ++idle_runs;
      deadline = machine->now(1) + kServiceDelay;
    }
    SimTime service_deadline() const override {
      return machine->now(1) < kSpell ? deadline : 0;
    }
  };
  MnMachine m(2, CostModel::zero(), /*workers=*/1);
  Spinner busy;
  Repoller repoller;
  busy.machine = &m;
  repoller.machine = &m;
  m.attach(0, &busy);
  m.attach(1, &repoller);
  m.run();
  EXPECT_GE(m.now(0), kSpell);
  EXPECT_EQ(repoller.idle_runs, 1u);
}

// --- MST ---------------------------------------------------------------------------

TEST(Mst, CoversAllNodesExactlyOnce) {
  for (NodeId nodes : {1u, 2u, 3u, 4u, 7u, 8u, 16u, 33u, 64u}) {
    for (NodeId root : {0u, 1u, nodes - 1}) {
      if (root >= nodes) continue;
      std::map<NodeId, int> indegree;
      for (NodeId self = 0; self < nodes; ++self) {
        mst_for_each_child(self, root, nodes,
                           [&](NodeId child) { ++indegree[child]; });
      }
      EXPECT_EQ(indegree.count(root), 0u) << "root has a parent";
      for (NodeId n = 0; n < nodes; ++n) {
        if (n == root) continue;
        EXPECT_EQ(indegree[n], 1) << "node " << n << " of " << nodes;
      }
    }
  }
}

TEST(Mst, ParentChildConsistent) {
  const NodeId nodes = 13, root = 5;
  for (NodeId self = 0; self < nodes; ++self) {
    mst_for_each_child(self, root, nodes, [&](NodeId child) {
      EXPECT_EQ(mst_parent(child, root, nodes), self);
    });
  }
}

TEST(Mst, DepthIsLogarithmic) {
  const NodeId nodes = 64;
  for (NodeId self = 0; self < nodes; ++self) {
    EXPECT_LE(mst_depth(self, 0, nodes), 6u);
  }
}

// --- Bulk transfer -------------------------------------------------------------------

template <typename M>
struct BulkHarnessT {
  M machine;
  struct BulkClient : NodeClient {
    BulkChannel* channel = nullptr;
    std::vector<std::pair<std::uint64_t, Bytes>> delivered;  // (tag, data)
    void handle(Packet p) override { channel->route(p); }
    bool step() override { return false; }
    bool has_work() const override { return false; }
  };
  std::vector<BulkClient> clients;
  std::vector<StatBlock> stats;
  std::vector<obs::ProbeRecorder> probes;
  std::vector<BufferPool> pools;
  std::vector<std::unique_ptr<BulkChannel>> channels;

  explicit BulkHarnessT(NodeId nodes, CostModel costs = CostModel::zero())
      : machine(nodes, costs),
        clients(nodes),
        stats(nodes),
        probes(nodes),
        pools(nodes) {
    const BulkHandlers h{10, 11, 12};
    for (NodeId n = 0; n < nodes; ++n) {
      auto* client = &clients[n];
      channels.push_back(std::make_unique<BulkChannel>(
          machine, n, h, stats[n], probes[n], pools[n],
          [client](NodeId, std::uint64_t tag,
                   const std::array<std::uint64_t, 2>&, Bytes data) {
            client->delivered.emplace_back(tag, std::move(data));
          }));
      clients[n].channel = channels[n].get();
      machine.attach(n, &clients[n]);
    }
  }
};

using BulkHarness = BulkHarnessT<SimMachine>;

Bytes pattern_bytes(std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::byte>(i * 31 % 251);
  }
  return b;
}

TEST(Bulk, TransfersLargeBuffer) {
  BulkHarness h(2);
  const Bytes data = pattern_bytes(3 * kBulkChunkBytes + 100);
  h.channels[0]->send(1, 42, {7, 8}, data);
  h.machine.run();
  ASSERT_EQ(h.clients[1].delivered.size(), 1u);
  EXPECT_EQ(h.clients[1].delivered[0].first, 42u);
  EXPECT_EQ(h.clients[1].delivered[0].second, data);
}

TEST(Bulk, ZeroLengthTransferCompletes) {
  BulkHarness h(2);
  h.channels[0]->send(1, 5, {0, 0}, {});
  h.machine.run();
  ASSERT_EQ(h.clients[1].delivered.size(), 1u);
  EXPECT_TRUE(h.clients[1].delivered[0].second.empty());
}

TEST(Bulk, FlowControlSerializesInboundTransfers) {
  BulkHarness h(3, CostModel::cm5());
  const Bytes data = pattern_bytes(8 * kBulkChunkBytes);
  h.channels[0]->send(2, 1, {0, 0}, data);
  h.channels[1]->send(2, 2, {0, 0}, data);
  h.machine.run();
  ASSERT_EQ(h.clients[2].delivered.size(), 2u);
  // With flow control on, at least one REQUEST had to wait for a grant.
  EXPECT_GE(h.stats[2].get(Stat::kBulkFlowStalls), 1u);
}

TEST(Bulk, NoFlowControlGrantsImmediately) {
  BulkHarness h(3, CostModel::cm5());
  h.channels[2]->set_flow_control(false);
  const Bytes data = pattern_bytes(8 * kBulkChunkBytes);
  h.channels[0]->send(2, 1, {0, 0}, data);
  h.channels[1]->send(2, 2, {0, 0}, data);
  h.machine.run();
  ASSERT_EQ(h.clients[2].delivered.size(), 2u);
  EXPECT_EQ(h.stats[2].get(Stat::kBulkFlowStalls), 0u);
}

TEST(Bulk, ManyTransfersAllComplete) {
  BulkHarness h(4);
  int expected = 0;
  for (NodeId src = 1; src < 4; ++src) {
    for (int i = 0; i < 5; ++i) {
      h.channels[src]->send(0, src * 100 + static_cast<std::uint64_t>(i),
                            {0, 0}, pattern_bytes(1000 + 512 * src));
      ++expected;
    }
  }
  h.machine.run();
  EXPECT_EQ(h.clients[0].delivered.size(), static_cast<std::size_t>(expected));
}

TEST(Bulk, MetaWordsArriveIntact) {
  BulkHarness h(2);
  std::array<std::uint64_t, 2> got{};
  auto* client = &h.clients[1];
  (void)client;
  // Re-wire deliver to capture meta.
  h.channels[1] = std::make_unique<BulkChannel>(
      h.machine, 1, BulkHandlers{10, 11, 12}, h.stats[1], h.probes[1],
      h.pools[1],
      [&got](NodeId, std::uint64_t, const std::array<std::uint64_t, 2>& meta,
             Bytes) { got = meta; });
  h.clients[1].channel = h.channels[1].get();
  h.channels[0]->send(1, 9, {0xdeadULL, 0xbeefULL}, pattern_bytes(10));
  h.machine.run();
  EXPECT_EQ(got[0], 0xdeadULL);
  EXPECT_EQ(got[1], 0xbeefULL);
}

// Regression: a zero-size transfer granted from the queue completes inline
// (there is no DATA phase to finish), so the channel must keep draining the
// grant queue. The seed granted exactly one entry per completion and
// stranded everything queued behind a zero-size grant — those senders never
// saw an ACK, their outbound_ records never retired, and in the full runtime
// their work tokens deadlocked the machine (run() never returned).
TEST(Bulk, ZeroSizeGrantDoesNotStrandQueuedGrants) {
  BulkHarness h(5, CostModel::cm5());
  const Bytes big = pattern_bytes(4 * kBulkChunkBytes);
  // Arrival order at node 0 is injection order (deterministic under
  // SimMachine): the big transfer is granted first, the rest queue.
  h.channels[1]->send(0, 1, {0, 0}, big);
  h.channels[2]->send(0, 2, {0, 0}, {});   // zero-size, queued
  h.channels[3]->send(0, 3, {0, 0}, {});   // zero-size, queued behind it
  h.channels[4]->send(0, 4, {0, 0}, big);  // queued behind both
  h.machine.run();
  ASSERT_EQ(h.clients[0].delivered.size(), 4u);
  for (NodeId n = 1; n < 5; ++n) {
    EXPECT_EQ(h.channels[n]->outbound_pending(), 0u) << "sender " << n;
  }
  EXPECT_GE(h.stats[0].get(Stat::kBulkFlowStalls), 3u);
}

// The same edge cases must hold under true preemption, where request order
// at the receiver is nondeterministic: every transfer — zero-size or not —
// completes, byte-exact, and every sender retires its outbound record.
template <typename M>
void run_bulk_edge_cases() {
  BulkHarnessT<M> h(4);
  std::vector<std::size_t> sizes = {0,    1,      100,  0,
                                    4096, 4097,   0,    3 * 4096 + 7};
  int expected = 0;
  for (NodeId src = 1; src < 4; ++src) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      h.channels[src]->send(0, src * 100 + i, {src, i},
                            pattern_bytes(sizes[i]));
      ++expected;
    }
  }
  h.machine.run();
  ASSERT_EQ(h.clients[0].delivered.size(),
            static_cast<std::size_t>(expected));
  // Byte-exact delivery: look each tag up and compare to the pattern.
  for (const auto& [tag, data] : h.clients[0].delivered) {
    const std::size_t i = tag % 100;
    ASSERT_LT(i, sizes.size());
    EXPECT_EQ(data, pattern_bytes(sizes[i])) << "tag " << tag;
  }
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(h.channels[n]->outbound_pending(), 0u) << "sender " << n;
    EXPECT_EQ(h.channels[n]->inbound_active(), 0u) << "receiver " << n;
  }
}

TEST(Bulk, EdgeCaseMixCompletesUnderSimMachine) {
  run_bulk_edge_cases<SimMachine>();
}

TEST(Bulk, EdgeCaseMixCompletesUnderMnMachine) {
  run_bulk_edge_cases<MnMachine>();
}

TEST(Bulk, ZeroLengthTransferCompletesUnderMnMachine) {
  BulkHarnessT<MnMachine> h(2);
  h.channels[0]->send(1, 5, {0, 0}, {});
  h.machine.run();
  ASSERT_EQ(h.clients[1].delivered.size(), 1u);
  EXPECT_TRUE(h.clients[1].delivered[0].second.empty());
  EXPECT_EQ(h.channels[0]->outbound_pending(), 0u);
}

// Back-to-back queued grants: three senders hammer one receiver with flow
// control on, so at least two REQUESTs must wait in the grant queue and be
// released one at a time as their predecessors drain.
template <typename M>
void run_back_to_back_grants() {
  BulkHarnessT<M> h(4, CostModel::cm5());
  const Bytes data = pattern_bytes(6 * kBulkChunkBytes);
  for (NodeId src = 1; src < 4; ++src) {
    h.channels[src]->send(0, src, {0, 0}, data);
  }
  h.machine.run();
  ASSERT_EQ(h.clients[0].delivered.size(), 3u);
  for (const auto& [tag, bytes] : h.clients[0].delivered) {
    EXPECT_EQ(bytes, data) << "tag " << tag;
  }
  for (NodeId n = 1; n < 4; ++n) {
    EXPECT_EQ(h.channels[n]->outbound_pending(), 0u);
  }
}

TEST(Bulk, BackToBackQueuedGrantsUnderSimMachine) {
  run_back_to_back_grants<SimMachine>();
}

TEST(Bulk, BackToBackQueuedGrantsUnderMnMachine) {
  run_back_to_back_grants<MnMachine>();
}

}  // namespace
}  // namespace hal::am

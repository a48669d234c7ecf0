// Fault-plane tests (ROADMAP item 3): seeded drop/duplicate/delay injection
// on the active-message wire, and the reliable-link recovery that restores
// effectively-once, in-order delivery to every layer above — including the
// termination detector, the bulk-transfer credit window, and the FIR chase.
//
// Suite names all contain "Fault" so the MnMachine soaks here ride the
// HAL_SANITIZE=thread CI job's -R 'Stress|MnMachine|Bulk|Fault' filter.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "am/bulk.hpp"
#include "am/link.hpp"
#include "am/mn_machine.hpp"
#include "am/sim_machine.hpp"
#include "apps/fib.hpp"
#include "runtime/api.hpp"

namespace hal {
namespace {

// --- Machine-level harness (mirrors test_am_machines.cpp) ---------------------

class LinkTestClient : public am::NodeClient {
 public:
  std::vector<am::Packet> received;

  void handle(am::Packet p) override { received.push_back(std::move(p)); }
  bool step() override { return false; }
  bool has_work() const override { return false; }
};

template <typename M>
struct LinkHarness {
  M machine;
  std::vector<LinkTestClient> clients;

  explicit LinkHarness(NodeId nodes,
                       am::CostModel costs = am::CostModel::cm5())
      : machine(nodes, costs), clients(nodes) {
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

/// Every packet arrived exactly once, in send order (tags 0..count-1).
void expect_exactly_once_in_order(const LinkTestClient& c, std::uint64_t count) {
  ASSERT_EQ(c.received.size(), count);
  for (std::uint64_t i = 0; i < count; ++i) {
    EXPECT_EQ(c.received[i].words[0], i) << "at position " << i;
  }
}

// --- FaultLink: sequence-number boundaries at the endpoint layer --------------
//
// The sequence space skips 0 (reserved for unsequenced control traffic) and
// wraps UINT64_MAX -> 1 under serial-number ordering. These tests drive a
// bare sender/receiver endpoint pair across the wraparound point directly —
// no machine, no faults drawn — so the boundary arithmetic is pinned
// independently of the probabilistic soaks below.

struct RecordingSink final : am::LinkSink {
  std::vector<am::Packet> wire;       ///< every physical link_transmit copy
  std::vector<am::Packet> delivered;  ///< in-order link_deliver stream

  ~RecordingSink() = default;

  void link_transmit(am::Packet p, SimTime /*extra_delay_ns*/) override {
    wire.push_back(std::move(p));
  }
  void link_deliver(am::Packet p) override { delivered.push_back(std::move(p)); }

  /// Drain and return the data (non-ack) packets transmitted so far.
  std::vector<am::Packet> take_data() {
    std::vector<am::Packet> data;
    for (auto& p : wire) {
      if (!p.link_ack) data.push_back(std::move(p));
    }
    wire.clear();
    return data;
  }
  /// Drain and return the ack packets transmitted so far.
  std::vector<am::Packet> take_acks() {
    std::vector<am::Packet> acks;
    for (auto& p : wire) {
      if (p.link_ack) acks.push_back(std::move(p));
    }
    wire.clear();
    return acks;
  }
};

constexpr std::uint64_t kSeqMax = std::numeric_limits<std::uint64_t>::max();

/// A sender/receiver endpoint pair pre-positioned so the next data packet
/// takes sequence number `start` on the 0 -> 1 channel.
struct WrapPair {
  am::LinkEndpoint a;  ///< sender, node 0
  am::LinkEndpoint b;  ///< receiver, node 1
  RecordingSink a_sink;
  RecordingSink b_sink;

  explicit WrapPair(std::uint64_t start, SimTime rto = 1'000) {
    am::FaultConfig clean;
    clean.enabled = true;
    a.configure(0, clean, rto, nullptr);
    b.configure(1, clean, rto, nullptr);
    a.preseed_out_for_test(1, start);
    b.preseed_in_for_test(0, start);
  }
};

TEST(FaultLink, SeqWraparoundSkipsZeroAndDeliversInOrder) {
  WrapPair w(kSeqMax - 1);
  for (std::uint64_t tag = 0; tag < 4; ++tag) {
    w.a.send_data(make_packet(0, 1, tag), /*now=*/0, w.a_sink);
  }
  const auto sent = w.a_sink.take_data();
  ASSERT_EQ(sent.size(), 4u);
  EXPECT_EQ(sent[0].link_seq, kSeqMax - 1);
  EXPECT_EQ(sent[1].link_seq, kSeqMax);
  EXPECT_EQ(sent[2].link_seq, 1u);  // 0 is reserved: the space wraps to 1
  EXPECT_EQ(sent[3].link_seq, 2u);

  // In-order arrival across the boundary delivers every packet exactly
  // once, in send order — the wrap is invisible to the layer above.
  for (const auto& p : sent) w.b.receive(p, w.b_sink);
  ASSERT_EQ(w.b_sink.delivered.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(w.b_sink.delivered[i].words[0], i) << "at position " << i;
  }
  EXPECT_EQ(w.b_sink.take_acks().back().link_seq, 2u);
}

TEST(FaultLink, SeqWraparoundOutOfOrderBuffering) {
  WrapPair w(kSeqMax - 1);
  for (std::uint64_t tag = 0; tag < 4; ++tag) {
    w.a.send_data(make_packet(0, 1, tag), /*now=*/0, w.a_sink);
  }
  auto sent = w.a_sink.take_data();
  ASSERT_EQ(sent.size(), 4u);

  // Arrive fully reversed: post-wrap seqs 2 and 1 first, then kSeqMax,
  // then the expected kSeqMax - 1 — everything buffers until the straggler
  // lands, then flushes in send order across the boundary.
  for (auto it = sent.rbegin(); it != sent.rend(); ++it) {
    w.b.receive(*it, w.b_sink);
  }
  ASSERT_EQ(w.b_sink.delivered.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(w.b_sink.delivered[i].words[0], i) << "at position " << i;
  }

  // The final cumulative ack names the post-wrap frontier, and feeding the
  // acks back releases every master — including the pre-wrap ones, which
  // a cumulative value of 2 covers only under serial ordering.
  const auto acks = w.b_sink.take_acks();
  ASSERT_FALSE(acks.empty());
  EXPECT_EQ(acks.back().link_seq, 2u);
  EXPECT_TRUE(w.a.has_unacked());
  for (const auto& ack : acks) w.a.receive(ack, w.a_sink);
  EXPECT_FALSE(w.a.has_unacked());
}

TEST(FaultLink, SeqWraparoundRetransmitRacingAckIsDeduped) {
  WrapPair w(kSeqMax, /*rto=*/1'000);
  w.a.send_data(make_packet(0, 1, 0), /*now=*/0, w.a_sink);  // seq kSeqMax
  w.a.send_data(make_packet(0, 1, 1), /*now=*/0, w.a_sink);  // seq 1 (wrapped)
  auto first = w.a_sink.take_data();
  ASSERT_EQ(first.size(), 2u);

  // Both copies reach the receiver in order; its cumulative ack (seq 1,
  // post-wrap) is still in flight when the sender's timer fires and
  // retransmits both masters.
  for (const auto& p : first) w.b.receive(p, w.b_sink);
  ASSERT_EQ(w.b_sink.delivered.size(), 2u);
  const auto acks = w.b_sink.take_acks();
  ASSERT_FALSE(acks.empty());
  EXPECT_EQ(acks.back().link_seq, 1u);

  EXPECT_GT(w.a.next_deadline(), 0u);
  w.a.on_timer(/*now=*/5'000, w.a_sink);
  auto retrans = w.a_sink.take_data();
  ASSERT_EQ(retrans.size(), 2u);
  EXPECT_TRUE(retrans[0].retransmitted);

  // The racing ack lands: every master — pre- and post-wrap — is released.
  for (const auto& ack : acks) w.a.receive(ack, w.a_sink);
  EXPECT_FALSE(w.a.has_unacked());
  EXPECT_EQ(w.a.next_deadline(), 0u);

  // The late retransmits are suppressed before any layer above can see
  // them, and each one is re-acked so a real sender would stop resending.
  for (const auto& p : retrans) w.b.receive(p, w.b_sink);
  EXPECT_EQ(w.b_sink.delivered.size(), 2u);  // still effectively-once
  EXPECT_EQ(w.b.stats().dupes_suppressed, 2u);
  const auto reacks = w.b_sink.take_acks();
  ASSERT_EQ(reacks.size(), 2u);
  EXPECT_EQ(reacks.back().link_seq, 1u);
}

// --- FaultLink: the injector + reliable link at the machine layer -------------

TEST(FaultLink, DisabledByDefaultKeepsDirectPath) {
  LinkHarness<am::SimMachine> h(2);
  EXPECT_EQ(h.machine.link_stats(0), nullptr);
  am::FaultConfig off;
  off.drop = 0.5;  // knobs without the master switch stay inert
  h.machine.configure_faults(off);
  EXPECT_EQ(h.machine.link_stats(0), nullptr);
  h.machine.send(make_packet(0, 1, 0));
  h.machine.run();
  expect_exactly_once_in_order(h.clients[1], 1);
}

TEST(FaultLink, SimExactlyOnceInOrderUnderDropDupDelay) {
  LinkHarness<am::SimMachine> h(2);
  am::FaultConfig fc;
  fc.enabled = true;
  fc.drop = 0.2;
  fc.duplicate = 0.2;
  fc.delay = 0.3;
  fc.seed = 42;
  h.machine.configure_faults(fc);
  constexpr std::uint64_t kCount = 200;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    h.machine.send(make_packet(0, 1, i));
    h.machine.send(make_packet(1, 0, i));
  }
  h.machine.run();
  expect_exactly_once_in_order(h.clients[0], kCount);
  expect_exactly_once_in_order(h.clients[1], kCount);
  // At these rates over 400 data packets the injector certainly fired, and
  // recovery certainly ran (seeded, so this is deterministic, not flaky).
  const am::LinkStats& s0 = *h.machine.link_stats(0);
  const am::LinkStats& s1 = *h.machine.link_stats(1);
  EXPECT_GT(s0.drops_injected + s1.drops_injected, 0u);
  EXPECT_GT(s0.duplicates_injected + s1.duplicates_injected, 0u);
  EXPECT_GT(s0.delays_injected + s1.delays_injected, 0u);
  EXPECT_GT(s0.retransmits + s1.retransmits, 0u);
  EXPECT_GT(s0.dupes_suppressed + s1.dupes_suppressed, 0u);
  EXPECT_GT(s0.acks_sent, 0u);
  EXPECT_GT(s1.acks_sent, 0u);
}

// Regression for the targeted loss the detector accounting must survive: the
// one and only (hence final, quiescence-carrying) packet is dropped on its
// first transmission. Without the unacked-master liveness rule the machine
// would declare quiescence with the message still unrecovered.
TEST(FaultLink, SimFinalMessageDroppedIsRetransmitted) {
  LinkHarness<am::SimMachine> h(2);
  am::FaultConfig fc;
  fc.enabled = true;
  fc.drop_first = 1;
  fc.seed = 7;
  h.machine.configure_faults(fc);
  h.machine.send(make_packet(0, 1, 0));
  h.machine.run();
  expect_exactly_once_in_order(h.clients[1], 1);
  const am::LinkStats& s = *h.machine.link_stats(0);
  EXPECT_EQ(s.drops_injected, 1u);
  EXPECT_GE(s.retransmits, 1u);
}

TEST(FaultLink, SimEveryPacketDuplicatedDeliversOnce) {
  LinkHarness<am::SimMachine> h(2);
  am::FaultConfig fc;
  fc.enabled = true;
  fc.duplicate = 1.0;
  fc.seed = 9;
  h.machine.configure_faults(fc);
  constexpr std::uint64_t kCount = 20;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    h.machine.send(make_packet(0, 1, i));
  }
  h.machine.run();
  expect_exactly_once_in_order(h.clients[1], kCount);
  // Every transmission is duplicated — including retransmissions that fire
  // when the doubled handler backlog delays the cumulative ack past the RTO —
  // so both counters are at least the message count, not exactly it.
  EXPECT_GE(h.machine.link_stats(0)->duplicates_injected, kCount);
  EXPECT_GE(h.machine.link_stats(1)->dupes_suppressed, kCount);
}

TEST(FaultLink, SimDelayReordersWireButDeliveryStaysOrdered) {
  LinkHarness<am::SimMachine> h(2);
  am::FaultConfig fc;
  fc.enabled = true;
  fc.delay = 0.5;
  fc.delay_ns = 50'000;  // far past several successors' arrivals
  fc.seed = 3;
  h.machine.configure_faults(fc);
  constexpr std::uint64_t kCount = 50;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    h.machine.send(make_packet(0, 1, i));
  }
  h.machine.run();
  expect_exactly_once_in_order(h.clients[1], kCount);
  EXPECT_GT(h.machine.link_stats(0)->delays_injected, 0u);
}

TEST(FaultLink, SimSameSeedSameFaultPattern) {
  auto run_once = [] {
    LinkHarness<am::SimMachine> h(3);
    am::FaultConfig fc;
    fc.enabled = true;
    fc.drop = 0.15;
    fc.duplicate = 0.15;
    fc.delay = 0.25;
    fc.seed = 0xfeed;
    h.machine.configure_faults(fc);
    for (std::uint64_t i = 0; i < 60; ++i) {
      h.machine.send(make_packet(0, 1, i));
      h.machine.send(make_packet(1, 2, i));
      h.machine.send(make_packet(2, 0, i));
    }
    h.machine.run();
    const am::LinkStats& s = *h.machine.link_stats(0);
    return std::tuple{h.machine.makespan(), h.machine.events_processed(),
                      s.drops_injected,    s.duplicates_injected,
                      s.delays_injected,   s.retransmits,
                      s.dupes_suppressed,  s.acks_sent};
  };
  EXPECT_EQ(run_once(), run_once());
}

// A dense 2-node channel on the M:N pool: every packet crosses the same
// endpoint pair, so drops, duplicates and retransmits interleave on one
// sequence space.
TEST(FaultLink, MnLossAndDuplicationExactlyOnce) {
  LinkHarness<am::MnMachine> h(2);
  am::FaultConfig fc;
  fc.enabled = true;
  fc.drop = 0.1;
  fc.duplicate = 0.1;
  fc.seed = 11;
  fc.rto_ns = 500'000;  // soak-friendly: recover dropped packets in ~0.5 ms
  h.machine.configure_faults(fc);
  constexpr std::uint64_t kCount = 200;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    h.machine.send(make_packet(0, 1, i));
  }
  h.machine.run();
  expect_exactly_once_in_order(h.clients[1], kCount);
}

// The same soak with many more endpoints than workers: link endpoints
// migrate across workers with their nodes, and the shared timer table keeps
// retransmission alive.
TEST(FaultLink, MnLossAndDuplicationExactlyOnceAtLargeP) {
  LinkHarness<am::MnMachine> h(64);
  am::FaultConfig fc;
  fc.enabled = true;
  fc.drop = 0.1;
  fc.duplicate = 0.1;
  fc.seed = 11;
  fc.rto_ns = 500'000;
  h.machine.configure_faults(fc);
  constexpr std::uint64_t kCount = 50;
  for (NodeId dst = 1; dst < 64; ++dst) {
    for (std::uint64_t i = 0; i < kCount; ++i) {
      h.machine.send(make_packet(0, dst, i));
    }
  }
  h.machine.run();
  for (NodeId dst = 1; dst < 64; ++dst) {
    expect_exactly_once_in_order(h.clients[dst], kCount);
  }
}

// --- FaultBulk: the credit window audited under the injector ------------------
// pump_grants has no grant-resend path by design: grants ride the reliable
// link (invariant comment in BulkChannel::on_ack). These tests are the audit —
// transfers, queued grants, and zero-size grants all complete under loss.

template <typename M>
struct FaultBulkHarness {
  M machine;
  struct BulkClient : am::NodeClient {
    am::BulkChannel* channel = nullptr;
    std::vector<std::pair<std::uint64_t, Bytes>> delivered;  // (tag, data)
    void handle(am::Packet p) override { channel->route(p); }
    bool step() override { return false; }
    bool has_work() const override { return false; }
  };
  std::vector<BulkClient> clients;
  std::vector<StatBlock> stats;
  std::vector<obs::ProbeRecorder> probes;
  std::vector<BufferPool> pools;
  std::vector<std::unique_ptr<am::BulkChannel>> channels;

  explicit FaultBulkHarness(NodeId nodes,
                            am::CostModel costs = am::CostModel::cm5())
      : machine(nodes, costs),
        clients(nodes),
        stats(nodes),
        probes(nodes),
        pools(nodes) {
    const am::BulkHandlers h{10, 11, 12};
    for (NodeId n = 0; n < nodes; ++n) {
      auto* client = &clients[n];
      channels.push_back(std::make_unique<am::BulkChannel>(
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

Bytes pattern_bytes(std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::byte>(i * 31 % 251);
  }
  return b;
}

TEST(FaultBulk, TransfersSurviveDropAndDuplication) {
  FaultBulkHarness<am::SimMachine> h(3);
  am::FaultConfig fc;
  fc.enabled = true;
  fc.drop = 0.15;
  fc.duplicate = 0.15;
  fc.seed = 21;
  h.machine.configure_faults(fc);
  const Bytes data = pattern_bytes(8 * am::kBulkChunkBytes);
  h.channels[0]->send(2, 1, {0, 0}, data);
  h.channels[1]->send(2, 2, {0, 0}, data);
  h.machine.run();
  ASSERT_EQ(h.clients[2].delivered.size(), 2u);
  EXPECT_EQ(h.clients[2].delivered[0].second, data);
  EXPECT_EQ(h.clients[2].delivered[1].second, data);
}

// A zero-size grant completing inline while the injector mangles the REQUEST
// and ACK packets around it — the grant queue must still drain.
TEST(FaultBulk, ZeroSizeAndQueuedGrantsDrainUnderFaults) {
  FaultBulkHarness<am::SimMachine> h(5);
  am::FaultConfig fc;
  fc.enabled = true;
  fc.drop = 0.2;
  fc.duplicate = 0.1;
  fc.seed = 33;
  h.machine.configure_faults(fc);
  const Bytes big = pattern_bytes(4 * am::kBulkChunkBytes);
  h.channels[1]->send(0, 1, {0, 0}, big);
  h.channels[2]->send(0, 2, {0, 0}, {});  // zero-size, queued behind 1
  h.channels[3]->send(0, 3, {0, 0}, big);
  h.channels[4]->send(0, 4, {0, 0}, {});
  h.machine.run();
  EXPECT_EQ(h.clients[0].delivered.size(), 4u);
}

// --- Runtime-level workloads under faults -------------------------------------

class Counter : public ActorBase {
 public:
  void on_add(Context&, std::int64_t v) { sum_ += v; }
  HAL_BEHAVIOR(Counter, &Counter::on_add)

  std::int64_t sum() const { return sum_; }

 private:
  std::int64_t sum_ = 0;
};

class Burst : public ActorBase {
 public:
  void on_fire(Context& ctx, MailAddress target, std::int64_t count) {
    for (std::int64_t i = 0; i < count; ++i) {
      ctx.send<&Counter::on_add>(target, std::int64_t{1});
    }
  }
  HAL_BEHAVIOR(Burst, &Burst::on_fire)
};

/// A migratable accumulator (the Wanderer of test_migration.cpp, trimmed).
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

/// Waits (virtual time under Sim) then fires adds at a possibly-moved target,
/// forcing the forward + FIR-chase path.
class LateAdder : public ActorBase {
 public:
  void on_fire(Context& ctx, MailAddress target, std::int64_t count,
               std::int64_t delay_us) {
    ctx.charge_ns(static_cast<SimTime>(delay_us) * 1000);
    for (std::int64_t i = 0; i < count; ++i) {
      ctx.send<&Roamer::on_add>(target, std::int64_t{1});
    }
  }
  HAL_BEHAVIOR(LateAdder, &LateAdder::on_fire)
};

/// Which node currently hosts `addr` (walks forward pointers).
NodeId host_of(Runtime& rt, const MailAddress& addr) {
  NodeId node = addr.home;
  for (NodeId hops = 0; hops <= rt.nodes(); ++hops) {
    Kernel& k = rt.kernel(node);
    const SlotId ds = k.names().resolve(addr);
    if (!ds.valid()) return kInvalidNode;
    const LocalityDescriptor& d = k.names().descriptor(ds);
    if (d.local()) return node;
    node = d.remote_node;
  }
  return kInvalidNode;
}

class FaultRuntimeTest : public ::testing::TestWithParam<MachineKind> {
 protected:
  RuntimeConfig cfg(NodeId nodes, const am::FaultConfig& faults) {
    RuntimeConfig c;
    c.nodes = nodes;
    c.machine = GetParam();
    c.faults = faults;
    // Keep MnMachine recovery latency test-friendly (default is 2 ms).
    if (c.faults.rto_ns == 0) c.faults.rto_ns = 500'000;
    return c;
  }
  bool is_sim() const { return GetParam() == MachineKind::kSim; }
};

TEST_P(FaultRuntimeTest, BurstsStayExactUnderLossAndDuplication) {
  am::FaultConfig fc;
  fc.enabled = true;
  fc.drop = 0.05;
  fc.duplicate = 0.05;
  fc.delay = 0.05;  // scrubbed under Mn
  Runtime rt(cfg(4, fc));
  rt.load<Counter>();
  rt.load<Burst>();
  const MailAddress counter = rt.spawn<Counter>(0);
  // Large enough that the wire still carries plenty of physical packets
  // with batching coalescing ~32 sends per frame (the seeded 5% injector
  // must certainly fire below).
  for (NodeId n = 1; n < 4; ++n) {
    rt.inject<&Burst::on_fire>(rt.spawn<Burst>(n), counter, std::int64_t{500});
  }
  rt.run();
  const Counter* c = rt.find_behavior<Counter>(counter);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->sum(), 1500);
  EXPECT_EQ(rt.dead_letters(), 0u);
  const StatBlock total = rt.report().total;
  if (is_sim()) {
    // Seeded Sim draws: the injector certainly fired at these rates, and the
    // wire counters made it into the report.
    EXPECT_GT(total.get(Stat::kLinkDropsInjected), 0u);
    EXPECT_GT(total.get(Stat::kLinkRetransmits), 0u);
    EXPECT_GT(total.get(Stat::kLinkAcksSent), 0u);
  }
}

// Satellite regression: the FINAL quiescence-carrying message of the run is
// lost on first transmission (drop_first hits the first data packet of every
// channel — for a single-message workload that is the final message). The
// run must complete with the exact result, not hang and not undercount.
TEST_P(FaultRuntimeTest, FinalQuiescenceCarryingMessageLost) {
  am::FaultConfig fc;
  fc.enabled = true;
  fc.drop_first = 1;
  Runtime rt(cfg(2, fc));
  rt.load<Counter>();
  rt.load<Burst>();
  const MailAddress counter = rt.spawn<Counter>(1);
  rt.inject<&Burst::on_fire>(rt.spawn<Burst>(0), counter, std::int64_t{1});
  rt.run();
  const Counter* c = rt.find_behavior<Counter>(counter);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->sum(), 1);
  EXPECT_EQ(rt.dead_letters(), 0u);
  EXPECT_GE(rt.report().total.get(Stat::kLinkRetransmits), 1u);
}

// ...and its mirror: the final message is duplicated. The sequence layer must
// absorb the copy before the termination detector (or the actor) sees it.
TEST_P(FaultRuntimeTest, FinalQuiescenceCarryingMessageDuplicated) {
  am::FaultConfig fc;
  fc.enabled = true;
  fc.duplicate = 1.0;
  Runtime rt(cfg(2, fc));
  rt.load<Counter>();
  rt.load<Burst>();
  const MailAddress counter = rt.spawn<Counter>(1);
  rt.inject<&Burst::on_fire>(rt.spawn<Burst>(0), counter, std::int64_t{1});
  rt.run();
  const Counter* c = rt.find_behavior<Counter>(counter);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->sum(), 1);  // delivered once, not twice
  EXPECT_EQ(rt.dead_letters(), 0u);
  EXPECT_GE(rt.report().total.get(Stat::kLinkDupesSuppressed), 1u);
}

// Migration + FIR chase over a lossy wire: stale-descriptor forwards, park
// requests, and FIR responses all ride the reliable link, so the chase's
// monotone-epoch re-resolution stays sound under loss and duplication.
TEST_P(FaultRuntimeTest, MigrationAndFirChaseSurviveFaults) {
  am::FaultConfig fc;
  fc.enabled = true;
  fc.drop = 0.1;
  fc.duplicate = 0.1;
  Runtime rt(cfg(4, fc));
  rt.load<Roamer>();
  rt.load<LateAdder>();
  const MailAddress w = rt.spawn<Roamer>(0);
  rt.inject<&Roamer::on_hop>(w, NodeId{1});
  rt.inject<&Roamer::on_hop>(w, NodeId{2});
  rt.inject<&LateAdder::on_fire>(rt.spawn<LateAdder>(3), w, std::int64_t{10},
                                 std::int64_t{10000});
  rt.run();
  const Roamer* obj = rt.find_behavior<Roamer>(w);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->sum(), 10);  // exactly-once despite chase + injected faults
  EXPECT_EQ(host_of(rt, w), 2u);
  EXPECT_EQ(rt.dead_letters(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Machines, FaultRuntimeTest,
                         ::testing::Values(MachineKind::kSim,
                                           MachineKind::kMn),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case MachineKind::kSim:
                               return "Sim";
                             case MachineKind::kMn:
                               return "Mn";
                           }
                           return "Unknown";
                         });

// --- Byte-determinism of full reports across the fault matrix -----------------

TEST(FaultReport, SimFibMatrixIsByteDeterministic) {
  for (const double rate : {0.0, 0.01, 0.05, 0.10}) {
    apps::FibParams params;
    params.n = 16;
    params.cutoff = 8;
    params.nodes = 4;
    params.machine = MachineKind::kSim;
    params.faults.enabled = true;
    params.faults.drop = rate;
    params.faults.duplicate = rate / 2;
    params.faults.delay = rate;
    const apps::FibResult a = apps::run_fib(params);
    const apps::FibResult b = apps::run_fib(params);
    EXPECT_EQ(a.value, 987u) << "rate " << rate;
    EXPECT_EQ(a.dead_letters, 0u) << "rate " << rate;
    EXPECT_EQ(a.report.to_json(), b.report.to_json()) << "rate " << rate;
    if (rate > 0.0) {
      EXPECT_GT(a.stats.get(Stat::kLinkDropsInjected), 0u) << "rate " << rate;
    }
  }
}

// --- MnMachine loss soak (TSan CI target) -------------------------------------

TEST(FaultSoak, MnRuntimeLossSoak) {
  am::FaultConfig fc;
  fc.enabled = true;
  fc.drop = 0.05;
  fc.duplicate = 0.05;
  fc.rto_ns = 500'000;
  RuntimeConfig c;
  c.nodes = 4;
  c.machine = MachineKind::kMn;
  c.faults = fc;
  Runtime rt(c);
  rt.load<Counter>();
  rt.load<Burst>();
  const MailAddress counter = rt.spawn<Counter>(0);
  for (NodeId n = 1; n < 4; ++n) {
    rt.inject<&Burst::on_fire>(rt.spawn<Burst>(n), counter, std::int64_t{200});
  }
  rt.run();
  const Counter* cnt = rt.find_behavior<Counter>(counter);
  ASSERT_NE(cnt, nullptr);
  EXPECT_EQ(cnt->sum(), 600);
  EXPECT_EQ(rt.dead_letters(), 0u);
}

}  // namespace
}  // namespace hal

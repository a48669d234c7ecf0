// Concurrency stress tests for the wall-clock substrate.
//
// These are the tests the sanitizer CI presets (HAL_SANITIZE=thread|address)
// exist for: they hammer the cross-thread structures in the system —
// MpscQueue endpoints, the TerminationDetector, and MnMachine's run-token
// handoff and park/wake handshake — under true preemption, then assert
// exact delivery counts and clean quiescence. The machine-level storms run
// on MnMachine's default pool. Every scenario is sized to finish in a couple
// of seconds even single-core and under ThreadSanitizer.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "am/bulk.hpp"
#include "am/mn_machine.hpp"
#include "am/sim_machine.hpp"
#include "common/mpsc_queue.hpp"
#include "common/rng.hpp"
#include "common/termination.hpp"
#include "runtime/api.hpp"

namespace hal {
namespace {

// --- MpscQueue under contention -----------------------------------------------------

TEST(MpscQueueStress, MultiProducerFifoPerProducer) {
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20000;
  MpscQueue<std::uint64_t> q;

  std::vector<std::jthread> producers;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        q.push((p << 32) | i);  // producer id | sequence number
      }
    });
  }

  // Consume concurrently with the producers (single consumer: this thread).
  std::vector<std::uint64_t> next_seq(kProducers, 0);
  std::uint64_t got = 0;
  while (got < kProducers * kPerProducer) {
    if (auto v = q.pop()) {
      const std::uint64_t p = *v >> 32;
      const std::uint64_t seq = *v & 0xffffffffULL;
      ASSERT_LT(p, kProducers);
      // Vyukov MPSC preserves per-producer FIFO order.
      ASSERT_EQ(seq, next_seq[p]) << "producer " << p;
      ++next_seq[p];
      ++got;
    }
  }
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_TRUE(q.empty());
}

// --- TerminationDetector ---------------------------------------------------------------

TEST(TerminationDetector, ParticipantsStartActive) {
  TerminationDetector det(3);
  EXPECT_FALSE(det.all_idle());
  EXPECT_EQ(det.check([] { return 0u; }),
            TerminationDetector::Verdict::kBusy);
}

TEST(TerminationDetector, QuiescentWhenAllIdleAndCountersBalance) {
  TerminationDetector det(3);
  det.note_sent(0);
  det.note_handled(0);
  for (std::uint32_t i = 0; i < 3; ++i) det.deactivate(i);
  EXPECT_TRUE(det.all_idle());
  EXPECT_EQ(det.check([] { return 0u; }),
            TerminationDetector::Verdict::kQuiescent);
}

TEST(TerminationDetector, InFlightUnitBlocksQuiescence) {
  TerminationDetector det(2);
  det.note_sent(0);  // published but never handled
  det.deactivate(0);
  det.deactivate(1);
  EXPECT_EQ(det.check([] { return 0u; }),
            TerminationDetector::Verdict::kBusy);
  det.note_handled(0);
  EXPECT_EQ(det.check([] { return 0u; }),
            TerminationDetector::Verdict::kQuiescent);
}

TEST(TerminationDetector, UnitSentOnOneShardHandledOnAnother) {
  // Each participant counts on its own shard; the verdict sums them, so a
  // unit sent on shard 0 stays in flight until shard 1 handles it.
  TerminationDetector det(2);
  det.note_sent(0);
  det.deactivate(0);
  det.deactivate(1);
  EXPECT_EQ(det.check([] { return 0u; }),
            TerminationDetector::Verdict::kBusy);
  det.note_handled(1);
  EXPECT_EQ(det.check([] { return 0u; }),
            TerminationDetector::Verdict::kQuiescent);
}

// Units hop between four participants through MPSC inboxes, each sent on
// its sender's shard and handled on another's, while idle participants run
// check() in a loop. A kQuiescent verdict before the last handle would be
// premature; the first one after it ends the run.
TEST(TerminationDetector, ShardedEpochsNeverQuiescePrematurely) {
  constexpr std::uint32_t kParticipants = 4;
  constexpr std::uint64_t kChains = 4;
  constexpr std::uint64_t kHops = 2000;
  constexpr std::uint64_t kUnits = kChains * (kHops + 1);
  TerminationDetector det(kParticipants);
  std::array<MpscQueue<std::uint64_t>, kParticipants> inbox;
  std::atomic<std::uint64_t> handled{0};
  std::atomic<std::uint64_t> premature{0};
  std::atomic<bool> done{false};
  for (std::uint64_t c = 0; c < kChains; ++c) {
    det.note_sent(0);  // bootstrap sends count on shard 0
    inbox[c % kParticipants].push(kHops);
  }
  {
    std::vector<std::jthread> participants;
    for (std::uint32_t w = 0; w < kParticipants; ++w) {
      participants.emplace_back([&, w] {
        for (;;) {
          while (auto hops = inbox[w].pop()) {
            if (*hops > 0) {
              // Never to itself: the handle lands on another shard.
              const std::uint32_t to =
                  (w + 1 + static_cast<std::uint32_t>(*hops % 3)) %
                  kParticipants;
              det.note_sent(w);
              inbox[to].push(*hops - 1);
            }
            det.note_handled(w);
            handled.fetch_add(1);
          }
          det.deactivate(w);
          for (;;) {  // idle until a unit is published to us, or the end
            if (det.check([] { return 0u; }) ==
                TerminationDetector::Verdict::kQuiescent) {
              if (handled.load() < kUnits) {
                premature.fetch_add(1);
              } else {
                done.store(true);
              }
            }
            if (done.load()) return;
            if (!inbox[w].empty()) break;
            std::this_thread::yield();
          }
          det.activate(w);
        }
      });
    }
  }  // join
  EXPECT_EQ(premature.load(), 0u);
  EXPECT_EQ(handled.load(), kUnits);
  EXPECT_EQ(det.sent(), kUnits);
  EXPECT_EQ(det.handled(), kUnits);
}

TEST(TerminationDetector, OutstandingTokensAreAStall) {
  TerminationDetector det(2);
  det.deactivate(0);
  det.deactivate(1);
  EXPECT_EQ(det.check([] { return 7u; }),
            TerminationDetector::Verdict::kStalled);
  EXPECT_EQ(det.check([] { return 0u; }),
            TerminationDetector::Verdict::kQuiescent);
}

TEST(TerminationDetector, ReactivationIsTracked) {
  TerminationDetector det(2);
  det.deactivate(0);
  det.deactivate(1);
  det.activate(1);  // woken by a unit
  EXPECT_FALSE(det.all_idle());
  EXPECT_EQ(det.check([] { return 0u; }),
            TerminationDetector::Verdict::kBusy);
  det.deactivate(1);
  EXPECT_EQ(det.check([] { return 0u; }),
            TerminationDetector::Verdict::kQuiescent);
}

// A concurrent checker must never declare quiescence while any worker still
// has units in flight: workers cycle active->idle->active while a dedicated
// thread runs check() in a loop, and every premature kQuiescent is counted.
TEST(TerminationDetectorStress, NoFalseQuiescenceUnderChurn) {
  constexpr std::uint32_t kWorkers = 4;
  constexpr int kRounds = 2000;
  // One extra participant (slot kWorkers) belongs to the main thread and
  // stays active until the checker has exited. Without it the end of the
  // run is racy: the checker can read a stale `done` count, then observe
  // the last worker's final deactivate — a *genuine* quiescence that the
  // test would miscount as a false positive.
  TerminationDetector det(kWorkers + 1);
  std::atomic<std::uint32_t> done{0};
  std::atomic<std::uint64_t> false_positives{0};

  std::jthread checker([&] {
    while (done.load(std::memory_order_acquire) < kWorkers) {
      if (det.check([] { return 0u; }) ==
          TerminationDetector::Verdict::kQuiescent) {
        false_positives.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  {
    std::vector<std::jthread> workers;
    for (std::uint32_t w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&det, &done, w] {
        for (int r = 0; r < kRounds; ++r) {
          det.note_sent(w);  // publish one unit, then go idle with it
          det.deactivate(w);
          // (a real participant would sleep here until woken by the unit)
          det.activate(w);
          det.note_handled(w);
        }
        det.note_sent(w);
        det.note_handled(w);
        done.fetch_add(1, std::memory_order_release);
        det.deactivate(w);  // final idle transition
      });
    }
  }  // join workers

  checker.join();
  // While the main thread's participant was active (the checker's whole
  // lifetime), check() must have said kBusy — any kQuiescent was a real
  // protocol violation.
  EXPECT_EQ(false_positives.load(), 0u);
  det.deactivate(kWorkers);  // main thread's slot — now genuinely done
  EXPECT_EQ(det.check([] { return 0u; }),
            TerminationDetector::Verdict::kQuiescent);
  EXPECT_EQ(det.sent(), det.handled());
}

// --- MnMachine storms --------------------------------------------------------------------

struct StormClient : am::NodeClient {
  am::MnMachine* m = nullptr;
  NodeId self = 0;
  std::uint64_t seed = 0;
  std::uint64_t handled = 0;

  void handle(am::Packet p) override {
    ++handled;
    if (p.words[0] > 0) {
      Xoshiro256 rng(seed ^ (handled * 0x9e3779b97f4a7c15ULL));
      am::Packet r;
      r.src = self;
      r.dst = static_cast<NodeId>(rng.below(m->node_count()));
      r.handler = 1;
      r.words[0] = p.words[0] - 1;
      m->send(std::move(r));
    }
  }
  bool step() override { return false; }
  bool has_work() const override { return false; }
};

// N nodes x M seed packets, each relayed TTL times to random destinations
// (including self-sends). Exact conservation: every hop is handled exactly
// once and the machine quiesces with balanced epoch counters.
TEST(MnMachineStress, RandomRelayStormConservesPackets) {
  constexpr NodeId kNodes = 8;
  constexpr std::uint64_t kSeedsPerNode = 40;
  constexpr std::uint64_t kTtl = 24;

  am::MnMachine m(kNodes, am::CostModel::zero());
  std::vector<StormClient> clients(kNodes);
  for (NodeId n = 0; n < kNodes; ++n) {
    clients[n].m = &m;
    clients[n].self = n;
    clients[n].seed = 0xabcdef12345ULL + n;
    m.attach(n, &clients[n]);
  }
  for (NodeId n = 0; n < kNodes; ++n) {
    for (std::uint64_t i = 0; i < kSeedsPerNode; ++i) {
      am::Packet p;
      p.src = n;
      p.dst = static_cast<NodeId>((n + i) % kNodes);
      p.handler = 1;
      p.words[0] = kTtl;
      m.send(std::move(p));
    }
  }
  m.run();

  std::uint64_t total = 0;
  for (const auto& c : clients) total += c.handled;
  EXPECT_EQ(total, kNodes * kSeedsPerNode * (kTtl + 1));
  EXPECT_EQ(m.units_sent(), m.units_handled());
  EXPECT_EQ(m.tokens(), 0u);
}

// An empty machine must quiesce immediately (event-driven: the last worker
// to deactivate detects termination; nobody sleeps through it, nobody
// polls). The epochs are not zero: they also count run tokens, and the
// priming sweep schedules every node once. So the check is that no client
// saw a packet and every unit sent was handled.
TEST(MnMachineStress, EmptyMachineQuiescesImmediately) {
  for (NodeId nodes : {1u, 2u, 7u}) {
    am::MnMachine m(nodes, am::CostModel::zero());
    std::vector<StormClient> clients(nodes);
    for (NodeId n = 0; n < nodes; ++n) {
      clients[n].m = &m;
      clients[n].self = n;
      m.attach(n, &clients[n]);
    }
    m.run();
    for (const StormClient& c : clients) EXPECT_EQ(c.handled, 0u);
    EXPECT_EQ(m.units_sent(), m.units_handled());
  }
}

// Termination detection has historically been the flakiest part of thread
// runtimes (lost wakeups show up one run in thousands): many short runs in
// a row catch what one long run cannot.
TEST(MnMachineStress, RepeatedShortRunsAlwaysTerminate) {
  for (int round = 0; round < 50; ++round) {
    am::MnMachine m(4, am::CostModel::zero());
    std::vector<StormClient> clients(4);
    for (NodeId n = 0; n < 4; ++n) {
      clients[n].m = &m;
      clients[n].self = n;
      clients[n].seed = static_cast<std::uint64_t>(round) * 1000 + n;
      m.attach(n, &clients[n]);
    }
    am::Packet p;
    p.src = 0;
    p.dst = static_cast<NodeId>(round % 4);
    p.handler = 1;
    p.words[0] = 16;
    m.send(std::move(p));
    m.run();
    std::uint64_t total = 0;
    for (const auto& c : clients) total += c.handled;
    ASSERT_EQ(total, 17u) << "round " << round;
  }
}

// --- Randomized bulk transfers under preemption ---------------------------------------

struct BulkStressHarness {
  am::MnMachine machine;
  struct Client : am::NodeClient {
    am::BulkChannel* channel = nullptr;
    std::map<std::uint64_t, Bytes> delivered;  // tag -> data
    void handle(am::Packet p) override { channel->route(p); }
    bool step() override { return false; }
    bool has_work() const override { return false; }
  };
  std::vector<Client> clients;
  std::vector<StatBlock> stats;
  std::vector<obs::ProbeRecorder> probes;
  std::vector<BufferPool> pools;
  std::vector<std::unique_ptr<am::BulkChannel>> channels;

  explicit BulkStressHarness(NodeId nodes)
      : machine(nodes, am::CostModel::zero()),
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
            client->delivered.emplace(tag, std::move(data));
          }));
      clients[n].channel = channels[n].get();
      machine.attach(n, &clients[n]);
    }
  }
};

Bytes stress_pattern(std::size_t n, std::uint64_t salt) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::byte>((i * 131 + salt * 31) % 251);
  }
  return b;
}

// Randomized sizes — heavy on the zero-size and chunk-boundary cases — from
// every node to every other node with flow control on, so grant queues build
// up and drain while unrelated DATA streams interleave.
TEST(MnMachineStress, RandomizedBulkTransfersAreByteExact) {
  constexpr NodeId kNodes = 4;
  constexpr int kPerSender = 24;
  const std::size_t size_classes[] = {0, 1, 100, 0, 4095, 4096, 4097, 0,
                                      2 * 4096 + 17};

  BulkStressHarness h(kNodes);
  // expected[receiver][tag] = (size, salt)
  std::vector<std::map<std::uint64_t, std::pair<std::size_t, std::uint64_t>>>
      expected(kNodes);
  Xoshiro256 rng(0xb01dface);
  for (NodeId src = 0; src < kNodes; ++src) {
    for (int i = 0; i < kPerSender; ++i) {
      NodeId dst = static_cast<NodeId>(rng.below(kNodes - 1));
      if (dst >= src) ++dst;
      const std::size_t size =
          size_classes[rng.below(std::size(size_classes))];
      const std::uint64_t tag =
          (static_cast<std::uint64_t>(src) << 32) | static_cast<std::uint64_t>(i);
      expected[dst].emplace(tag, std::pair{size, tag});
      h.channels[src]->send(dst, tag, {0, 0}, stress_pattern(size, tag));
    }
  }
  h.machine.run();

  for (NodeId n = 0; n < kNodes; ++n) {
    ASSERT_EQ(h.clients[n].delivered.size(), expected[n].size())
        << "receiver " << n;
    for (const auto& [tag, want] : expected[n]) {
      const auto it = h.clients[n].delivered.find(tag);
      ASSERT_NE(it, h.clients[n].delivered.end()) << "tag " << tag;
      EXPECT_EQ(it->second, stress_pattern(want.first, want.second));
    }
    EXPECT_EQ(h.channels[n]->outbound_pending(), 0u);
    EXPECT_EQ(h.channels[n]->inbound_active(), 0u);
  }
}

// --- Migration storm through the full runtime --------------------------------------------

class StressNomad : public ActorBase {
 public:
  void on_add(Context&, std::int64_t v) { sum_ += v; ++messages_; }
  void on_hop(Context& ctx, NodeId target) { ctx.migrate_to(target); }
  HAL_BEHAVIOR(StressNomad, &StressNomad::on_add, &StressNomad::on_hop)
  bool migratable() const override { return true; }
  void pack_state(ByteWriter& w) const override {
    w.write(sum_);
    w.write(messages_);
  }
  void unpack_state(ByteReader& r) override {
    sum_ = r.read<std::int64_t>();
    messages_ = r.read<std::int64_t>();
  }
  std::int64_t sum() const { return sum_; }
  std::int64_t messages() const { return messages_; }

 private:
  std::int64_t sum_ = 0;
  std::int64_t messages_ = 0;
};

class StressDriver : public ActorBase {
 public:
  void on_storm(Context& ctx, std::uint64_t seed, std::int64_t ops,
                MailAddress a, MailAddress b) {
    Xoshiro256 rng(seed);
    const MailAddress targets[2] = {a, b};
    for (std::int64_t i = 0; i < ops; ++i) {
      const MailAddress& t = targets[rng.below(2)];
      if (rng.below(3) == 0) {
        ctx.send<&StressNomad::on_hop>(
            t, static_cast<NodeId>(rng.below(ctx.node_count())));
      } else {
        ctx.send<&StressNomad::on_add>(t, std::int64_t{1});
        sent_adds.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  HAL_BEHAVIOR(StressDriver, &StressDriver::on_storm)
  inline static std::atomic<std::int64_t> sent_adds{0};
};

// Migration storm under MnMachine with the load balancer on: hop-heavy
// traffic forces FIR chases and forwarding chains while steals relocate the
// receivers underneath them. Exactly-once delivery must survive all of it.
TEST(MnMachineStress, MigrationStormWithLoadBalancer) {
  constexpr NodeId kNodes = 6;
  RuntimeConfig cfg;
  cfg.nodes = kNodes;
  cfg.machine = MachineKind::kMn;
  cfg.load_balancing = true;
  cfg.seed = 0x57de55;
  Runtime rt(cfg);
  rt.load<StressNomad>();
  rt.load<StressDriver>();
  StressDriver::sent_adds = 0;

  const MailAddress a = rt.spawn<StressNomad>(0);
  const MailAddress b = rt.spawn<StressNomad>(kNodes - 1);
  for (NodeId d = 0; d < 3; ++d) {
    const MailAddress drv = rt.spawn<StressDriver>(d);
    rt.inject<&StressDriver::on_storm>(drv, 0x1000 + d, std::int64_t{150}, a,
                                       b);
  }
  rt.run();

  std::int64_t received = 0;
  for (const MailAddress& t : {a, b}) {
    const StressNomad* nm = rt.find_behavior<StressNomad>(t);
    ASSERT_NE(nm, nullptr) << "nomad lost";
    received += nm->messages();
    EXPECT_EQ(nm->sum(), nm->messages());
  }
  EXPECT_EQ(received, StressDriver::sent_adds.load());
  EXPECT_EQ(rt.dead_letters(), 0u);
  EXPECT_EQ(rt.machine().tokens(), 0u);
  const StatBlock stats = rt.report().total;
  EXPECT_EQ(stats.get(Stat::kMigrationsIn), stats.get(Stat::kMigrationsOut));
}

}  // namespace
}  // namespace hal

// Property-based tests: system-wide invariants under randomized workloads.
//
//  * Exactly-once delivery: every message sent to a location-transparent
//    address is processed exactly once, no matter how the receiver migrates
//    or is stolen while traffic is in flight.
//  * Determinism: identical seeds give bit-identical virtual-time runs.
//  * Epoch monotonicity: after quiescence, following any forward chain
//    strictly increases location epochs and ends at the actor.
//  * Conservation: work tokens return to zero; migrations in == out; no
//    dead letters for live receivers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <type_traits>

#include "common/rng.hpp"
#include "runtime/api.hpp"

namespace hal {
namespace {

/// A migratable accumulator that hops wherever it is told.
class Nomad : public ActorBase {
 public:
  void on_add(Context&, std::int64_t v) { sum_ += v; ++messages_; }
  void on_hop(Context& ctx, NodeId target) { ctx.migrate_to(target); }
  HAL_BEHAVIOR(Nomad, &Nomad::on_add, &Nomad::on_hop)
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

/// Fires a randomized schedule of adds and hops at a set of nomads.
class StormDriver : public ActorBase {
 public:
  void on_storm(Context& ctx, std::uint64_t seed, std::int64_t ops,
                MailAddress a, MailAddress b, MailAddress c) {
    Xoshiro256 rng(seed);
    const MailAddress targets[3] = {a, b, c};
    for (std::int64_t i = 0; i < ops; ++i) {
      const MailAddress& t = targets[rng.below(3)];
      // Space sends out a little so migrations interleave with traffic.
      ctx.charge_ns(rng.below(5000));
      if (rng.below(4) == 0) {
        ctx.send<&Nomad::on_hop>(
            t, static_cast<NodeId>(rng.below(ctx.node_count())));
      } else {
        ctx.send<&Nomad::on_add>(t, std::int64_t{1});
        sent_adds.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  HAL_BEHAVIOR(StormDriver, &StormDriver::on_storm)
  inline static std::atomic<std::int64_t> sent_adds{0};
};

// gtest names each case after the raw bytes of its parameter, so the padding
// is spelled out as zeroed members: stray padding bytes would otherwise
// rename the tests from one build to the next.
struct StormCase {
  std::uint64_t seed;
  NodeId nodes;
  std::uint8_t pad0[4] = {};
  std::int64_t ops;
  MachineKind machine;
  std::uint8_t pad1[7] = {};
};
static_assert(std::has_unique_object_representations_v<StormCase>);

class MigrationStorm : public ::testing::TestWithParam<StormCase> {};

TEST_P(MigrationStorm, ExactlyOnceDeliveryUnderRelocation) {
  const StormCase& c = GetParam();
  RuntimeConfig cfg;
  cfg.nodes = c.nodes;
  cfg.machine = c.machine;
  cfg.seed = c.seed;
  Runtime rt(cfg);
  rt.load<Nomad>();
  rt.load<StormDriver>();
  StormDriver::sent_adds = 0;

  const MailAddress a = rt.spawn<Nomad>(0);
  const MailAddress b = rt.spawn<Nomad>(c.nodes / 2);
  const MailAddress n3 = rt.spawn<Nomad>(c.nodes - 1);
  // Several independent drivers on different nodes stress cross-traffic.
  for (NodeId d = 0; d < std::min<NodeId>(c.nodes, 3); ++d) {
    const MailAddress drv = rt.spawn<StormDriver>(d);
    rt.inject<&StormDriver::on_storm>(drv, c.seed + d, c.ops, a, b, n3);
  }
  rt.run();

  std::int64_t received = 0;
  for (const MailAddress& t : {a, b, n3}) {
    const Nomad* nm = rt.find_behavior<Nomad>(t);
    ASSERT_NE(nm, nullptr) << "nomad lost";
    received += nm->messages();
    EXPECT_EQ(nm->sum(), nm->messages());
  }
  EXPECT_EQ(received, StormDriver::sent_adds.load());
  EXPECT_EQ(rt.dead_letters(), 0u);
  EXPECT_EQ(rt.machine().tokens(), 0u);
  const StatBlock stats = rt.report().total;
  EXPECT_EQ(stats.get(Stat::kMigrationsIn), stats.get(Stat::kMigrationsOut));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, MigrationStorm,
    ::testing::Values(StormCase{.seed = 1, .nodes = 4, .ops = 120,
                                .machine = MachineKind::kSim},
                      StormCase{.seed = 2, .nodes = 4, .ops = 120,
                                .machine = MachineKind::kSim},
                      StormCase{.seed = 3, .nodes = 8, .ops = 200,
                                .machine = MachineKind::kSim},
                      StormCase{.seed = 4, .nodes = 8, .ops = 200,
                                .machine = MachineKind::kSim},
                      StormCase{.seed = 5, .nodes = 2, .ops = 80,
                                .machine = MachineKind::kSim},
                      StormCase{.seed = 6, .nodes = 16, .ops = 150,
                                .machine = MachineKind::kSim},
                      StormCase{.seed = 7, .nodes = 3, .ops = 100,
                                .machine = MachineKind::kSim},
                      StormCase{.seed = 8, .nodes = 4, .ops = 120,
                                .machine = MachineKind::kMn},
                      StormCase{.seed = 9, .nodes = 8, .ops = 150,
                                .machine = MachineKind::kMn}));

TEST_P(MigrationStorm, EpochsIncreaseAlongForwardChains) {
  const StormCase& c = GetParam();
  if (c.machine != MachineKind::kSim) GTEST_SKIP();
  RuntimeConfig cfg;
  cfg.nodes = c.nodes;
  cfg.machine = c.machine;
  cfg.seed = c.seed;
  Runtime rt(cfg);
  rt.load<Nomad>();
  rt.load<StormDriver>();
  const MailAddress a = rt.spawn<Nomad>(0);
  const MailAddress b = rt.spawn<Nomad>(c.nodes - 1);
  const MailAddress drv = rt.spawn<StormDriver>(0);
  rt.inject<&StormDriver::on_storm>(drv, c.seed, c.ops, a, b, a);
  rt.run();

  // Walk each forward chain: epochs must strictly increase hop to hop.
  for (const MailAddress& t : {a, b}) {
    NodeId node = t.home;
    std::uint32_t last_epoch = 0;
    bool first = true;
    for (NodeId hops = 0; hops <= c.nodes + 1; ++hops) {
      Kernel& k = rt.kernel(node);
      const SlotId ds = k.names().resolve(t);
      ASSERT_TRUE(ds.valid());
      const LocalityDescriptor& d = k.names().descriptor(ds);
      if (d.local()) {
        SUCCEED();
        break;
      }
      if (!first) {
        EXPECT_GT(d.epoch, last_epoch)
            << "non-monotone forward chain at node " << node;
      }
      first = false;
      last_epoch = d.epoch;
      node = d.remote_node;
      ASSERT_LE(hops, c.nodes) << "forward chain did not terminate (cycle?)";
    }
  }
}

TEST(Determinism, IdenticalSeedsGiveIdenticalRuns) {
  auto run_once = [](std::uint64_t seed) {
    RuntimeConfig cfg;
    cfg.nodes = 6;
    cfg.seed = seed;
    cfg.load_balancing = true;
    Runtime rt(cfg);
    rt.load<Nomad>();
    rt.load<StormDriver>();
    const MailAddress a = rt.spawn<Nomad>(0);
    const MailAddress b = rt.spawn<Nomad>(3);
    const MailAddress drv = rt.spawn<StormDriver>(1);
    rt.inject<&StormDriver::on_storm>(drv, seed, std::int64_t{150}, a, b, a);
    rt.run();
    return std::pair(rt.report().makespan_ns,
                     rt.report().total.get(Stat::kMessagesSentRemote));
  };
  const auto r1 = run_once(77);
  const auto r2 = run_once(77);
  const auto r3 = run_once(78);
  EXPECT_EQ(r1, r2);
  // A different seed perturbs the schedule (send gaps are seeded).
  EXPECT_NE(r1, r3);
}

/// Join continuations with many slots complete exactly once regardless of
/// the reply arrival order.
class FanOut : public ActorBase {
 public:
  void on_go(Context& ctx, std::int64_t width) {
    const auto w32 = static_cast<std::uint32_t>(width);
    const ContRef join =
        ctx.make_join(w32, [](Context&, const JoinView& v) {
          std::int64_t sum = 0;
          for (std::size_t i = 0; i < v.size(); ++i) {
            sum += v.get<std::int64_t>(i);
          }
          total = sum;
          ++fires;
        });
    for (std::uint32_t i = 0; i < w32; ++i) {
      const auto node =
          static_cast<NodeId>(i % static_cast<std::uint32_t>(ctx.node_count()));
      const MailAddress echo = ctx.create_on<Echo>(node);
      ctx.send_cont<&Echo::on_echo>(echo, join.at(i), std::int64_t{i});
    }
  }
  class Echo : public ActorBase {
   public:
    void on_echo(Context& ctx, std::int64_t v) {
      // Random-ish virtual delay scrambles reply order.
      ctx.charge_ns((static_cast<SimTime>(v) * 2654435761u) % 50000);
      ctx.reply(v);
      ctx.terminate();
    }
    HAL_BEHAVIOR(Echo, &Echo::on_echo)
  };
  HAL_BEHAVIOR(FanOut, &FanOut::on_go)
  inline static std::int64_t total = 0;
  inline static int fires = 0;
};

class JoinWidth : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(JoinWidth, JoinFiresOnceWithAllReplies) {
  const std::int64_t width = GetParam();
  FanOut::total = 0;
  FanOut::fires = 0;
  RuntimeConfig cfg;
  cfg.nodes = 5;
  Runtime rt(cfg);
  rt.load<FanOut>();
  rt.load<FanOut::Echo>();
  const MailAddress f = rt.spawn<FanOut>(0);
  rt.inject<&FanOut::on_go>(f, width);
  rt.run();
  EXPECT_EQ(FanOut::fires, 1);
  EXPECT_EQ(FanOut::total, width * (width - 1) / 2);
  EXPECT_EQ(rt.machine().tokens(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Widths, JoinWidth,
                         ::testing::Values(1, 2, 3, 7, 16, 64, 200));

}  // namespace
}  // namespace hal

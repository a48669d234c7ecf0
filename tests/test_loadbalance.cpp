// Integration tests: receiver-initiated random-polling load balancing
// (Table 4's mechanism) — stealing relocatable ready actors via real
// migration, poll backoff, and work conservation.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "runtime/api.hpp"

namespace hal {
namespace {

/// A relocatable work item: burns virtual compute, then reports to a
/// collector. Created in bulk on one node; idle nodes should steal some.
class WorkItem : public ActorBase {
 public:
  void on_run(Context& ctx, std::int64_t grains) {
    ctx.set_relocatable(false);  // executing now; stealing is moot
    ctx.charge_work(static_cast<std::uint64_t>(grains));
    ctx.reply(static_cast<std::int64_t>(ctx.node()));
    ctx.terminate();
  }
  HAL_BEHAVIOR(WorkItem, &WorkItem::on_run)

  bool migratable() const override { return true; }
  void pack_state(ByteWriter&) const override {}
  void unpack_state(ByteReader&) override {}
};

/// Seeds N work items on the local node and joins their completions.
class Seeder : public ActorBase {
 public:
  void on_seed(Context& ctx, std::int64_t n, std::int64_t grains) {
    const ContRef join = ctx.make_join(
        static_cast<std::uint32_t>(n),
        [](Context&, const JoinView& v) {
          for (std::size_t i = 0; i < v.size(); ++i) {
            ++node_histogram[v.get<std::int64_t>(i)];
          }
          completed = v.size();
        });
    for (std::int64_t i = 0; i < n; ++i) {
      const MailAddress w = ctx.create<WorkItem>();
      ctx.set_relocatable(w, true);
      ctx.send_cont<&WorkItem::on_run>(w, join.at(static_cast<std::uint32_t>(i)),
                                       grains);
    }
  }
  HAL_BEHAVIOR(Seeder, &Seeder::on_seed)
  inline static std::map<std::int64_t, int> node_histogram{};
  inline static std::size_t completed = 0;
};

class LoadBalanceTest : public ::testing::TestWithParam<MachineKind> {
 protected:
  RuntimeConfig cfg(NodeId nodes, bool lb) {
    RuntimeConfig c;
    c.nodes = nodes;
    c.machine = GetParam();
    c.load_balancing = lb;
    c.seed = 1234;
    return c;
  }
};

TEST_P(LoadBalanceTest, StealingSpreadsWork) {
  Seeder::node_histogram.clear();
  Seeder::completed = 0;
  Runtime rt(cfg(4, /*lb=*/true));
  rt.load<WorkItem>();
  rt.load<Seeder>();
  const MailAddress s = rt.spawn<Seeder>(0);
  rt.inject<&Seeder::on_seed>(s, std::int64_t{64}, std::int64_t{20000});
  rt.run();
  EXPECT_EQ(Seeder::completed, 64u);
  EXPECT_EQ(rt.dead_letters(), 0u);
  const StatBlock stats = rt.report().total;
  EXPECT_EQ(stats.get(Stat::kMigrationsIn),
            stats.get(Stat::kMigrationsOut));
  if (GetParam() == MachineKind::kSim) {
    // Virtual time makes the idle transitions deterministic: nodes 1-3 sit
    // idle while node 0 grinds, so steals are guaranteed.
    EXPECT_GT(stats.get(Stat::kStealRequestsServed), 0u);
    int off_node = 0;
    for (const auto& [node, count] : Seeder::node_histogram) {
      if (node != 0) off_node += count;
    }
    EXPECT_GT(off_node, 0);
  }
}

TEST_P(LoadBalanceTest, WithoutLbEverythingRunsAtSeed) {
  Seeder::node_histogram.clear();
  Seeder::completed = 0;
  Runtime rt(cfg(4, /*lb=*/false));
  rt.load<WorkItem>();
  rt.load<Seeder>();
  const MailAddress s = rt.spawn<Seeder>(0);
  rt.inject<&Seeder::on_seed>(s, std::int64_t{32}, std::int64_t{5000});
  rt.run();
  EXPECT_EQ(Seeder::completed, 32u);
  EXPECT_EQ(Seeder::node_histogram.size(), 1u);
  EXPECT_EQ(Seeder::node_histogram[0], 32);
  EXPECT_EQ(rt.report().total.get(Stat::kStealRequestsSent), 0u);
}

TEST_P(LoadBalanceTest, SimLbReducesMakespan) {
  if (GetParam() != MachineKind::kSim) {
    GTEST_SKIP() << "makespan comparison needs virtual time";
  }
  auto measure = [&](bool lb) {
    Seeder::node_histogram.clear();
    Seeder::completed = 0;
    Runtime rt(cfg(8, lb));
    rt.load<WorkItem>();
    rt.load<Seeder>();
    const MailAddress s = rt.spawn<Seeder>(0);
    rt.inject<&Seeder::on_seed>(s, std::int64_t{128}, std::int64_t{50000});
    rt.run();
    EXPECT_EQ(Seeder::completed, 128u);
    return rt.report().makespan_ns;
  };
  const SimTime without = measure(false);
  const SimTime with = measure(true);
  // 128 items × 3 ms of work over 8 nodes: stealing should cut the
  // makespan by a large factor (paper Table 4's with/without LB contrast).
  EXPECT_LT(with, without / 2);
}

TEST_P(LoadBalanceTest, IdleMachineStaysQuiescent) {
  // A machine with LB on but no work must terminate without poll chatter:
  // the work hint is zero, so idle nodes never send steal requests.
  Runtime rt(cfg(4, /*lb=*/true));
  rt.load<WorkItem>();
  rt.run();
  const StatBlock stats = rt.report().total;
  EXPECT_EQ(stats.get(Stat::kStealRequestsSent), 0u);
}

std::uint64_t fib_of(std::uint64_t n) {
  return n < 2 ? n : fib_of(n - 1) + fib_of(n - 2);
}

/// An actor per fib call at or above the cutoff; its two children are
/// relocatable, as in the Table 4 workload (apps::run_fib).
class StolenFib : public ActorBase {
 public:
  void on_compute(Context& ctx, std::uint64_t n, std::uint64_t cutoff,
                  ContRef reply) {
    if (n < cutoff) {
      ctx.charge_work(4 * fib_of(n + 1));
      ctx.reply_to(reply, fib_of(n));
      ctx.terminate();
      return;
    }
    const ContRef join =
        ctx.make_join(2, [reply](Context& jc, const JoinView& v) {
          jc.kernel().reply_to(reply, v.word(0) + v.word(1));
        });
    const MailAddress left = ctx.create<StolenFib>();
    const MailAddress right = ctx.create<StolenFib>();
    ctx.set_relocatable(left, true);
    ctx.set_relocatable(right, true);
    ctx.send<&StolenFib::on_compute>(left, n - 1, cutoff, join.at(0));
    ctx.send<&StolenFib::on_compute>(right, n - 2, cutoff, join.at(1));
    ctx.terminate();
  }
  HAL_BEHAVIOR(StolenFib, &StolenFib::on_compute)
  bool migratable() const override { return true; }
  void pack_state(ByteWriter&) const override {}
  void unpack_state(ByteReader&) override {}
};

class StolenFibRoot : public ActorBase {
 public:
  void on_start(Context& ctx, std::uint64_t n, std::uint64_t cutoff) {
    const ContRef join = ctx.make_join(
        1, [self = ctx.self()](Context& jc, const JoinView& v) {
          jc.send<&StolenFibRoot::on_done>(self, v.word(0));
        });
    const MailAddress top = ctx.create<StolenFib>();
    ctx.set_relocatable(top, true);
    ctx.send<&StolenFib::on_compute>(top, n, cutoff, join.at(0));
  }
  void on_done(Context&, std::uint64_t value) { result = value; }
  HAL_BEHAVIOR(StolenFibRoot, &StolenFibRoot::on_start, &StolenFibRoot::on_done)
  std::uint64_t result = 0;
};

TEST_P(LoadBalanceTest, NameTablesHoldLiveActorsAndMigratedForwardState) {
  constexpr std::uint64_t kN = 24;
  Runtime rt(cfg(4, /*lb=*/true));
  rt.load<StolenFib>();
  rt.load<StolenFibRoot>();
  const MailAddress root = rt.spawn<StolenFibRoot>(0);
  rt.inject<&StolenFibRoot::on_start>(root, kN, std::uint64_t{8});
  rt.run();
  const StolenFibRoot* r = rt.find_behavior<StolenFibRoot>(root);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->result, fib_of(kN));
  std::size_t descriptors = 0;
  std::size_t live = 0;
  for (NodeId n = 0; n < rt.nodes(); ++n) {
    descriptors += rt.kernel(n).names().live_descriptors();
    live += rt.kernel(n).live_actors();
  }
  const StatBlock stats = rt.report().total;
  const std::uint64_t migrations = stats.get(Stat::kMigrationsIn);
  EXPECT_EQ(live, 1u);  // the root
  // An actor that died where it was born, unmoved, left no descriptor. A
  // stolen one leaves at most its birthplace's forward pointer plus one
  // descriptor per node it reached, and each of those took a migration.
  EXPECT_LE(descriptors, live + 2 * migrations);
  EXPECT_GT(stats.get(Stat::kActorsCreatedLocal), 1000u);
  if (GetParam() == MachineKind::kSim) {
    EXPECT_GT(migrations, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Machines, LoadBalanceTest,
                         ::testing::Values(MachineKind::kSim,
                                           MachineKind::kMn),
                         // `Thread` labels the wall-clock column: host worker
                         // threads, MnMachine on its default pool.
                         [](const auto& param_info) {
                           return param_info.param == MachineKind::kSim
                                      ? "Sim"
                                      : "Thread";
                         });

// --- The work hint is the balancer's alone ----------------------------------

/// Reads the machine-wide work hint from inside a running method.
class HintReader : public ActorBase {
 public:
  void on_read(Context& ctx) { seen = ctx.kernel().machine().work_hint(); }
  HAL_BEHAVIOR(HintReader, &HintReader::on_read)

  std::int64_t seen = -1;
};

std::int64_t hint_inside_a_method(bool load_balancing) {
  RuntimeConfig cfg;
  cfg.nodes = 2;
  cfg.load_balancing = load_balancing;
  Runtime rt(cfg);
  rt.load<HintReader>();
  const MailAddress a = rt.spawn<HintReader>(1);
  rt.inject<&HintReader::on_read>(a);
  rt.run();
  const HintReader* r = rt.find_behavior<HintReader>(a);
  return r == nullptr ? -1 : r->seen;
}

TEST(WorkHint, StaysZeroWithoutABalancer) {
  // Nobody reads the hint without the balancer, so the kernel keeps no
  // count: no shared RMW per dispatcher item, and no 0→1 edge whose
  // wake_hook rouses every worker of a wall-clock machine.
  EXPECT_EQ(hint_inside_a_method(/*load_balancing=*/false), 0);
}

TEST(WorkHint, CountsTheExecutingItemWithABalancer) {
  // With the balancer the executing item counts until it completes, so
  // idle nodes keep polling while a long method is generating work.
  EXPECT_GT(hint_inside_a_method(/*load_balancing=*/true), 0);
}

TEST(WorkHint, CountsBusyNodesNotItems) {
  // The hint counts nodes with queued or executing items: the first of
  // three readers queued on node 1 runs while the other two wait, and reads
  // one busy node, not three items. Each node touches the shared hint only
  // when its own item count crosses zero.
  RuntimeConfig cfg;
  cfg.nodes = 2;
  cfg.load_balancing = true;
  Runtime rt(cfg);
  rt.load<HintReader>();
  std::vector<MailAddress> readers;
  for (int i = 0; i < 3; ++i) readers.push_back(rt.spawn<HintReader>(1));
  for (const MailAddress& a : readers) rt.inject<&HintReader::on_read>(a);
  rt.run();
  const HintReader* first = rt.find_behavior<HintReader>(readers.front());
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->seen, 1);
}

}  // namespace
}  // namespace hal

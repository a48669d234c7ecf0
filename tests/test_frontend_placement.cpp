// Tests: front-end console I/O (§3, Fig. 1), dynamic placement policies,
// and the NOW cost-model preset.
#include <gtest/gtest.h>

#include <set>

#include "runtime/api.hpp"

namespace hal {
namespace {

class Talker : public ActorBase {
 public:
  void on_say(Context& ctx, std::int64_t delay_us, std::int64_t tag) {
    ctx.charge_ns(static_cast<SimTime>(delay_us) * 1000);
    char line[32];
    std::snprintf(line, sizeof line, "tag=%lld", static_cast<long long>(tag));
    ctx.print(line);
  }
  HAL_BEHAVIOR(Talker, &Talker::on_say)
};

class FrontEndTest : public ::testing::TestWithParam<MachineKind> {
 protected:
  RuntimeConfig cfg(NodeId nodes) {
    RuntimeConfig c;
    c.nodes = nodes;
    c.machine = GetParam();
    return c;
  }
};

TEST_P(FrontEndTest, CollectsLinesFromEveryNode) {
  Runtime rt(cfg(4));
  rt.load<Talker>();
  for (NodeId n = 0; n < 4; ++n) {
    const MailAddress t = rt.spawn<Talker>(n);
    rt.inject<&Talker::on_say>(t, std::int64_t{100 * (n + 1)},
                               std::int64_t{n});
  }
  rt.run();
  const auto lines = rt.console();
  ASSERT_EQ(lines.size(), 4u);
  std::set<NodeId> nodes_seen;
  for (const auto& l : lines) nodes_seen.insert(l.node);
  EXPECT_EQ(nodes_seen.size(), 4u);
}

TEST_P(FrontEndTest, SimOrdersLinesByVirtualTime) {
  if (GetParam() != MachineKind::kSim) GTEST_SKIP();
  Runtime rt(cfg(3));
  rt.load<Talker>();
  // Emission delays deliberately inverted vs node order.
  const std::int64_t delays[3] = {900, 100, 500};
  for (NodeId n = 0; n < 3; ++n) {
    const MailAddress t = rt.spawn<Talker>(n);
    rt.inject<&Talker::on_say>(t, delays[n], std::int64_t{n});
  }
  rt.run();
  const auto lines = rt.console();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].text, "tag=1");
  EXPECT_EQ(lines[1].text, "tag=2");
  EXPECT_EQ(lines[2].text, "tag=0");
  EXPECT_LE(lines[0].time, lines[1].time);
  EXPECT_LE(lines[1].time, lines[2].time);
}

INSTANTIATE_TEST_SUITE_P(Machines, FrontEndTest,
                         ::testing::Values(MachineKind::kSim,
                                           MachineKind::kMn),
                         // `Thread` labels the wall-clock column: host worker
                         // threads, MnMachine on its default pool.
                         [](const auto& param_info) {
                           return param_info.param == MachineKind::kSim
                                      ? "Sim"
                                      : "Thread";
                         });

// --- Placement policies -----------------------------------------------------------

class Probe : public ActorBase {
 public:
  void on_nop(Context&) {}
  HAL_BEHAVIOR(Probe, &Probe::on_nop)
};

class Placer : public ActorBase {
 public:
  void on_spread(Context& ctx, std::int64_t count) {
    for (std::int64_t i = 0; i < count; ++i) {
      created.push_back(ctx.create_spread<Probe>());
    }
  }
  void on_random(Context& ctx, std::int64_t count) {
    for (std::int64_t i = 0; i < count; ++i) {
      created.push_back(ctx.create_random<Probe>());
    }
  }
  HAL_BEHAVIOR(Placer, &Placer::on_spread, &Placer::on_random)
  inline static std::vector<MailAddress> created;
};

TEST(Placement, RoundRobinSpreadCoversAllNodesEvenly) {
  Placer::created.clear();
  RuntimeConfig cfg;
  cfg.nodes = 4;
  Runtime rt(cfg);
  rt.load<Probe>();
  rt.load<Placer>();
  const MailAddress p = rt.spawn<Placer>(0);
  rt.inject<&Placer::on_spread>(p, std::int64_t{12});
  rt.run();
  ASSERT_EQ(Placer::created.size(), 12u);
  std::map<NodeId, int> per_node;
  for (const auto& a : Placer::created) ++per_node[a.fallback_node()];
  ASSERT_EQ(per_node.size(), 4u);
  for (const auto& [node, count] : per_node) EXPECT_EQ(count, 3);
}

TEST(Placement, RandomPlacementIsSeededAndInRange) {
  auto run_once = [] {
    Placer::created.clear();
    RuntimeConfig cfg;
    cfg.nodes = 5;
    cfg.seed = 99;
    Runtime rt(cfg);
    rt.load<Probe>();
    rt.load<Placer>();
    const MailAddress p = rt.spawn<Placer>(2);
    rt.inject<&Placer::on_random>(p, std::int64_t{30});
    rt.run();
    std::vector<NodeId> nodes;
    for (const auto& a : Placer::created) {
      EXPECT_LT(a.fallback_node(), 5u);
      nodes.push_back(a.fallback_node());
    }
    return nodes;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b) << "random placement must be deterministic per seed";
  EXPECT_GT(std::set<NodeId>(a.begin(), a.end()).size(), 1u);
}

// --- NOW cost preset ----------------------------------------------------------------

TEST(NowPreset, HigherLatencyStretchesRemoteTraffic) {
  auto ping_time = [](const am::CostModel& costs) {
    RuntimeConfig cfg;
    cfg.nodes = 2;
    cfg.costs = costs;
    Runtime rt(cfg);
    rt.load<Talker>();
    const MailAddress t = rt.spawn<Talker>(1);
    rt.inject<&Talker::on_say>(t, std::int64_t{0}, std::int64_t{1});
    rt.run();
    return rt.report().makespan_ns;
  };
  const SimTime cm5 = ping_time(am::CostModel::cm5());
  const SimTime now_t = ping_time(am::CostModel::now());
  // The makespan includes identical node-local kernel costs, so the ratio
  // is well below the raw 12x latency gap; 3x is the robust signal.
  EXPECT_GT(now_t, 3 * cm5);
}

}  // namespace
}  // namespace hal

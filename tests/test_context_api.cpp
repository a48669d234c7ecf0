// Tests: remaining Context / compiled API surface — create_init variants,
// prefilled join slots, send_static_cont, broadcast with continuations,
// and the HALlite interpreter under the wall-clock machine (MnMachine).
#include <gtest/gtest.h>

#include "lang/interp.hpp"
#include "runtime/api.hpp"

namespace hal {
namespace {

class Worker : public ActorBase {
 public:
  void on_init(Context&, std::int64_t seed) { value_ = seed; }
  void on_scale(Context& ctx, std::int64_t k) {
    value_ *= k;
    ctx.reply(value_);
  }
  HAL_BEHAVIOR(Worker, &Worker::on_init, &Worker::on_scale)
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

class Driver : public ActorBase {
 public:
  void on_create_init_local(Context& ctx) {
    made = ctx.create_init<&Worker::on_init>(std::int64_t{7});
  }
  void on_create_init_remote(Context& ctx, NodeId target) {
    made = ctx.create_init_on<&Worker::on_init>(target, std::int64_t{9});
  }
  void on_prefilled_join(Context& ctx, MailAddress w) {
    // Three slots: two prefilled at creation (Fig. 4's known arguments),
    // one filled by a reply.
    const ContRef jc = ctx.make_join(
        3, [](Context&, const JoinView& v) {
          observed = static_cast<std::int64_t>(v.word(0) + v.word(1)) +
                     v.get<std::int64_t>(2);
        });
    ctx.prefill(jc.at(0), std::uint64_t{100});
    ctx.prefill(jc.at(1), std::uint64_t{20});
    ctx.send_cont<&Worker::on_scale>(w, jc.at(2), std::int64_t{3});
  }
  void on_static_cont(Context& ctx, MailAddress w) {
    const ContRef jc = ctx.make_join(
        1, [](Context&, const JoinView& v) {
          observed = v.get<std::int64_t>(0);
        });
    // Compiled fast path with a reply continuation: the callee runs on this
    // stack, the reply routes through the join continuation.
    compiled::send_static_cont<&Worker::on_scale>(ctx, w, jc.at(0),
                                                  std::int64_t{5});
  }
  HAL_BEHAVIOR(Driver, &Driver::on_create_init_local,
               &Driver::on_create_init_remote, &Driver::on_prefilled_join,
               &Driver::on_static_cont)
  inline static MailAddress made{};
  inline static std::int64_t observed = 0;
};

struct ContextApi : ::testing::Test {
  void SetUp() override {
    Driver::made = {};
    Driver::observed = 0;
  }
  RuntimeConfig cfg(NodeId nodes) {
    RuntimeConfig c;
    c.nodes = nodes;
    return c;
  }
};

TEST_F(ContextApi, CreateInitLocal) {
  Runtime rt(cfg(1));
  rt.load<Worker>();
  rt.load<Driver>();
  const MailAddress d = rt.spawn<Driver>(0);
  rt.inject<&Driver::on_create_init_local>(d);
  rt.run();
  const Worker* w = rt.find_behavior<Worker>(Driver::made);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->value(), 7);
}

TEST_F(ContextApi, CreateInitRemoteArrivesFirst) {
  Runtime rt(cfg(3));
  rt.load<Worker>();
  rt.load<Driver>();
  const MailAddress d = rt.spawn<Driver>(0);
  rt.inject<&Driver::on_create_init_remote>(d, NodeId{2});
  rt.run();
  ASSERT_TRUE(Driver::made.alias);
  const Worker* w = rt.find_behavior<Worker>(Driver::made);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->value(), 9);  // the init message was delivered first
}

TEST_F(ContextApi, PrefilledJoinSlots) {
  Runtime rt(cfg(2));
  rt.load<Worker>();
  rt.load<Driver>();
  const MailAddress w = rt.spawn<Worker>(1);
  rt.inject<&Worker::on_init>(w, std::int64_t{4});
  const MailAddress d = rt.spawn<Driver>(0);
  rt.inject<&Driver::on_prefilled_join>(d, w);
  rt.run();
  // 100 + 20 prefilled + (4 * 3) replied.
  EXPECT_EQ(Driver::observed, 132);
}

TEST_F(ContextApi, SendStaticContDeliversReply) {
  Runtime rt(cfg(1));
  rt.load<Worker>();
  rt.load<Driver>();
  const MailAddress w = rt.spawn<Worker>(0);
  rt.inject<&Worker::on_init>(w, std::int64_t{8});
  const MailAddress d = rt.spawn<Driver>(0);
  rt.inject<&Driver::on_static_cont>(d, w);
  rt.run();
  EXPECT_EQ(Driver::observed, 40);
  EXPECT_GT(rt.report().total.get(Stat::kStaticDispatches), 0u);
}

// --- HALlite under the wall-clock machine ----------------------------------------

TEST(LangThreaded, ProgramsRunUnderRealThreads) {
  RuntimeConfig cfg;
  cfg.nodes = 4;
  cfg.machine = MachineKind::kMn;
  Runtime rt(cfg);
  auto program = lang::load_program(rt, R"(
    behavior Counter {
      state value = 0;
      method inc(by) { value = value + by; }
      method get() { reply value; }
    }
    main {
      let c = new Counter on 3;
      let i = 0;
      while (i < 50) {
        send c.inc(2);
        i = i + 1;
      }
      request c.get() -> (v) { print "total " + v; }
    }
  )");
  lang::start_main(rt, program);
  rt.run();
  const auto lines = rt.console();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].text, "total 100");
  EXPECT_EQ(rt.dead_letters(), 0u);
}

TEST(LangThreaded, MigrationUnderRealThreads) {
  RuntimeConfig cfg;
  cfg.nodes = 3;
  cfg.machine = MachineKind::kMn;
  Runtime rt(cfg);
  auto program = lang::load_program(rt, R"(
    behavior Hopper {
      state count = 0;
      method hop(t) { count = count + 1; migrate t; }
      method ask() { reply count; }
    }
    main {
      let h = new Hopper;
      send h.hop(1);
      send h.hop(2);
      send h.hop(0);
      request h.ask() -> (v) { print "hops " + v; }
    }
  )");
  lang::start_main(rt, program);
  rt.run();
  const auto lines = rt.console();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].text, "hops 3");
}

}  // namespace
}  // namespace hal

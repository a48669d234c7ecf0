// Unit tests: the smaller components — Dispatcher, BehaviorRegistry,
// StatBlock formatting, cost-model presets, SimMachine housekeeping and
// FrontEnd ordering.
#include <gtest/gtest.h>

#include "am/sim_machine.hpp"
#include "runtime/api.hpp"

namespace hal {
namespace {

// --- Dispatcher ------------------------------------------------------------------

TEST(Dispatcher, FifoOrderAcrossItemKinds) {
  Dispatcher d;
  d.schedule_actor(SlotId{1, 1});
  Message m;
  m.selector = 7;
  d.schedule_quantum(GroupId{0, 3}, m);
  d.schedule_actor(SlotId{2, 1});
  ASSERT_EQ(d.size(), 3u);

  auto i1 = d.next();
  ASSERT_TRUE(i1.has_value());
  EXPECT_EQ(i1->kind, Dispatcher::Item::Kind::kActor);
  EXPECT_EQ(i1->actor, (SlotId{1, 1}));

  auto i2 = d.next();
  EXPECT_EQ(i2->kind, Dispatcher::Item::Kind::kQuantum);
  EXPECT_EQ(i2->group, (GroupId{0, 3}));
  EXPECT_EQ(d.take_message(*i2).selector, 7u);

  auto i3 = d.next();
  EXPECT_EQ(i3->actor, (SlotId{2, 1}));
  EXPECT_FALSE(d.next().has_value());
}

TEST(Dispatcher, StealTakesOldestMatching) {
  Dispatcher d;
  d.schedule_actor(SlotId{1, 1});
  d.schedule_actor(SlotId{2, 1});
  d.schedule_actor(SlotId{3, 1});
  // Predicate rejects the first: the steal should take the second.
  auto stolen = d.steal_if([](SlotId s) { return s.index != 1; });
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(stolen->index, 2u);
  EXPECT_EQ(d.size(), 2u);
  // Remaining order intact.
  EXPECT_EQ(d.next()->actor.index, 1u);
  EXPECT_EQ(d.next()->actor.index, 3u);
}

TEST(Dispatcher, StealOnEmptyOrNoMatch) {
  Dispatcher d;
  EXPECT_FALSE(d.steal_if([](SlotId) { return true; }).has_value());
  d.schedule_actor(SlotId{1, 1});
  EXPECT_FALSE(d.steal_if([](SlotId) { return false; }).has_value());
  EXPECT_EQ(d.size(), 1u);
}

TEST(Dispatcher, ActorsReadiedInsideAnItemRunNewestFirst) {
  Dispatcher d;
  d.schedule_actor(SlotId{1, 1});
  d.schedule_actor(SlotId{2, 1});
  ASSERT_EQ(d.next()->actor.index, 1u);
  // Item 1 sends to two idle actors: the last one readied runs next, then
  // the other, and only then the item that was queued before them.
  d.begin_item();
  d.schedule_actor(SlotId{3, 1});
  d.schedule_actor(SlotId{4, 1});
  d.end_item();
  EXPECT_EQ(d.next()->actor.index, 4u);
  EXPECT_EQ(d.next()->actor.index, 3u);
  EXPECT_EQ(d.next()->actor.index, 2u);
  EXPECT_FALSE(d.next().has_value());
}

TEST(Dispatcher, QuantaAndActorsReadiedOutsideAnItemStayFifo) {
  Dispatcher d;
  d.schedule_actor(SlotId{1, 1});
  ASSERT_EQ(d.next()->actor.index, 1u);
  d.begin_item();
  d.schedule_actor(SlotId{2, 1});  // a send from item 1: newest-first
  Message m;
  m.selector = 9;
  d.schedule_quantum(GroupId{0, 1}, std::move(m));  // quanta never are
  d.end_item();
  d.schedule_actor(SlotId{3, 1});  // e.g. a burst re-queue or an arrival
  // The newest end holds a FIFO item, so the oldest is served: the
  // newest-first actor has been passed by, and keeps its place.
  EXPECT_EQ(d.next()->actor.index, 2u);
  auto q = d.next();
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->kind, Dispatcher::Item::Kind::kQuantum);
  EXPECT_EQ(d.take_message(*q).selector, 9u);
  EXPECT_EQ(d.next()->actor.index, 3u);
  EXPECT_FALSE(d.next().has_value());
}

TEST(Dispatcher, BoundServesTheOldestEndAfterNewestFirstStreak) {
  Dispatcher d;
  d.schedule_actor(SlotId{0, 1});  // the item a send chain would starve
  // A chain of local sends: every item readies one fresh actor.
  d.begin_item();
  d.schedule_actor(SlotId{1, 1});
  d.end_item();
  for (std::uint32_t i = 1; i <= Dispatcher::kNewestFirstBound; ++i) {
    auto item = d.next();
    ASSERT_TRUE(item.has_value());
    ASSERT_EQ(item->actor.index, i);
    d.begin_item();
    d.schedule_actor(SlotId{i + 1, 1});
    d.end_item();
  }
  // K newest-end takes in a row: the next take is the oldest item.
  EXPECT_EQ(d.next()->actor.index, 0u);
  // The streak restarts: the chain continues newest-first.
  EXPECT_EQ(d.next()->actor.index, Dispatcher::kNewestFirstBound + 1);
  EXPECT_FALSE(d.next().has_value());
}

TEST(Dispatcher, StealTakesTheOldestEvenWhenNewestFirstItemsAreQueued) {
  Dispatcher d;
  d.schedule_actor(SlotId{1, 1});
  d.begin_item();
  d.schedule_actor(SlotId{2, 1});
  d.schedule_actor(SlotId{3, 1});
  d.end_item();
  // The owner runs its newest work; a thief takes the oldest.
  EXPECT_EQ(d.steal_if([](SlotId) { return true; })->index, 1u);
  EXPECT_EQ(d.steal_if([](SlotId s) { return s.index != 2; })->index, 3u);
  EXPECT_EQ(d.next()->actor.index, 2u);
  EXPECT_FALSE(d.next().has_value());
}

// --- BehaviorRegistry ---------------------------------------------------------------

class RegA : public ActorBase {
 public:
  void on_x(Context&) {}
  HAL_BEHAVIOR(RegA, &RegA::on_x)
};
class RegB : public ActorBase {
 public:
  void on_y(Context&) {}
  HAL_BEHAVIOR(RegB, &RegB::on_y)
};

TEST(Registry, IdsAreStableAndIdempotent) {
  BehaviorRegistry r;
  const BehaviorId a1 = r.register_behavior<RegA>();
  const BehaviorId b = r.register_behavior<RegB>();
  const BehaviorId a2 = r.register_behavior<RegA>();  // duplicate load
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.id_of<RegA>(), a1);
  EXPECT_TRUE(r.registered<RegB>());
}

TEST(Registry, ConstructsByIdWithCorrectDynamicType) {
  BehaviorRegistry r;
  const BehaviorId b = r.register_behavior<RegB>();
  auto obj = r.construct(b);
  EXPECT_NE(dynamic_cast<RegB*>(obj.get()), nullptr);
  EXPECT_EQ(obj->behavior_name(), "RegB");
  EXPECT_EQ(r.name(b), "RegB");
  EXPECT_EQ(obj->method_count(), 1u);
}

class RegC : public ActorBase {
 public:
  void on_z(Context&) {}
  HAL_BEHAVIOR(RegC, &RegC::on_z)
};

TEST(BehaviorRegistry, IdOfIsPerRegistry) {
  RuntimeConfig cfg;
  cfg.nodes = 1;
  cfg.machine = MachineKind::kSim;
  Runtime first(cfg);
  Runtime second(cfg);
  // Opposite load orders: the C++ types share one per-type slot each, the
  // ids they map to are each registry's own.
  const BehaviorId a1 = first.load<RegA>();
  const BehaviorId b1 = first.load<RegB>();
  const BehaviorId b2 = second.load<RegB>();
  const BehaviorId a2 = second.load<RegA>();
  EXPECT_NE(a1, b1);
  EXPECT_EQ(a1, b2);
  EXPECT_EQ(b1, a2);
  EXPECT_EQ(first.registry().id_of<RegA>(), a1);
  EXPECT_EQ(first.registry().id_of<RegB>(), b1);
  EXPECT_EQ(second.registry().id_of<RegA>(), a2);
  EXPECT_EQ(second.registry().id_of<RegB>(), b2);
  EXPECT_EQ(first.spawn<RegA>(0).behavior, a1);
  EXPECT_EQ(second.spawn<RegA>(0).behavior, a2);
  // A type only the other registry loaded stays unknown here.
  second.load<RegC>();
  EXPECT_TRUE(second.registry().registered<RegC>());
  EXPECT_FALSE(first.registry().registered<RegC>());
}

// --- StatBlock -----------------------------------------------------------------------

TEST(Stats, AccumulateAndFormat) {
  StatBlock a, b;
  a.bump(Stat::kMigrationsIn, 3);
  b.bump(Stat::kMigrationsIn, 4);
  b.bump(Stat::kFirSent);
  a += b;
  EXPECT_EQ(a.get(Stat::kMigrationsIn), 7u);
  EXPECT_EQ(a.get(Stat::kFirSent), 1u);
  const std::string text = format_stats(a);
  EXPECT_NE(text.find("migrations_in=7"), std::string::npos);
  EXPECT_NE(text.find("fir_sent=1"), std::string::npos);
  // Zero counters are skipped by default.
  EXPECT_EQ(text.find("broadcasts_sent"), std::string::npos);
  a.reset();
  EXPECT_EQ(a.get(Stat::kMigrationsIn), 0u);
}

TEST(Stats, NameTableCoversAllCounters) {
  EXPECT_EQ(kStatNames.size(), static_cast<std::size_t>(Stat::kCount));
  for (const auto name : kStatNames) EXPECT_FALSE(name.empty());
}

// --- Cost model presets -----------------------------------------------------------------

TEST(CostModel, ZeroIsEntirelyFree) {
  const am::CostModel z = am::CostModel::zero();
  EXPECT_EQ(z.wire_latency_ns, 0u);
  EXPECT_EQ(z.actor_alloc_ns, 0u);
  EXPECT_EQ(z.dispatch_ns, 0u);
  EXPECT_EQ(z.flop_ns, 0.0);
}

TEST(CostModel, NowIsSlowerThanCm5OnTheWire) {
  const am::CostModel a = am::CostModel::cm5();
  const am::CostModel b = am::CostModel::now();
  EXPECT_GT(b.wire_latency_ns, a.wire_latency_ns);
  EXPECT_GT(b.payload_byte_ns, a.payload_byte_ns);
  // Same processors: kernel primitive costs unchanged.
  EXPECT_EQ(b.dispatch_ns, a.dispatch_ns);
  EXPECT_EQ(b.flop_ns, a.flop_ns);
}

// --- SimMachine housekeeping ----------------------------------------------------------

TEST(SimMachineHousekeeping, EventLimitPanics) {
  struct Bouncer : am::NodeClient {
    am::Machine* m = nullptr;
    NodeId self = 0;
    void handle(am::Packet p) override {
      am::Packet next;
      next.src = self;
      next.dst = p.src;
      next.handler = 1;
      m->send(next);  // ping-pong forever
    }
    bool step() override { return false; }
    bool has_work() const override { return false; }
  };
  am::SimMachine m(2, am::CostModel::cm5());
  Bouncer b0, b1;
  b0.m = &m;
  b0.self = 0;
  b1.m = &m;
  b1.self = 1;
  m.attach(0, &b0);
  m.attach(1, &b1);
  m.set_event_limit(500);
  am::Packet p;
  p.src = 0;
  p.dst = 1;
  p.handler = 1;
  m.send(p);
  EXPECT_DEATH(m.run(), "event limit");
}

// --- FrontEnd --------------------------------------------------------------------------

TEST(FrontEndUnit, OrdersByTimeStably) {
  FrontEnd fe;
  fe.append(300, 1, "c");
  fe.append(100, 0, "a");
  fe.append(100, 2, "b");  // same time as "a": insertion order preserved
  const auto lines = fe.take_ordered();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].text, "a");
  EXPECT_EQ(lines[1].text, "b");
  EXPECT_EQ(lines[2].text, "c");
  EXPECT_EQ(fe.size(), 0u);  // consumed
}

}  // namespace
}  // namespace hal

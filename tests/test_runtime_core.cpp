// Integration tests: core actor runtime — creation, sends (local/remote),
// aliases, request/reply via join continuations, become, synchronization
// constraints, and the compiled fast path. Parameterized over both machine
// kinds: the protocols must behave identically under virtual time and under
// real threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "runtime/api.hpp"

namespace hal {
namespace {

// --- Test behaviours --------------------------------------------------------------

class Counter : public ActorBase {
 public:
  void on_inc(Context&, std::int64_t by) { value_ += by; }
  void on_get(Context& ctx) { ctx.reply(value_); }
  HAL_BEHAVIOR(Counter, &Counter::on_inc, &Counter::on_get)

  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

class Sink : public ActorBase {
 public:
  void on_value(Context&, std::int64_t v) { values.push_back(v); }
  HAL_BEHAVIOR(Sink, &Sink::on_value)
  std::vector<std::int64_t> values;
};

/// Ping-pong pair: bounces a counter back and forth `hops` times, then
/// reports the total to a sink.
class Ponger;
class Pinger : public ActorBase {
 public:
  void on_start(Context& ctx, MailAddress peer, MailAddress sink,
                std::int64_t hops);
  void on_pong(Context& ctx, std::int64_t remaining);
  HAL_BEHAVIOR(Pinger, &Pinger::on_start, &Pinger::on_pong)

 private:
  MailAddress peer_;
  MailAddress sink_;
  std::int64_t count_ = 0;
};

class Ponger : public ActorBase {
 public:
  void on_ping(Context& ctx, MailAddress from, std::int64_t remaining);
  HAL_BEHAVIOR(Ponger, &Ponger::on_ping)
};

void Pinger::on_start(Context& ctx, MailAddress peer, MailAddress sink,
                      std::int64_t hops) {
  peer_ = peer;
  sink_ = sink;
  ctx.send<&Ponger::on_ping>(peer_, ctx.self(), hops);
}

void Pinger::on_pong(Context& ctx, std::int64_t remaining) {
  ++count_;
  if (remaining > 0) {
    ctx.send<&Ponger::on_ping>(peer_, ctx.self(), remaining);
  } else {
    ctx.send<&Sink::on_value>(sink_, count_);
  }
}

void Ponger::on_ping(Context& ctx, MailAddress from, std::int64_t remaining) {
  ctx.send<&Pinger::on_pong>(from, remaining - 1);
}

/// A bounded cell demonstrating synchronization constraints (§6.1): on_take
/// is disabled while empty, on_put is disabled while full.
class Cell : public ActorBase {
 public:
  void on_put(Context&, std::int64_t v) {
    HAL_ASSERT(!full_);
    value_ = v;
    full_ = true;
  }
  void on_take(Context& ctx) {
    HAL_ASSERT(full_);
    full_ = false;
    ctx.reply(value_);
  }
  HAL_BEHAVIOR(Cell, &Cell::on_put, &Cell::on_take)

  bool method_enabled(Selector s) const override {
    if (s == sel<&Cell::on_put>()) return !full_;
    if (s == sel<&Cell::on_take>()) return full_;
    return true;
  }

 private:
  std::int64_t value_ = 0;
  bool full_ = false;
};

/// Behaviour replacement: an egg becomes a chicken.
class Chicken : public ActorBase {
 public:
  void on_query(Context& ctx) { ctx.reply(std::int64_t{2}); }
  HAL_BEHAVIOR(Chicken, &Chicken::on_query)
};

class Egg : public ActorBase {
 public:
  void on_query(Context& ctx) { ctx.reply(std::int64_t{1}); }
  void on_hatch(Context& ctx) { ctx.become<Chicken>(); }
  HAL_BEHAVIOR(Egg, &Egg::on_query, &Egg::on_hatch)
};

/// Collects one int64 reply for test assertions.
class Probe : public ActorBase {
 public:
  void on_ask_counter(Context& ctx, MailAddress target) {
    ctx.request<&Counter::on_get>(
        target, [](Context& inner_ctx, const JoinView& v) {
          // Relay the observed value to ourselves via a plain field write —
          // the body runs on the probe's node with the probe as creator.
          (void)inner_ctx;
          last_seen = v.get<std::int64_t>(0);
        });
  }
  HAL_BEHAVIOR(Probe, &Probe::on_ask_counter)
  static std::int64_t last_seen;
};
std::int64_t Probe::last_seen = -1;

/// Dispatch-order probes. They run on one SimMachine node, so the static
/// counters are written by one thread.
class Relay : public ActorBase {
 public:
  void on_hop(Context& ctx, MailAddress peer, std::int64_t remaining) {
    ++hops;
    if (remaining > 0) {
      ctx.send<&Relay::on_hop>(peer, ctx.self(), remaining - 1);
    }
  }
  HAL_BEHAVIOR(Relay, &Relay::on_hop)
  static std::int64_t hops;
};
std::int64_t Relay::hops = 0;

class RelayStarter : public ActorBase {
 public:
  void on_start(Context& ctx, std::int64_t hops) {
    const MailAddress a = ctx.create<Relay>();
    const MailAddress b = ctx.create<Relay>();
    ctx.send<&Relay::on_hop>(a, b, hops);
  }
  HAL_BEHAVIOR(RelayStarter, &RelayStarter::on_start)
};

class Bystander : public ActorBase {
 public:
  void on_poke(Context&) { hops_before_poke = Relay::hops; }
  HAL_BEHAVIOR(Bystander, &Bystander::on_poke)
  static std::int64_t hops_before_poke;
};
std::int64_t Bystander::hops_before_poke = -1;

/// fib with an actor per call that records the most live actors any call
/// saw on its node.
class PeakFib : public ActorBase {
 public:
  void on_compute(Context& ctx, std::uint64_t n, ContRef reply) {
    peak_live = std::max(peak_live, ctx.kernel().live_actors());
    if (n < 2) {
      ctx.reply_to(reply, n);
      ctx.terminate();
      return;
    }
    const ContRef join =
        ctx.make_join(2, [reply](Context& jc, const JoinView& v) {
          jc.kernel().reply_to(reply, v.word(0) + v.word(1));
        });
    const MailAddress left = ctx.create<PeakFib>();
    const MailAddress right = ctx.create<PeakFib>();
    ctx.send<&PeakFib::on_compute>(left, n - 1, join.at(0));
    ctx.send<&PeakFib::on_compute>(right, n - 2, join.at(1));
    ctx.terminate();
  }
  HAL_BEHAVIOR(PeakFib, &PeakFib::on_compute)
  static std::size_t peak_live;
};
std::size_t PeakFib::peak_live = 0;

class PeakFibRoot : public ActorBase {
 public:
  void on_start(Context& ctx, std::uint64_t n) {
    const ContRef join =
        ctx.make_join(1, [self = ctx.self()](Context& jc, const JoinView& v) {
          jc.send<&PeakFibRoot::on_done>(self, v.word(0));
        });
    ctx.send<&PeakFib::on_compute>(ctx.create<PeakFib>(), n, join.at(0));
  }
  void on_done(Context&, std::uint64_t value) { result = value; }
  HAL_BEHAVIOR(PeakFibRoot, &PeakFibRoot::on_start, &PeakFibRoot::on_done)
  std::uint64_t result = 0;
};

// --- Fixture ------------------------------------------------------------------------

class RuntimeCore : public ::testing::TestWithParam<MachineKind> {
 protected:
  RuntimeConfig cfg(NodeId nodes) {
    RuntimeConfig c;
    c.nodes = nodes;
    c.machine = GetParam();
    return c;
  }
};

TEST_P(RuntimeCore, LocalSendAndReply) {
  Runtime rt(cfg(1));
  rt.load<Counter>();
  const MailAddress c = rt.spawn<Counter>(0);
  rt.inject<&Counter::on_inc>(c, std::int64_t{5});
  rt.inject<&Counter::on_inc>(c, std::int64_t{7});
  rt.run();
  Counter* obj = rt.find_behavior<Counter>(c);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->value(), 12);
  EXPECT_EQ(rt.dead_letters(), 0u);
}

TEST_P(RuntimeCore, RemoteSendCrossesNodes) {
  Runtime rt(cfg(4));
  rt.load<Counter>();
  const MailAddress c = rt.spawn<Counter>(3);
  rt.inject<&Counter::on_inc>(c, std::int64_t{1});
  rt.run();
  Counter* obj = rt.find_behavior<Counter>(c);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->value(), 1);
  // inject ran on node 3 (the home), so this delivery was local; but the
  // bootstrap injection charged the local path. Now check stats exist.
  EXPECT_EQ(rt.report().total.get(Stat::kActorsCreatedLocal), 1u);
}

TEST_P(RuntimeCore, PingPongAcrossNodes) {
  Runtime rt(cfg(2));
  rt.load<Pinger>();
  rt.load<Ponger>();
  rt.load<Sink>();
  const MailAddress sink = rt.spawn<Sink>(0);
  const MailAddress ping = rt.spawn<Pinger>(0);
  const MailAddress pong = rt.spawn<Ponger>(1);
  rt.inject<&Pinger::on_start>(ping, pong, sink, std::int64_t{20});
  rt.run();
  Sink* s = rt.find_behavior<Sink>(sink);
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->values.size(), 1u);
  // ping(20) yields pongs carrying 19, 18, …, 0: exactly 20 round trips.
  EXPECT_EQ(s->values[0], 20);
  const StatBlock stats = rt.report().total;
  EXPECT_GT(stats.get(Stat::kMessagesSentRemote), 0u);
  EXPECT_EQ(rt.dead_letters(), 0u);
}

/// Remote creation through the alias scheme (§5): a spawner actor creates a
/// counter on another node and immediately sends to the alias.
class Spawner : public ActorBase {
 public:
  void on_go(Context& ctx, NodeId target) {
    created = ctx.create_on<Counter>(target);
    // Use the alias immediately: the creation round trip is still in
    // flight, which is exactly the latency the alias hides.
    ctx.send<&Counter::on_inc>(created, std::int64_t{10});
    ctx.send<&Counter::on_inc>(created, std::int64_t{32});
  }
  HAL_BEHAVIOR(Spawner, &Spawner::on_go)
  static MailAddress created;
};
MailAddress Spawner::created;

TEST_P(RuntimeCore, RemoteCreationWithAlias) {
  Runtime rt(cfg(3));
  rt.load<Counter>();
  rt.load<Spawner>();
  const MailAddress sp = rt.spawn<Spawner>(0);
  rt.inject<&Spawner::on_go>(sp, NodeId{2});
  rt.run();
  ASSERT_TRUE(Spawner::created.valid());
  EXPECT_TRUE(Spawner::created.alias);
  EXPECT_EQ(Spawner::created.home, 0u);
  EXPECT_EQ(Spawner::created.created_on, 2u);
  Counter* obj = rt.find_behavior<Counter>(Spawner::created);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->value(), 42);
  const StatBlock stats = rt.report().total;
  EXPECT_EQ(stats.get(Stat::kAliasesAllocated), 1u);
  EXPECT_EQ(stats.get(Stat::kActorsCreatedRemote), 1u);
}

TEST_P(RuntimeCore, RequestReplyViaJoinContinuation) {
  Probe::last_seen = -1;
  Runtime rt(cfg(2));
  rt.load<Counter>();
  rt.load<Probe>();
  const MailAddress c = rt.spawn<Counter>(1);
  const MailAddress p = rt.spawn<Probe>(0);
  rt.inject<&Counter::on_inc>(c, std::int64_t{123});
  rt.inject<&Probe::on_ask_counter>(p, c);
  rt.run();
  EXPECT_EQ(Probe::last_seen, 123);
  const StatBlock stats = rt.report().total;
  EXPECT_GE(stats.get(Stat::kJoinContinuationsCreated), 1u);
  EXPECT_GE(stats.get(Stat::kRepliesJoined), 1u);
}

/// Drives the Cell: issues a take *before* the put, so the constraint must
/// park the take in the pending queue until the put enables it.
class Taker : public ActorBase {
 public:
  void on_go(Context& ctx, MailAddress cell) {
    ctx.request<&Cell::on_take>(cell, [](Context&, const JoinView& v) {
      taken = v.get<std::int64_t>(0);
    });
    ctx.send<&Cell::on_put>(cell, std::int64_t{55});
  }
  HAL_BEHAVIOR(Taker, &Taker::on_go)
  static std::int64_t taken;
};
std::int64_t Taker::taken = -1;

TEST_P(RuntimeCore, SynchronizationConstraintDefersTake) {
  Taker::taken = -1;
  Runtime rt(cfg(2));
  rt.load<Cell>();
  rt.load<Taker>();
  const MailAddress cell = rt.spawn<Cell>(1);
  const MailAddress taker = rt.spawn<Taker>(0);
  rt.inject<&Taker::on_go>(taker, cell);
  rt.run();
  EXPECT_EQ(Taker::taken, 55);
  const StatBlock stats = rt.report().total;
  EXPECT_GE(stats.get(Stat::kPendingEnqueued), 1u);
  EXPECT_GE(stats.get(Stat::kPendingReplayed), 1u);
}

TEST_P(RuntimeCore, BecomeReplacesBehavior) {
  Runtime rt(cfg(1));
  rt.load<Egg>();
  const MailAddress e = rt.spawn<Egg>(0);
  rt.inject<&Egg::on_hatch>(e);
  rt.run();
  EXPECT_EQ(rt.find_behavior<Egg>(e), nullptr);
  EXPECT_NE(rt.find_behavior<Chicken>(e), nullptr);
}

TEST_P(RuntimeCore, ManyActorsManyMessages) {
  Runtime rt(cfg(4));
  rt.load<Counter>();
  std::vector<MailAddress> counters;
  for (NodeId n = 0; n < 4; ++n) {
    for (int i = 0; i < 25; ++i) counters.push_back(rt.spawn<Counter>(n));
  }
  for (const auto& c : counters) {
    for (int i = 1; i <= 4; ++i) {
      rt.inject<&Counter::on_inc>(c, std::int64_t{i});
    }
  }
  rt.run();
  for (const auto& c : counters) {
    Counter* obj = rt.find_behavior<Counter>(c);
    ASSERT_NE(obj, nullptr);
    EXPECT_EQ(obj->value(), 10);
  }
  EXPECT_EQ(rt.dead_letters(), 0u);
}

// --- Dispatch order (SimMachine) ---------------------------------------------------

RuntimeConfig one_sim_node() {
  RuntimeConfig c;
  c.nodes = 1;
  c.machine = MachineKind::kSim;
  return c;
}

TEST(DispatchOrder, LocalSendChainCannotStarveAnEarlierMessage) {
  // Two actors a running method created bounce 100k local sends, each
  // readying the other newest-first. The bystander's message was queued
  // before the chain began; the fairness bound must serve it within
  // kNewestFirstBound + 1 dispatches, not after the whole chain.
  Relay::hops = 0;
  Bystander::hops_before_poke = -1;
  Runtime rt(one_sim_node());
  rt.load<Relay>();
  rt.load<RelayStarter>();
  rt.load<Bystander>();
  const MailAddress starter = rt.spawn<RelayStarter>(0);
  const MailAddress bystander = rt.spawn<Bystander>(0);
  rt.inject<&RelayStarter::on_start>(starter, std::int64_t{100000});
  rt.inject<&Bystander::on_poke>(bystander);
  rt.run();
  EXPECT_EQ(Relay::hops, 100001);
  ASSERT_GE(Bystander::hops_before_poke, 0);
  EXPECT_LE(Bystander::hops_before_poke,
            std::int64_t{Dispatcher::kNewestFirstBound} + 1);
  EXPECT_EQ(rt.dead_letters(), 0u);
}

TEST(DispatchOrder, ForkTreeExpandsDepthFirst) {
  // A breadth-first order holds the tree's whole frontier as live actors
  // (5490 for fib(20)); depth-first holds about one pending sibling per
  // level of the current path, plus the paths the bound's oldest-end takes
  // opened.
  constexpr std::uint64_t kN = 20;
  PeakFib::peak_live = 0;
  Runtime rt(one_sim_node());
  rt.load<PeakFib>();
  rt.load<PeakFibRoot>();
  const MailAddress root = rt.spawn<PeakFibRoot>(0);
  rt.inject<&PeakFibRoot::on_start>(root, kN);
  rt.run();
  const PeakFibRoot* r = rt.find_behavior<PeakFibRoot>(root);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->result, 6765u);
  EXPECT_LE(PeakFib::peak_live, 2 * kN);
  EXPECT_EQ(rt.dead_letters(), 0u);
}

// --- Actor and join turnover ---------------------------------------------------------

class Mortal : public ActorBase {
 public:
  void on_ping(Context&) {}
  void on_die(Context& ctx) { ctx.terminate(); }
  HAL_BEHAVIOR(Mortal, &Mortal::on_ping, &Mortal::on_die)
};

TEST(ActorLifecycle, RecycledSlotKeepsItsMailboxRing) {
  Runtime rt(one_sim_node());
  rt.load<Mortal>();
  Kernel& k = rt.kernel(0);
  const MailAddress first = rt.spawn<Mortal>(0);
  for (int i = 0; i < 4; ++i) rt.inject<&Mortal::on_ping>(first);
  rt.inject<&Mortal::on_die>(first);
  SlotId first_slot;
  {
    check::ScopedExecutionNode scope(0);
    first_slot = k.locality_check(first);
  }
  ASSERT_TRUE(first_slot.valid());
  rt.run();
  EXPECT_EQ(k.actor(first_slot), nullptr);
  EXPECT_EQ(rt.dead_letters(), 0u);

  check::ScopedExecutionNode scope(0);
  const MailAddress second = k.create_local(k.registry().id_of<Mortal>());
  const SlotId second_slot = k.locality_check(second);
  EXPECT_EQ(second_slot.index, first_slot.index);
  EXPECT_NE(second_slot.gen, first_slot.gen);
  const ActorRecord* rec = k.actor(second_slot);
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->mailbox.empty());
  EXPECT_GE(rec->mailbox.capacity(), RingDeque<Message>::kInitialCapacity);
  EXPECT_TRUE(rec->pending.empty());
  EXPECT_FALSE(rec->alias.valid());
  EXPECT_FALSE(rec->alias_desc.valid());
  EXPECT_FALSE(rec->scheduled);
  EXPECT_EQ(rec->migrate_target, kInvalidNode);
  EXPECT_FALSE(rec->relocatable);
  EXPECT_EQ(rec->epoch, 0u);
  EXPECT_FALSE(rec->dying);

  // Field by field: a recycled record is a default one, plus the rings
  // still at their initial capacity; a ring that grew is freed.
  ActorRecord used;
  used.impl = std::make_unique<Mortal>();
  used.behavior = 3;
  used.address = first;
  used.alias = second;
  used.self_desc = SlotId{1, 1};
  used.alias_desc = SlotId{2, 1};
  for (int i = 0; i < 9; ++i) {
    Message m;
    m.payload.resize(32);
    used.pending.push_back(std::move(m));
  }
  used.mailbox.push_back(Message{});
  used.scheduled = true;
  used.migrate_target = 0;
  used.relocatable = true;
  used.epoch = 4;
  used.dying = true;
  ASSERT_EQ(used.mailbox.capacity(), RingDeque<Message>::kInitialCapacity);
  ASSERT_GT(used.pending.capacity(), RingDeque<Message>::kInitialCapacity);
  used.recycle();
  const ActorRecord fresh;
  EXPECT_EQ(used.impl.get(), nullptr);
  EXPECT_EQ(used.behavior, fresh.behavior);
  EXPECT_EQ(used.address.pack_word0(), fresh.address.pack_word0());
  EXPECT_EQ(used.address.pack_word1(), fresh.address.pack_word1());
  EXPECT_EQ(used.alias.pack_word0(), fresh.alias.pack_word0());
  EXPECT_EQ(used.alias.pack_word1(), fresh.alias.pack_word1());
  EXPECT_EQ(used.self_desc, fresh.self_desc);
  EXPECT_EQ(used.alias_desc, fresh.alias_desc);
  EXPECT_TRUE(used.mailbox.empty());
  EXPECT_EQ(used.mailbox.capacity(), RingDeque<Message>::kInitialCapacity);
  EXPECT_TRUE(used.pending.empty());
  EXPECT_EQ(used.pending.capacity(), fresh.pending.capacity());
  EXPECT_EQ(used.scheduled, fresh.scheduled);
  EXPECT_EQ(used.migrate_target, fresh.migrate_target);
  EXPECT_EQ(used.relocatable, fresh.relocatable);
  EXPECT_EQ(used.epoch, fresh.epoch);
  EXPECT_EQ(used.dying, fresh.dying);
}

/// Fires joins whose bodies make enough joins to reallocate the kernel's
/// join pool, then read their own words and blobs.
class JoinGrower : public ActorBase {
 public:
  static constexpr int kHeld = 100;

  void on_words(Context& ctx) {
    const ContRef outer =
        ctx.make_join(3, [](Context& c, const JoinView& v) {
          std::array<ContRef, kHeld> held;
          for (ContRef& h : held) {
            h = c.make_join(1, [](Context&, const JoinView& w) {
              inner_sum += w.get<std::int64_t>(0);
            });
          }
          for (std::size_t i = 0; i < v.size(); ++i) {
            seen_words.push_back(v.get<std::int64_t>(i));
          }
          for (const ContRef& h : held) c.prefill(h, std::int64_t{1});
        });
    ctx.prefill(outer.at(0), std::int64_t{11});
    ctx.prefill(outer.at(2), std::int64_t{33});
    ctx.prefill(outer.at(1), std::int64_t{22});
  }

  void on_blob(Context& ctx) {
    const ContRef j = ctx.make_join(2, [](Context& c, const JoinView& v) {
      std::array<ContRef, kHeld> held;
      for (ContRef& h : held) {
        h = c.make_join(1, [](Context&, const JoinView&) {});
      }
      seen_words.push_back(v.get<std::int64_t>(0));
      seen_words.push_back(v.get<std::int64_t>(1));
      const Bytes& b = v.blob(1);
      seen_blob.assign(reinterpret_cast<const char*>(b.data()), b.size());
      returns_in_body = c.kernel().pool().returns();
      for (const ContRef& h : held) c.prefill(h, std::int64_t{0});
    });
    ctx.prefill(j, std::int64_t{5});
    Bytes blob = ctx.kernel().pool().acquire(100);
    std::fill(blob.begin(), blob.end(), std::byte{'x'});
    ctx.reply_blob_to(j.at(1), 6, std::move(blob));
    returns_after = ctx.kernel().pool().returns();
  }
  HAL_BEHAVIOR(JoinGrower, &JoinGrower::on_words, &JoinGrower::on_blob)

  static inline std::int64_t inner_sum = 0;
  static inline std::vector<std::int64_t> seen_words;
  static inline std::string seen_blob;
  static inline std::uint64_t returns_in_body = 0;
  static inline std::uint64_t returns_after = 0;
};

TEST(JoinFire, BodyThatGrowsThePoolSeesItsWords) {
  JoinGrower::inner_sum = 0;
  JoinGrower::seen_words.clear();
  JoinGrower::seen_blob.clear();
  Runtime rt(one_sim_node());
  rt.load<JoinGrower>();
  const MailAddress g = rt.spawn<JoinGrower>(0);
  rt.inject<&JoinGrower::on_words>(g);
  rt.inject<&JoinGrower::on_blob>(g);
  rt.run();
  EXPECT_EQ(JoinGrower::inner_sum, JoinGrower::kHeld);
  EXPECT_EQ(JoinGrower::seen_words,
            (std::vector<std::int64_t>{11, 22, 33, 5, 6}));
  // The blob join delivered its payload, then retired it to the pool.
  EXPECT_EQ(JoinGrower::seen_blob, std::string(100, 'x'));
  EXPECT_EQ(JoinGrower::returns_after, JoinGrower::returns_in_body + 1);
  EXPECT_EQ(rt.dead_letters(), 0u);
  EXPECT_EQ(rt.shutdown_drain().messages, 0u);
  const StatBlock stats = rt.report().total;
  EXPECT_EQ(stats.get(Stat::kJoinContinuationsCreated),
            2u + 2u * JoinGrower::kHeld);
}

INSTANTIATE_TEST_SUITE_P(Machines, RuntimeCore,
                         ::testing::Values(MachineKind::kSim,
                                           MachineKind::kMn),
                         // `Thread` labels the wall-clock column: host worker
                         // threads, MnMachine on its default pool.
                         [](const auto& param_info) {
                           return param_info.param == MachineKind::kSim
                                      ? "Sim"
                                      : "Thread";
                         });

}  // namespace
}  // namespace hal

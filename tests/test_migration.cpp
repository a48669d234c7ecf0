// Integration tests: migration, the FIR protocol (§4.3), forward-chain
// collapse, descriptor caching across moves, and exactly-once delivery under
// relocation. These exercise the Fig. 3 delivery algorithm end to end.
#include <gtest/gtest.h>

#include "runtime/api.hpp"

namespace hal {
namespace {

/// A migratable actor that accumulates values while hopping across nodes.
class Wanderer : public ActorBase {
 public:
  void on_add(Context&, std::int64_t v) { sum_ += v; }
  void on_probe(Context& ctx) { ctx.reply(sum_); }
  void on_hop(Context& ctx, NodeId target) {
    ++hops_;
    ctx.migrate_to(target);
  }
  /// Constraint-guarded method: disabled until on_unlock.
  void on_guarded_add(Context&, std::int64_t v) { sum_ += 1000 * v; }
  void on_unlock(Context&) { unlocked_ = true; }

  HAL_BEHAVIOR(Wanderer, &Wanderer::on_add, &Wanderer::on_probe,
               &Wanderer::on_hop, &Wanderer::on_guarded_add,
               &Wanderer::on_unlock)

  bool method_enabled(Selector s) const override {
    if (s == sel<&Wanderer::on_guarded_add>()) return unlocked_;
    return true;
  }

  bool migratable() const override { return true; }
  void pack_state(ByteWriter& w) const override {
    w.write(sum_);
    w.write(hops_);
    w.write(unlocked_);
  }
  void unpack_state(ByteReader& r) override {
    sum_ = r.read<std::int64_t>();
    hops_ = r.read<std::int64_t>();
    unlocked_ = r.read<bool>();
  }

  std::int64_t sum() const { return sum_; }
  std::int64_t hops() const { return hops_; }

 private:
  std::int64_t sum_ = 0;
  std::int64_t hops_ = 0;
  bool unlocked_ = false;
};

/// Third-party sender: waits (in virtual time) then fires adds at a target.
class LateClient : public ActorBase {
 public:
  void on_fire(Context& ctx, MailAddress target, std::int64_t count,
               std::int64_t delay_us) {
    ctx.charge_ns(static_cast<SimTime>(delay_us) * 1000);
    for (std::int64_t i = 0; i < count; ++i) {
      ctx.send<&Wanderer::on_add>(target, std::int64_t{1});
    }
  }
  HAL_BEHAVIOR(LateClient, &LateClient::on_fire)
};

class MigrationTest : public ::testing::TestWithParam<MachineKind> {
 protected:
  RuntimeConfig cfg(NodeId nodes) {
    RuntimeConfig c;
    c.nodes = nodes;
    c.machine = GetParam();
    return c;
  }
  bool is_sim() const { return GetParam() == MachineKind::kSim; }
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

TEST_P(MigrationTest, StateAndMailboxTravel) {
  Runtime rt(cfg(4));
  rt.load<Wanderer>();
  const MailAddress w = rt.spawn<Wanderer>(0);
  // All five messages queue at node 0; the hops carry the rest of the
  // mailbox with the actor.
  rt.inject<&Wanderer::on_add>(w, std::int64_t{5});
  rt.inject<&Wanderer::on_hop>(w, NodeId{1});
  rt.inject<&Wanderer::on_add>(w, std::int64_t{7});
  rt.inject<&Wanderer::on_hop>(w, NodeId{2});
  rt.inject<&Wanderer::on_add>(w, std::int64_t{9});
  rt.run();
  Wanderer* obj = rt.find_behavior<Wanderer>(w);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->sum(), 21);
  EXPECT_EQ(obj->hops(), 2);
  EXPECT_EQ(host_of(rt, w), 2u);
  EXPECT_EQ(rt.dead_letters(), 0u);
  const StatBlock stats = rt.report().total;
  EXPECT_EQ(stats.get(Stat::kMigrationsOut), 2u);
  EXPECT_EQ(stats.get(Stat::kMigrationsIn), 2u);
}

TEST_P(MigrationTest, ThirdPartySendTriggersFirChase) {
  Runtime rt(cfg(4));
  rt.load<Wanderer>();
  rt.load<LateClient>();
  const MailAddress w = rt.spawn<Wanderer>(0);
  const MailAddress c = rt.spawn<LateClient>(3);
  rt.inject<&Wanderer::on_hop>(w, NodeId{1});
  rt.inject<&Wanderer::on_hop>(w, NodeId{2});
  // The client fires well after both hops completed (virtual 10 ms); its
  // sends route to the birthplace, whose descriptor now forwards.
  rt.inject<&LateClient::on_fire>(c, w, std::int64_t{10},
                                  std::int64_t{10000});
  rt.run();
  Wanderer* obj = rt.find_behavior<Wanderer>(w);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->sum(), 10);  // exactly-once despite the chase
  EXPECT_EQ(rt.dead_letters(), 0u);
  if (is_sim()) {
    const StatBlock stats = rt.report().total;
    EXPECT_GE(stats.get(Stat::kMessagesForwarded), 1u);
    EXPECT_GE(stats.get(Stat::kFirSent), 1u);
    EXPECT_GE(stats.get(Stat::kFirResolved), 1u);
    EXPECT_GE(stats.get(Stat::kMessagesParked), 1u);
  }
}

/// Sends one probe request to the target; once the reply arrives (causally
/// after any FIR chase resolved and this node was taught the new location),
/// fires a second burst that must route directly.
class TwoPhaseClient : public ActorBase {
 public:
  void on_fire(Context& ctx, MailAddress target, std::int64_t delay_us,
               std::int64_t burst) {
    ctx.charge_ns(static_cast<SimTime>(delay_us) * 1000);
    target_ = target;
    burst_ = burst;
    ctx.request<&Wanderer::on_probe>(
        target, [this](Context& inner, const JoinView&) {
          for (std::int64_t i = 0; i < burst_; ++i) {
            inner.send<&Wanderer::on_add>(target_, std::int64_t{1});
          }
        });
  }
  HAL_BEHAVIOR(TwoPhaseClient, &TwoPhaseClient::on_fire)

 private:
  MailAddress target_;
  std::int64_t burst_ = 0;
};

TEST_P(MigrationTest, SecondSendUsesUpdatedTables) {
  if (!is_sim()) GTEST_SKIP() << "needs deterministic virtual-time ordering";
  Runtime rt(cfg(4));
  rt.load<Wanderer>();
  rt.load<TwoPhaseClient>();
  const MailAddress w = rt.spawn<Wanderer>(0);
  const MailAddress c = rt.spawn<TwoPhaseClient>(3);
  rt.inject<&Wanderer::on_hop>(w, NodeId{2});
  // The probe (sent long after the hop) is forwarded through node 0 and
  // triggers the FIR chase; the resolution teaches node 3 the location, so
  // the burst fired from the probe's continuation routes directly.
  rt.inject<&TwoPhaseClient::on_fire>(c, w, std::int64_t{10000},
                                      std::int64_t{5});
  rt.run();
  Wanderer* obj = rt.find_behavior<Wanderer>(w);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->sum(), 5);
  const StatBlock stats = rt.report().total;
  // Only the probe should have been forwarded; the burst went direct.
  EXPECT_EQ(stats.get(Stat::kMessagesForwarded), 1u);
  // Node 3 learned the location: its descriptor names node 2 directly.
  Kernel& k3 = rt.kernel(3);
  const SlotId ds = k3.names().resolve(w);
  ASSERT_TRUE(ds.valid());
  EXPECT_EQ(k3.names().descriptor(ds).remote_node, 2u);
}

TEST_P(MigrationTest, ReturnHomeMakesBirthplaceLocalAgain) {
  Runtime rt(cfg(3));
  rt.load<Wanderer>();
  const MailAddress w = rt.spawn<Wanderer>(0);
  rt.inject<&Wanderer::on_hop>(w, NodeId{1});
  rt.inject<&Wanderer::on_hop>(w, NodeId{0});
  rt.inject<&Wanderer::on_add>(w, std::int64_t{3});
  rt.run();
  EXPECT_EQ(host_of(rt, w), 0u);
  Wanderer* obj = rt.find_behavior<Wanderer>(w);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->sum(), 3);
  // The embedded home descriptor is local again (forward chain collapsed).
  Kernel& k0 = rt.kernel(0);
  EXPECT_TRUE(k0.names().descriptor(w.desc).local());
}

TEST_P(MigrationTest, PendingConstraintMessagesTravel) {
  Runtime rt(cfg(3));
  rt.load<Wanderer>();
  const MailAddress w = rt.spawn<Wanderer>(0);
  rt.inject<&Wanderer::on_guarded_add>(w, std::int64_t{2});  // parks: locked
  rt.inject<&Wanderer::on_hop>(w, NodeId{2});
  rt.inject<&Wanderer::on_unlock>(w);  // travels in the mailbox
  rt.run();
  Wanderer* obj = rt.find_behavior<Wanderer>(w);
  ASSERT_NE(obj, nullptr);
  // The guarded add executed after unlock, on the new node.
  EXPECT_EQ(obj->sum(), 2000);
  EXPECT_EQ(host_of(rt, w), 2u);
  const StatBlock stats = rt.report().total;
  EXPECT_GE(stats.get(Stat::kPendingEnqueued), 1u);
}

/// Creates a Wanderer remotely (yielding an alias address), uses the alias
/// immediately, and sends it on a further hop.
class AliasSpawner : public ActorBase {
 public:
  void on_go(Context& ctx) {
    addr = ctx.create_on<Wanderer>(2);
    ctx.send<&Wanderer::on_add>(addr, std::int64_t{1});
    ctx.send<&Wanderer::on_hop>(addr, NodeId{3});
  }
  HAL_BEHAVIOR(AliasSpawner, &AliasSpawner::on_go)
  inline static MailAddress addr{};
};

TEST_P(MigrationTest, AliasStillWorksAfterMigration) {
  AliasSpawner::addr = {};
  Runtime rt(cfg(4));
  rt.load<Wanderer>();
  rt.load<LateClient>();
  rt.load<AliasSpawner>();
  const MailAddress sp = rt.spawn<AliasSpawner>(0);
  rt.inject<&AliasSpawner::on_go>(sp);
  rt.run();
  const MailAddress alias = AliasSpawner::addr;
  ASSERT_TRUE(alias.alias);
  Wanderer* obj = rt.find_behavior<Wanderer>(alias);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->sum(), 1);
  EXPECT_EQ(obj->hops(), 1);
  EXPECT_EQ(host_of(rt, alias), 3u);
  EXPECT_EQ(rt.dead_letters(), 0u);
}

TEST_P(MigrationTest, ManyHopsStressForwardChains) {
  Runtime rt(cfg(8));
  rt.load<Wanderer>();
  rt.load<LateClient>();
  const MailAddress w = rt.spawn<Wanderer>(0);
  // Tour all nodes twice.
  for (int lap = 0; lap < 2; ++lap) {
    for (NodeId n = 1; n < 8; ++n) {
      rt.inject<&Wanderer::on_hop>(w, n);
      rt.inject<&Wanderer::on_add>(w, std::int64_t{1});
    }
    rt.inject<&Wanderer::on_hop>(w, NodeId{0});
  }
  // Late third-party traffic from several nodes.
  for (NodeId n = 1; n < 4; ++n) {
    const MailAddress c = rt.spawn<LateClient>(n);
    rt.inject<&LateClient::on_fire>(c, w, std::int64_t{5},
                                    std::int64_t{30000 * n});
  }
  rt.run();
  Wanderer* obj = rt.find_behavior<Wanderer>(w);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->sum(), 14 + 15);
  EXPECT_EQ(obj->hops(), 16);
  EXPECT_EQ(host_of(rt, w), 0u);
  EXPECT_EQ(rt.dead_letters(), 0u);
}

// --- Dead actors that other nodes may still be led to ---------------------------

/// Migrates or dies on request, replying first either way.
class Nomad : public ActorBase {
 public:
  void on_hop(Context& ctx, NodeId target) {
    ctx.reply(std::int64_t{1});
    ctx.migrate_to(target);
  }
  void on_die(Context& ctx) {
    ctx.reply(std::int64_t{0});
    ctx.terminate();
  }
  HAL_BEHAVIOR(Nomad, &Nomad::on_hop, &Nomad::on_die)
  bool migratable() const override { return true; }
  void pack_state(ByteWriter&) const override {}
  void unpack_state(ByteReader&) override {}
};

/// A third party that has never sent to `target` before: its send routes
/// to the address's fallback node.
class Poker : public ActorBase {
 public:
  void on_poke_at(Context& ctx, MailAddress target) {
    ctx.send<&Nomad::on_die>(target);
  }
  HAL_BEHAVIOR(Poker, &Poker::on_poke_at)
};

/// Moves the nomad to `first` (and on to `second`, if valid), kills it
/// there, then has the poker send to it. Each step waits for the last
/// one's reply, so the poke is sent after the nomad died.
class Tour : public ActorBase {
 public:
  void on_go(Context& ctx, MailAddress nomad, MailAddress poker, NodeId first,
             NodeId second) {
    nomad_ = nomad;
    poker_ = poker;
    second_ = second;
    ctx.request<&Nomad::on_hop>(
        nomad_, [this](Context& c, const JoinView&) { hop_again(c); }, first);
  }
  HAL_BEHAVIOR(Tour, &Tour::on_go)

 private:
  void hop_again(Context& ctx) {
    if (second_ == kInvalidNode) {
      kill(ctx);
      return;
    }
    ctx.request<&Nomad::on_hop>(
        nomad_, [this](Context& c, const JoinView&) { kill(c); }, second_);
  }
  void kill(Context& ctx) {
    ctx.request<&Nomad::on_die>(nomad_, [this](Context& c, const JoinView&) {
      c.send<&Poker::on_poke_at>(poker_, nomad_);
    });
  }

  MailAddress nomad_;
  MailAddress poker_;
  NodeId second_ = kInvalidNode;
};

/// Creates a nomad on node 1 through an alias and kills it; then the alias's
/// home and a third party send to the alias.
class AliasThenKill : public ActorBase {
 public:
  void on_go(Context& ctx, MailAddress poker) {
    const MailAddress alias = ctx.create_on<Nomad>(1);
    created = alias;
    ctx.request<&Nomad::on_die>(
        alias, [alias, poker](Context& c, const JoinView&) {
          c.send<&Nomad::on_die>(alias);
          c.send<&Poker::on_poke_at>(poker, alias);
        });
  }
  HAL_BEHAVIOR(AliasThenKill, &AliasThenKill::on_go)
  inline static MailAddress created{};
};

std::uint64_t stale_letters(Runtime& rt) {
  return rt.report().dead_letter_causes[static_cast<std::size_t>(
      DeadLetterCause::kStaleDescriptor)];
}

TEST_P(MigrationTest, MigratedThenDeadKeepsDescriptors) {
  Runtime rt(cfg(4));
  rt.load<Nomad>();
  rt.load<Poker>();
  rt.load<Tour>();
  const MailAddress nomad = rt.spawn<Nomad>(0);
  const MailAddress poker = rt.spawn<Poker>(2);
  rt.inject<&Tour::on_go>(rt.spawn<Tour>(3), nomad, poker, NodeId{1},
                          kInvalidNode);
  rt.run();
  // Node 0 forwards to node 1, where the nomad died: both keep their
  // descriptors, because forward state on other nodes may lead there.
  const LocalityDescriptor* home = rt.kernel(0).names().try_descriptor(
      nomad.desc);
  ASSERT_NE(home, nullptr);
  EXPECT_FALSE(home->local());
  EXPECT_EQ(home->remote_node, 1u);
  const SlotId at_host = rt.kernel(1).names().resolve(nomad);
  ASSERT_TRUE(at_host.valid());
  EXPECT_TRUE(rt.kernel(1).names().descriptor(at_host).local());
  EXPECT_EQ(rt.kernel(1).live_actors(), 0u);
  // The poker's send went to the birthplace, was parked there and chased
  // by an FIR (as was the kill), and dead-lettered at the sink.
  EXPECT_GE(rt.report().total.get(Stat::kFirSent), 2u);
  EXPECT_EQ(rt.dead_letters(), 1u);
  EXPECT_EQ(stale_letters(rt), 1u);
}

TEST_P(MigrationTest, ReturnedHomeThenDeadKeepsDescriptor) {
  Runtime rt(cfg(4));
  rt.load<Nomad>();
  rt.load<Poker>();
  rt.load<Tour>();
  const MailAddress nomad = rt.spawn<Nomad>(0);
  const MailAddress poker = rt.spawn<Poker>(2);
  rt.inject<&Tour::on_go>(rt.spawn<Tour>(3), nomad, poker, NodeId{1},
                          NodeId{0});
  rt.run();
  // The nomad died on its birthplace, but after two migrations: node 1
  // still points there, so the birthplace keeps the descriptor as a sink.
  const LocalityDescriptor* home = rt.kernel(0).names().try_descriptor(
      nomad.desc);
  ASSERT_NE(home, nullptr);
  EXPECT_TRUE(home->local());
  EXPECT_EQ(home->epoch, 2u);
  const SlotId at_node1 = rt.kernel(1).names().resolve(nomad);
  ASSERT_TRUE(at_node1.valid());
  EXPECT_EQ(rt.kernel(1).names().descriptor(at_node1).remote_node, 0u);
  EXPECT_EQ(rt.dead_letters(), 1u);
  EXPECT_EQ(stale_letters(rt), 1u);
}

TEST_P(MigrationTest, AliasedThenDeadKeepsDescriptors) {
  AliasThenKill::created = {};
  Runtime rt(cfg(3));
  rt.load<Nomad>();
  rt.load<Poker>();
  rt.load<AliasThenKill>();
  const MailAddress poker = rt.spawn<Poker>(2);
  rt.inject<&AliasThenKill::on_go>(rt.spawn<AliasThenKill>(0), poker);
  rt.run();
  const MailAddress alias = AliasThenKill::created;
  ASSERT_TRUE(alias.alias);
  // The alias's descriptor on its home and the actor's own descriptor on
  // node 1, which the alias is bound to, both survive the death.
  EXPECT_NE(rt.kernel(0).names().try_descriptor(alias.desc), nullptr);
  const SlotId bound = rt.kernel(1).names().resolve(alias);
  ASSERT_TRUE(bound.valid());
  EXPECT_TRUE(rt.kernel(1).names().descriptor(bound).local());
  EXPECT_EQ(rt.kernel(1).names().live_descriptors(), 1u);
  EXPECT_EQ(rt.kernel(1).live_actors(), 0u);
  // The sends from the alias's home and from node 2 both dead-letter.
  EXPECT_EQ(rt.dead_letters(), 2u);
  EXPECT_EQ(stale_letters(rt), 2u);
}

INSTANTIATE_TEST_SUITE_P(Machines, MigrationTest,
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

// Edge cases and failure injection: terminated receivers (dead letters),
// payload size boundaries (inline packet vs bulk protocol crossover),
// argument-codec limits, self-sends, deep message chains, and large reply
// blobs.
#include <gtest/gtest.h>

#include "runtime/api.hpp"

namespace hal {
namespace {

class Echo : public ActorBase {
 public:
  void on_ping(Context& ctx) {
    ++pings;
    ctx.reply(std::int64_t{1});
  }
  void on_die(Context& ctx) { ctx.terminate(); }
  void on_blob(Context& ctx, Bytes data) {
    const auto size = static_cast<std::uint64_t>(data.size());
    bytes_seen += static_cast<std::int64_t>(size);
    // Echo the payload back through the reply path.
    ctx.reply_blob(size, std::move(data));
  }
  void on_self_spam(Context& ctx, std::int64_t remaining) {
    ++self_hits;
    if (remaining > 0) {
      ctx.send<&Echo::on_self_spam>(ctx.self(), remaining - 1);
    }
  }
  HAL_BEHAVIOR(Echo, &Echo::on_ping, &Echo::on_die, &Echo::on_blob,
               &Echo::on_self_spam)
  inline static std::int64_t pings = 0;
  inline static std::int64_t bytes_seen = 0;
  inline static std::int64_t self_hits = 0;

  static void reset() { pings = bytes_seen = self_hits = 0; }
};

struct EdgeFixture : ::testing::Test {
  void SetUp() override { Echo::reset(); }
  RuntimeConfig cfg(NodeId nodes) {
    RuntimeConfig c;
    c.nodes = nodes;
    return c;
  }
};

// --- Dead letters ----------------------------------------------------------------

TEST_F(EdgeFixture, SendToTerminatedActorIsDeadLettered) {
  Runtime rt(cfg(1));
  rt.load<Echo>();
  const MailAddress e = rt.spawn<Echo>(0);
  rt.inject<&Echo::on_die>(e);
  rt.inject<&Echo::on_self_spam>(e, std::int64_t{0});  // after death
  rt.run();
  EXPECT_EQ(rt.dead_letters(), 1u);
  EXPECT_EQ(Echo::self_hits, 0);
}

TEST_F(EdgeFixture, RemoteSendToTerminatedActorIsDeadLettered) {
  Runtime rt(cfg(2));
  rt.load<Echo>();
  const MailAddress e = rt.spawn<Echo>(1);
  rt.inject<&Echo::on_die>(e);

  // A second actor on node 0 sends to the dead receiver after a delay.
  class Late : public ActorBase {
   public:
    void on_go(Context& ctx, MailAddress t) {
      ctx.charge_ns(1'000'000);
      ctx.send<&Echo::on_self_spam>(t, std::int64_t{3});
    }
    HAL_BEHAVIOR(Late, &Late::on_go)
  };
  rt.load<Late>();
  const MailAddress l = rt.spawn<Late>(0);
  rt.inject<&Late::on_go>(l, e);
  rt.run();
  EXPECT_EQ(rt.dead_letters(), 1u);
  EXPECT_EQ(Echo::self_hits, 0);
}

TEST_F(EdgeFixture, TerminationFreesActorAndItsDescriptor) {
  Runtime rt(cfg(1));
  rt.load<Echo>();
  const MailAddress e = rt.spawn<Echo>(0);
  rt.inject<&Echo::on_die>(e);
  rt.run();
  Kernel& k = rt.kernel(0);
  EXPECT_EQ(k.live_actors(), 0u);
  // Born here, never moved, no alias: no other node can be led to the
  // descriptor, so it is released with the actor.
  EXPECT_EQ(k.names().try_descriptor(e.desc), nullptr);
  EXPECT_EQ(k.names().live_descriptors(), 0u);
  EXPECT_FALSE(k.locality_check(e).valid());
}

// --- Stale sends to a recycled descriptor slot -----------------------------------

/// Counts the pokes each instance receives; dies on request.
class Mortal : public ActorBase {
 public:
  void on_poke(Context& ctx) {
    ++pokes;
    ctx.reply(std::int64_t{1});
  }
  void on_die(Context& ctx) {
    ctx.reply(std::int64_t{0});
    ctx.terminate();
  }
  HAL_BEHAVIOR(Mortal, &Mortal::on_poke, &Mortal::on_die)
  std::int64_t pokes = 0;
};

/// Lives on the victim's node: kills the victim, then creates a successor
/// there, which takes the victim's released descriptor slot.
class Replacer : public ActorBase {
 public:
  void on_replace(Context& ctx, MailAddress victim) {
    const ContRef done = ctx.message()->cont;
    const MailAddress me = ctx.self();
    ctx.request<&Mortal::on_die>(
        victim, [me, done](Context& c, const JoinView&) {
          // The victim's reply can fill this join inside its last method,
          // before its slot is freed: create the successor from a message.
          c.send_cont<&Replacer::on_succeed>(me, done);
        });
  }
  void on_succeed(Context& ctx) {
    successor = ctx.create<Mortal>();
    ctx.reply(std::int64_t{1});
  }
  HAL_BEHAVIOR(Replacer, &Replacer::on_replace, &Replacer::on_succeed)
  inline static MailAddress successor{};
};

/// Has the victim replaced, then pokes the victim's old address. With
/// `warm`, it first pokes the live victim, so the delivery's cache fill
/// gives the final poke a descriptor hint.
class StaleSender : public ActorBase {
 public:
  void on_go(Context& ctx, MailAddress victim, MailAddress replacer,
             bool warm) {
    if (!warm) {
      replace_then_poke(ctx, victim, replacer);
      return;
    }
    ctx.request<&Mortal::on_poke>(
        victim, [victim, replacer](Context& c, const JoinView&) {
          replace_then_poke(c, victim, replacer);
        });
  }
  HAL_BEHAVIOR(StaleSender, &StaleSender::on_go)

 private:
  static void replace_then_poke(Context& ctx, MailAddress victim,
                                MailAddress replacer) {
    ctx.request<&Replacer::on_replace>(
        replacer,
        [victim](Context& c, const JoinView&) {
          c.send<&Mortal::on_poke>(victim);
        },
        victim);
  }
};

class StaleSend : public ::testing::TestWithParam<MachineKind> {
 protected:
  /// Victim and replacer on node 1, the sender on `sender_node` of 3.
  void run(NodeId sender_node, bool warm) {
    Replacer::successor = {};
    RuntimeConfig c;
    c.nodes = 3;
    c.machine = GetParam();
    Runtime rt(c);
    rt.load<Mortal>();
    rt.load<Replacer>();
    rt.load<StaleSender>();
    victim_ = rt.spawn<Mortal>(1);
    const MailAddress replacer = rt.spawn<Replacer>(1);
    const MailAddress sender = rt.spawn<StaleSender>(sender_node);
    rt.inject<&StaleSender::on_go>(sender, victim_, replacer, warm);
    rt.run();

    const MailAddress succ = Replacer::successor;
    ASSERT_TRUE(succ.valid());
    // The successor holds the victim's descriptor slot, one generation on.
    EXPECT_EQ(succ.desc.index, victim_.desc.index);
    EXPECT_NE(succ.desc.gen, victim_.desc.gen);
    EXPECT_EQ(rt.find_behavior<Mortal>(victim_), nullptr);
    const Mortal* s = rt.find_behavior<Mortal>(succ);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->pokes, 0);
    const obs::RunReport r = rt.report();
    EXPECT_EQ(r.dead_letters, 1u);
    EXPECT_EQ(r.dead_letter_causes[static_cast<std::size_t>(
                  DeadLetterCause::kStaleDescriptor)],
              1u);
    sender_table_hint_ = {};
    if (sender_node != victim_.home) {
      Kernel& ks = rt.kernel(sender_node);
      const SlotId ds = ks.names().resolve(victim_);
      ASSERT_TRUE(ds.valid());
      sender_table_hint_ = ks.names().descriptor(ds).remote_desc;
    }
  }

  MailAddress victim_;
  SlotId sender_table_hint_;  // the sender's cached descriptor hint
};

TEST_P(StaleSend, LocalSendDeadLettersAsStale) { run(1, /*warm=*/false); }

TEST_P(StaleSend, RemoteSendWithoutHintDeadLettersAsStale) {
  run(0, /*warm=*/false);
  // The sender first learned of the victim from the stale poke itself, and
  // a dead letter sends no cache fill back.
  EXPECT_FALSE(sender_table_hint_.valid());
}

TEST_P(StaleSend, RemoteSendWithCachedHintDeadLettersAsStale) {
  run(0, /*warm=*/true);
  // The warm-up delivery's cache fill landed: the stale poke carried the
  // victim's old descriptor slot as its hint.
  EXPECT_EQ(sender_table_hint_, victim_.desc);
}

INSTANTIATE_TEST_SUITE_P(Machines, StaleSend,
                         ::testing::Values(MachineKind::kSim,
                                           MachineKind::kMn),
                         [](const auto& param_info) {
                           return param_info.param == MachineKind::kSim
                                      ? "Sim"
                                      : "Mn";
                         });

// --- Payload size boundaries ---------------------------------------------------------

class BlobDriver : public ActorBase {
 public:
  void on_go(Context& ctx, MailAddress target, std::int64_t size) {
    Bytes data(static_cast<std::size_t>(size));
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::byte>(i % 251);
    }
    expected_ = std::move(data);
    Bytes copy = expected_;
    ctx.request<&Echo::on_blob>(
        target,
        [this](Context&, const JoinView& v) {
          round_trip_ok = (v.blob(0) == expected_) &&
                          v.get<std::uint64_t>(0) == expected_.size();
        },
        std::move(copy));
  }
  HAL_BEHAVIOR(BlobDriver, &BlobDriver::on_go)
  inline static bool round_trip_ok = false;

 private:
  Bytes expected_;
};

class PayloadBoundary
    : public ::testing::TestWithParam<std::tuple<std::int64_t, MachineKind>> {
};

TEST_P(PayloadBoundary, BlobRoundTripsAtEverySizeClass) {
  const auto [size, machine] = GetParam();
  Echo::reset();
  BlobDriver::round_trip_ok = false;
  RuntimeConfig cfg;
  cfg.nodes = 2;
  cfg.machine = machine;
  Runtime rt(cfg);
  rt.load<Echo>();
  rt.load<BlobDriver>();
  const MailAddress e = rt.spawn<Echo>(1);
  const MailAddress d = rt.spawn<BlobDriver>(0);
  rt.inject<&BlobDriver::on_go>(d, e, size);
  rt.run();
  EXPECT_TRUE(BlobDriver::round_trip_ok) << "size " << size;
  EXPECT_EQ(Echo::bytes_seen, size);
  EXPECT_EQ(rt.dead_letters(), 0u);
}

// Sizes straddling every transport crossover: empty, inline packet payload
// (≤512 incl. codec framing), bulk threshold, one chunk (4096), chunk ± 1,
// several chunks, and a large buffer — each through NodeManager::ship under
// both the deterministic simulator and real preemption.
INSTANTIATE_TEST_SUITE_P(
    Sizes, PayloadBoundary,
    ::testing::Combine(::testing::Values(0, 1, 100, 480, 481, 512, 513, 4095,
                                         4096, 4097, 12288, 100000),
                       ::testing::Values(MachineKind::kSim,
                                         MachineKind::kMn)));

// --- Argument codec limits -------------------------------------------------------------

class WideArgs : public ActorBase {
 public:
  // 8 single-word arguments: exactly kMsgInlineWords.
  void on_wide(Context&, std::int64_t a, std::int64_t b, std::int64_t c,
               std::int64_t d, std::int64_t e, std::int64_t f, std::int64_t g,
               std::int64_t h) {
    sum = a + b + c + d + e + f + g + h;
  }
  // Mixed-width arguments: 2+2+1+1+1 = 7 words + payload.
  void on_mixed(Context&, MailAddress x, ContRef y, double z, bool w,
                std::uint32_t u, Bytes blob) {
    mixed_ok = x.valid() && !y.valid() && z == 2.5 && w &&
               u == 9u && blob.size() == 3;
  }
  HAL_BEHAVIOR(WideArgs, &WideArgs::on_wide, &WideArgs::on_mixed)
  inline static std::int64_t sum = 0;
  inline static bool mixed_ok = false;
};

TEST_F(EdgeFixture, MaxInlineArgumentWords) {
  Runtime rt(cfg(2));
  rt.load<WideArgs>();
  const MailAddress w = rt.spawn<WideArgs>(1);  // remote: words serialize
  WideArgs::sum = 0;
  rt.inject<&WideArgs::on_wide>(w, std::int64_t{1}, std::int64_t{2},
                                std::int64_t{3}, std::int64_t{4},
                                std::int64_t{5}, std::int64_t{6},
                                std::int64_t{7}, std::int64_t{8});
  rt.run();
  EXPECT_EQ(WideArgs::sum, 36);
}

TEST_F(EdgeFixture, MixedWidthArgumentsAcrossNodes) {
  Runtime rt(cfg(2));
  rt.load<WideArgs>();
  const MailAddress w = rt.spawn<WideArgs>(1);
  WideArgs::mixed_ok = false;
  rt.inject<&WideArgs::on_mixed>(w, w, ContRef{}, 2.5, true, std::uint32_t{9},
                                 Bytes{std::byte{1}, std::byte{2},
                                       std::byte{3}});
  rt.run();
  EXPECT_TRUE(WideArgs::mixed_ok);
}

// --- Self sends and deep chains ------------------------------------------------------------

TEST_F(EdgeFixture, SelfSendChainTerminates) {
  Runtime rt(cfg(1));
  rt.load<Echo>();
  const MailAddress e = rt.spawn<Echo>(0);
  rt.inject<&Echo::on_self_spam>(e, std::int64_t{10000});
  rt.run();
  EXPECT_EQ(Echo::self_hits, 10001);
}

class Relay : public ActorBase {
 public:
  void on_hop(Context& ctx, std::int64_t remaining) {
    ++hops;
    if (remaining > 0 && next.valid()) {
      ctx.send<&Relay::on_hop>(next, remaining - 1);
    }
  }
  void on_wire(Context&, MailAddress n) { next = n; }
  HAL_BEHAVIOR(Relay, &Relay::on_hop, &Relay::on_wire)
  MailAddress next;
  inline static std::int64_t hops = 0;
};

TEST_F(EdgeFixture, LongRemoteChainAcrossManyNodes) {
  // A message ricochets around a 16-node machine 2000 times.
  Relay::hops = 0;
  Runtime rt(cfg(16));
  rt.load<Relay>();
  std::vector<MailAddress> ring;
  for (NodeId n = 0; n < 16; ++n) ring.push_back(rt.spawn<Relay>(n));
  for (std::size_t i = 0; i < ring.size(); ++i) {
    rt.inject<&Relay::on_wire>(ring[i], ring[(i + 1) % ring.size()]);
  }
  rt.inject<&Relay::on_hop>(ring[0], std::int64_t{2000});
  rt.run();
  EXPECT_EQ(Relay::hops, 2001);
  EXPECT_EQ(rt.dead_letters(), 0u);
}

// --- Group edge cases ----------------------------------------------------------------------

class Cell : public ActorBase {
 public:
  void on_tick(Context&) { ++ticks; }
  HAL_BEHAVIOR(Cell, &Cell::on_tick)
  inline static std::int64_t ticks = 0;
};

class GroupDriver : public ActorBase {
 public:
  void on_go(Context& ctx, std::uint32_t members, std::int64_t rounds) {
    const GroupId gid = ctx.grpnew<Cell>(members);
    for (std::int64_t r = 0; r < rounds; ++r) {
      ctx.broadcast<&Cell::on_tick>(gid);
    }
  }
  HAL_BEHAVIOR(GroupDriver, &GroupDriver::on_go)
};

TEST_F(EdgeFixture, GroupWithMoreNodesThanMembers) {
  Cell::ticks = 0;
  Runtime rt(cfg(8));
  rt.load<Cell>();
  rt.load<GroupDriver>();
  const MailAddress d = rt.spawn<GroupDriver>(3);  // off-zero creator
  rt.inject<&GroupDriver::on_go>(d, std::uint32_t{3}, std::int64_t{4});
  rt.run();
  EXPECT_EQ(Cell::ticks, 12);
}

TEST_F(EdgeFixture, ZeroRoundBroadcastIsQuiet) {
  Cell::ticks = 0;
  Runtime rt(cfg(4));
  rt.load<Cell>();
  rt.load<GroupDriver>();
  const MailAddress d = rt.spawn<GroupDriver>(0);
  rt.inject<&GroupDriver::on_go>(d, std::uint32_t{6}, std::int64_t{0});
  rt.run();
  EXPECT_EQ(Cell::ticks, 0);
  EXPECT_EQ(rt.machine().tokens(), 0u);
}

// --- Stale-address detection ------------------------------------------------------------------

TEST_F(EdgeFixture, StaleSlotIdDoesNotResolve) {
  Runtime rt(cfg(1));
  rt.load<Echo>();
  (void)rt.spawn<Echo>(0);
  MailAddress bogus;
  bogus.home = 0;
  bogus.desc = SlotId{999, 42};  // never allocated
  Kernel& k = rt.kernel(0);
  EXPECT_FALSE(k.locality_check(bogus).valid());
  EXPECT_FALSE(k.names().resolve(bogus).valid());
}

}  // namespace
}  // namespace hal

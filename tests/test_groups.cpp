// Integration tests: grpnew, MST broadcast with collective scheduling
// (§2.2, §6.4), and member-indexed sends.
#include <gtest/gtest.h>

#include <algorithm>

#include "runtime/api.hpp"

namespace hal {
namespace {

class Member : public ActorBase {
 public:
  void on_init(Context&, GroupId gid, std::uint32_t index,
               std::uint32_t total) {
    gid_ = gid;
    index_ = index;
    total_ = total;
  }
  void on_bump(Context&, std::int64_t by) { value_ += by; }
  void on_tell_index(Context& ctx) { ctx.reply(static_cast<std::int64_t>(index_)); }
  /// Ring step: forward to the next member by index.
  void on_ring(Context& ctx, std::int64_t remaining) {
    ++ring_hits_;
    if (remaining > 0) {
      ctx.send_member<&Member::on_ring>(gid_, (index_ + 1) % total_,
                                        remaining - 1);
    }
  }
  HAL_BEHAVIOR(Member, &Member::on_init, &Member::on_bump,
               &Member::on_tell_index, &Member::on_ring)

  /// A ring step can overtake this member's on_init: they come from
  /// different nodes, and only sends between one pair of nodes stay
  /// ordered. The constraint holds the step in the pending queue (§6.1)
  /// until the member knows its index and the group size.
  bool method_enabled(Selector s) const override {
    return s != sel<&Member::on_ring>() || total_ != 0;
  }

  std::int64_t value() const { return value_; }
  std::int64_t ring_hits() const { return ring_hits_; }
  std::uint32_t index() const { return index_; }

 private:
  GroupId gid_{};
  std::uint32_t index_ = 0;
  std::uint32_t total_ = 0;
  std::int64_t value_ = 0;
  std::int64_t ring_hits_ = 0;
};

/// Creates the group and drives it.
class GroupDriver : public ActorBase {
 public:
  void on_make(Context& ctx, std::uint32_t count) {
    gid = ctx.grpnew<Member>(count);
    // Tell every member its index (member-indexed sends).
    for (std::uint32_t i = 0; i < count; ++i) {
      ctx.send_member<&Member::on_init>(gid, i, gid, i, count);
    }
  }
  void on_bump_all(Context& ctx, std::int64_t by) {
    ctx.broadcast<&Member::on_bump>(gid, by);
  }
  void on_start_ring(Context& ctx, std::int64_t steps) {
    ctx.send_member<&Member::on_ring>(gid, 0, steps);
  }
  HAL_BEHAVIOR(GroupDriver, &GroupDriver::on_make, &GroupDriver::on_bump_all,
               &GroupDriver::on_start_ring)
  inline static GroupId gid{};
};

class GroupTest : public ::testing::TestWithParam<MachineKind> {
 protected:
  RuntimeConfig cfg(NodeId nodes) {
    RuntimeConfig c;
    c.nodes = nodes;
    c.machine = GetParam();
    return c;
  }
};

/// Collect every live Member behaviour across all nodes.
std::vector<Member*> all_members(Runtime& rt) {
  std::vector<Member*> out;
  for (NodeId n = 0; n < rt.nodes(); ++n) {
    Kernel& k = rt.kernel(n);
    k.names().for_each_descriptor([&](SlotId, LocalityDescriptor& d) {
      if (!d.local()) return;
      ActorRecord* rec = k.actor(d.actor);
      if (rec == nullptr) return;
      if (auto* m = dynamic_cast<Member*>(rec->impl.get())) {
        // Descriptors can alias the same actor; dedup by pointer.
        if (std::find(out.begin(), out.end(), m) == out.end()) {
          out.push_back(m);
        }
      }
    });
  }
  return out;
}

TEST_P(GroupTest, GrpnewStripesMembersAcrossNodes) {
  GroupDriver::gid = {};
  Runtime rt(cfg(4));
  rt.load<Member>();
  rt.load<GroupDriver>();
  const MailAddress d = rt.spawn<GroupDriver>(1);
  rt.inject<&GroupDriver::on_make>(d, std::uint32_t{10});
  rt.run();
  // 10 members over 4 nodes, rooted at node 1: nodes get 3,3,2,2.
  std::size_t total = 0;
  for (NodeId n = 0; n < 4; ++n) {
    const GroupInfo* g = rt.kernel(n).groups().find(GroupDriver::gid);
    ASSERT_NE(g, nullptr) << "group unknown on node " << n;
    EXPECT_EQ(g->total, 10u);
    total += g->members.size();
    for (const auto& [idx, addr] : g->members) {
      EXPECT_EQ((1 + idx) % 4, n) << "striping: member " << idx;
    }
  }
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(all_members(rt).size(), 10u);
}

TEST_P(GroupTest, BroadcastReachesEveryMemberOnce) {
  GroupDriver::gid = {};
  Runtime rt(cfg(4));
  rt.load<Member>();
  rt.load<GroupDriver>();
  const MailAddress d = rt.spawn<GroupDriver>(0);
  rt.inject<&GroupDriver::on_make>(d, std::uint32_t{13});
  rt.inject<&GroupDriver::on_bump_all>(d, std::int64_t{3});
  rt.inject<&GroupDriver::on_bump_all>(d, std::int64_t{4});
  rt.run();
  const auto members = all_members(rt);
  ASSERT_EQ(members.size(), 13u);
  for (Member* m : members) {
    EXPECT_EQ(m->value(), 7) << "member got duplicated/lost broadcast";
  }
  const StatBlock stats = rt.report().total;
  EXPECT_EQ(stats.get(Stat::kBroadcastsSent), 2u);
  // MST relays: ≤ P-1 per broadcast (plus the group-create relay).
  EXPECT_LE(stats.get(Stat::kBroadcastFanout), 3u * (4 - 1));
}

TEST_P(GroupTest, MemberIndexedRingTraversal) {
  GroupDriver::gid = {};
  Runtime rt(cfg(3));
  rt.load<Member>();
  rt.load<GroupDriver>();
  const MailAddress d = rt.spawn<GroupDriver>(0);
  rt.inject<&GroupDriver::on_make>(d, std::uint32_t{6});
  rt.inject<&GroupDriver::on_start_ring>(d, std::int64_t{17});
  rt.run();
  const auto members = all_members(rt);
  ASSERT_EQ(members.size(), 6u);
  std::int64_t total_hits = 0;
  for (Member* m : members) total_hits += m->ring_hits();
  EXPECT_EQ(total_hits, 18);  // 17 forwards + the initial delivery
  EXPECT_EQ(rt.dead_letters(), 0u);
}

TEST_P(GroupTest, SingleMemberGroupOnOneNode) {
  GroupDriver::gid = {};
  Runtime rt(cfg(1));
  rt.load<Member>();
  rt.load<GroupDriver>();
  const MailAddress d = rt.spawn<GroupDriver>(0);
  rt.inject<&GroupDriver::on_make>(d, std::uint32_t{1});
  rt.inject<&GroupDriver::on_bump_all>(d, std::int64_t{9});
  rt.run();
  const auto members = all_members(rt);
  ASSERT_EQ(members.size(), 1u);
  EXPECT_EQ(members[0]->value(), 9);
}

TEST_P(GroupTest, GroupLargerThanMachine) {
  GroupDriver::gid = {};
  Runtime rt(cfg(2));
  rt.load<Member>();
  rt.load<GroupDriver>();
  const MailAddress d = rt.spawn<GroupDriver>(0);
  rt.inject<&GroupDriver::on_make>(d, std::uint32_t{64});
  rt.inject<&GroupDriver::on_bump_all>(d, std::int64_t{1});
  rt.run();
  const auto members = all_members(rt);
  ASSERT_EQ(members.size(), 64u);
  for (Member* m : members) EXPECT_EQ(m->value(), 1);
}

INSTANTIATE_TEST_SUITE_P(Machines, GroupTest,
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

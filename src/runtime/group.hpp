// Actor groups (§2.2, §6.4).
//
// grpnew creates a group of actors with the same behaviour template and
// returns a unique identifier. Members are striped round-robin across nodes
// starting at the creator — but striping only fixes each member's
// *birthplace*: members are ordinary actors with ordinary mail addresses and
// remain fully location-transparent (they may migrate; member-indexed sends
// re-enter the normal name-server path on the birth node). This is the
// contrast the paper draws with Concert's location-dependent aggregates.
#pragma once

#include <unordered_map>
#include <vector>

#include "check/affinity.hpp"
#include "check/capability.hpp"
#include "common/assert.hpp"
#include "runtime/message.hpp"

namespace hal {

struct GroupInfo {
  GroupId id{};
  BehaviorId behavior = kInvalidBehavior;
  std::uint32_t total = 0;   ///< members in the whole group
  NodeId root = kInvalidNode;  ///< creator node (stripe base & MST root)
  /// Local members: (member index, mail address), ascending index.
  std::vector<std::pair<std::uint32_t, MailAddress>> members;
};

class GroupTable {
 public:
  /// Names the owning node (called once from the owning kernel's ctor).
  void bind(NodeId owner) noexcept { affinity_.bind(owner, "GroupTable"); }

  void insert(GroupInfo info) {
    affinity_.assert_here();
    HAL_ASSERT(!table_.contains(info.id));
    table_.emplace(info.id, std::move(info));
  }

  GroupInfo* find(GroupId id) {
    affinity_.assert_here();
    auto it = table_.find(id);
    return it == table_.end() ? nullptr : &it->second;
  }

  const GroupInfo* find(GroupId id) const {
    affinity_.assert_here();
    auto it = table_.find(id);
    return it == table_.end() ? nullptr : &it->second;
  }

  /// Member address by index; asserts the member was born on this node.
  const MailAddress& member_address(GroupId id, std::uint32_t index) const {
    const GroupInfo* g = find(id);
    HAL_ASSERT(g != nullptr);
    for (const auto& [idx, addr] : g->members) {
      if (idx == index) return addr;
    }
    HAL_PANIC("group member not born on this node");
  }

  // Quiescent-time introspection (report, tests): opted out of the
  // capability analysis rather than asserted.
  std::size_t size() const noexcept HAL_NO_THREAD_SAFETY_ANALYSIS {
    return table_.size();
  }

 private:
  check::NodeAffinityGuard affinity_;
  std::unordered_map<GroupId, GroupInfo, GroupIdHash> table_
      HAL_GUARDED_BY(affinity_);
};

}  // namespace hal

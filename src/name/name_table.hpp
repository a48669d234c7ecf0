// Per-node name table (§4.2).
//
// "Each kernel maintains its own (local) name table, and name translation
// from a mail address to the location information is performed by consulting
// the local name table only" — no inter-processor communication on the
// lookup path. Consistency is deliberately relaxed: entries for remote
// actors are best guesses, corrected lazily by the FIR protocol when a stale
// guess is exercised.
//
// Resolution has two tiers, reproducing the paper's "real address" trick:
//   * home-node fast path — on the address's home node, the mail address
//     itself contains the descriptor slot: O(1) pool dereference, no hash;
//   * foreign path — a hash lookup finds this node's own descriptor caching
//     the actor's location (allocated on first send).
#pragma once

#include <cstddef>
#include <unordered_map>

#include "check/affinity.hpp"
#include "check/capability.hpp"
#include "check/protocol.hpp"
#include "common/stats.hpp"
#include "name/locality_descriptor.hpp"
#include "name/mail_address.hpp"

namespace hal {

class NameTable {
 public:
  NameTable(NodeId self, StatBlock& stats) : self_(self), stats_(stats) {
    affinity_.bind(self, "NameTable");
  }

  NameTable(const NameTable&) = delete;
  NameTable& operator=(const NameTable&) = delete;

  NodeId self() const noexcept { return self_; }

  // --- Descriptor pool -----------------------------------------------------
  [[nodiscard]] SlotId allocate(LocalityDescriptor d = {}) {
    affinity_.assert_here();
    return pool_.allocate(d);
  }
  /// Free a descriptor slot. The slot's generation advances on reuse, so
  /// addresses and hints naming the released descriptor stop resolving.
  void release(SlotId id) {
    affinity_.assert_here();
    pool_.free(id);
  }
  LocalityDescriptor& descriptor(SlotId id) {
    affinity_.assert_here();
    return pool_.get(id);
  }
  const LocalityDescriptor& descriptor(SlotId id) const
      HAL_NO_THREAD_SAFETY_ANALYSIS {
    return pool_.get(id);
  }
  LocalityDescriptor* try_descriptor(SlotId id) noexcept
      HAL_NO_THREAD_SAFETY_ANALYSIS {
    return pool_.try_get(id);
  }

  /// Checked descriptor overwrite: protocol code that rewrites a whole
  /// descriptor (install, migration, reap, FIR cache fill) must come through
  /// here so the epoch-monotonicity invariant is audited — a regression
  /// would make FIR chases cyclic (§4.2).
  void update(SlotId id, const LocalityDescriptor& next) {
    affinity_.assert_here();
    LocalityDescriptor& d = pool_.get(id);
    check::audit_epoch_monotone(self_, d.epoch, next.epoch);
    d = next;
  }

  // --- Name mapping ----------------------------------------------------------
  /// Register `addr` → local descriptor slot. Used for aliases and for
  /// foreign addresses this node has cached locality for.
  void bind(const MailAddress& addr, SlotId desc) {
    affinity_.assert_here();
    map_.insert_or_assign(addr, desc);
  }
  void unbind(const MailAddress& addr) {
    affinity_.assert_here();
    map_.erase(addr);
  }

  /// Hash-lookup tier. Returns an invalid SlotId when unknown.
  [[nodiscard]] SlotId lookup(const MailAddress& addr) {
    affinity_.assert_here();
    stats_.bump(Stat::kNameTableLookups);
    auto it = map_.find(addr);
    if (it == map_.end()) return {};
    stats_.bump(Stat::kNameTableHits);
    return it->second;
  }

  /// Full resolution: home-node fast path first, hash tier otherwise.
  /// Returns the slot of this node's descriptor for the actor, or invalid if
  /// this node knows nothing about the address yet.
  [[nodiscard]] SlotId resolve(const MailAddress& addr) {
    affinity_.assert_here();
    if (addr.home == self_) {
      // The address embeds the descriptor's "real address" on this node.
      return pool_.contains(addr.desc) ? addr.desc : SlotId{};
    }
    return lookup(addr);
  }

  /// Whether this node minted `addr`: it is home to the address and its
  /// descriptor pool issued the slot the address names. A resolve miss on
  /// such an address is a released descriptor, not a forged name.
  bool minted(const MailAddress& addr) const {
    affinity_.assert_here();
    return addr.home == self_ && pool_.issued(addr.desc);
  }

  // Quiescent-time introspection (report, tests): opted out of the
  // capability analysis rather than asserted.
  std::size_t live_descriptors() const noexcept HAL_NO_THREAD_SAFETY_ANALYSIS {
    return pool_.size();
  }

  template <typename Fn>
  void for_each_descriptor(Fn&& fn) HAL_NO_THREAD_SAFETY_ANALYSIS {
    pool_.for_each(std::forward<Fn>(fn));
  }

 private:
  const NodeId self_;  // write-once identity, never a shared-state race
  StatBlock& stats_;
  check::NodeAffinityGuard affinity_;
  SlotPool<LocalityDescriptor> pool_ HAL_GUARDED_BY(affinity_);
  std::unordered_map<MailAddress, SlotId, MailAddressHash> map_
      HAL_GUARDED_BY(affinity_);
};

}  // namespace hal

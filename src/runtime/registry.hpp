// Behaviour registry — the runtime's program-load module.
//
// The paper's front-end dynamically loads a compiled executable into every
// kernel, after which any node can instantiate any behaviour by identifier
// (remote creation sends only the behaviour id, §5). The registry supplies
// exactly that: every node shares one immutable table, populated during
// Runtime setup ("program loading"), mapping BehaviorId → constructor.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/assert.hpp"
#include "common/inline_function.hpp"
#include "runtime/actor_base.hpp"

namespace hal {

class BehaviorRegistry {
 public:
  /// Constructor thunk. InlineFunction (not std::function) so instantiating
  /// a behaviour — which happens on the remote-creation handler path — never
  /// allocates for the thunk itself; factory captures (a program handle, an
  /// id) must fit the inline capacity.
  using Factory = InlineFunction<std::unique_ptr<ActorBase>()>;

  template <typename B>
    requires std::derived_from<B, ActorBase> &&
             std::default_initializable<B>
  BehaviorId register_behavior() {
    const std::size_t slot = type_slot<B>();
    if (const BehaviorId id = id_at(slot); id != kInvalidBehavior) return id;
    const auto id = register_factory(
        std::string(B{}.behavior_name()),
        []() -> std::unique_ptr<ActorBase> { return std::make_unique<B>(); });
    if (slot >= by_type_.size()) by_type_.resize(slot + 1, kInvalidBehavior);
    by_type_[slot] = id;
    return id;
  }

  /// Register a behaviour by name + factory. This is what dynamic loading
  /// really needs (the template overload is sugar for statically known C++
  /// behaviours): interpreted languages on top of the runtime register one
  /// factory per source-level behaviour.
  BehaviorId register_factory(std::string name, Factory factory) {
    if (auto it = by_name_.find(name); it != by_name_.end()) {
      return it->second;
    }
    const auto id = static_cast<BehaviorId>(entries_.size());
    by_name_.emplace(name, id);
    entries_.push_back(Entry{std::move(name), std::move(factory)});
    return id;
  }

  /// Lookup by behaviour name; kInvalidBehavior when absent.
  BehaviorId id_of_name(std::string_view name) const {
    auto it = by_name_.find(std::string(name));
    return it == by_name_.end() ? kInvalidBehavior : it->second;
  }

  /// Every create<B>() reads this: an index into the per-type table, no
  /// hashing.
  template <typename B>
  BehaviorId id_of() const {
    const BehaviorId id = id_at(type_slot<B>());
    HAL_ASSERT(id != kInvalidBehavior);  // behaviour was never "loaded"
    return id;
  }

  template <typename B>
  bool registered() const {
    return id_at(type_slot<B>()) != kInvalidBehavior;
  }

  std::unique_ptr<ActorBase> construct(BehaviorId id) const {
    HAL_ASSERT(id < entries_.size());
    return entries_[id].construct();
  }

  const std::string& name(BehaviorId id) const {
    HAL_ASSERT(id < entries_.size());
    return entries_[id].name;
  }

  std::size_t size() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    std::string name;
    Factory construct;
  };

  /// The C++ type's index into by_type_, assigned once per process the
  /// first time any registry asks; the ids stay per registry. Constant-
  /// initialized atomics, not a function-local static: nothing to
  /// initialize dynamically, and two threads that meet a new type at once
  /// agree on one slot.
  template <typename B>
  static std::size_t type_slot() {
    std::size_t s = type_slot_plus_one_<B>.load(std::memory_order_acquire);
    if (s == 0) {
      const std::size_t fresh =
          next_type_slot_.fetch_add(1, std::memory_order_relaxed) + 1;
      if (type_slot_plus_one_<B>.compare_exchange_strong(s, fresh)) s = fresh;
    }
    return s - 1;
  }

  BehaviorId id_at(std::size_t slot) const noexcept {
    return slot < by_type_.size() ? by_type_[slot] : kInvalidBehavior;
  }

  static inline std::atomic<std::size_t> next_type_slot_{0};
  template <typename B>
  static inline std::atomic<std::size_t> type_slot_plus_one_{0};

  std::vector<Entry> entries_;
  /// Per-type slot → id; kInvalidBehavior for types this registry never
  /// loaded.
  std::vector<BehaviorId> by_type_;
  std::unordered_map<std::string, BehaviorId> by_name_;
};

}  // namespace hal

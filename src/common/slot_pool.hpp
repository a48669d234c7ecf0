// Generation-checked slab allocator.
//
// The paper encodes raw memory addresses of locality descriptors inside mail
// addresses so that a cached address dereferences in O(1) with no hash lookup
// (§4.1). We reproduce the same O(1)-no-hash property with slot indices into
// a per-node pool; the generation counter turns use-after-free of a recycled
// slot into a detectable error instead of silent corruption.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace hal {

/// A pool handle: slot index + generation. 0-initialized SlotId is invalid.
struct SlotId {
  std::uint32_t index = 0;
  std::uint32_t gen = 0;

  constexpr bool valid() const noexcept { return gen != 0; }
  friend constexpr bool operator==(SlotId, SlotId) noexcept = default;

  /// Pack into a single word for transmission inside messages.
  constexpr std::uint64_t pack() const noexcept {
    return (static_cast<std::uint64_t>(gen) << 32) | index;
  }
  static constexpr SlotId unpack(std::uint64_t w) noexcept {
    return SlotId{static_cast<std::uint32_t>(w & 0xffffffffULL),
                  static_cast<std::uint32_t>(w >> 32)};
  }
};

/// Slab of T with stable indices, O(1) allocate/free via a free list, and
/// generation checking. Not thread-safe: each node owns its own pools
/// (single-writer discipline, see DESIGN.md §5).
///
/// Recycle contract: free() resets the value in place — by calling its
/// `recycle()` when T has one, by assigning T() otherwise — and the
/// no-argument allocate() hands the slot out exactly as free() left it. A
/// type with recycle() can so keep storage across occupants (an actor
/// slot keeps its initial-size mailbox ring); every other type reads as
/// T().
///
/// Generations never wrap: a slot freed at kLastGen is retired, not put
/// back on the free list, so no id it ever issued can name a later
/// occupant. The cost is one slot per 2^32 - 1 reuses of it.
template <typename T>
class SlotPool {
 public:
  static constexpr std::uint32_t kLastGen = 0xffffffffU;

  SlotPool() = default;

  SlotId allocate() {
    std::uint32_t index;
    if (free_head_ != kNoFree) {
      index = free_head_;
      free_head_ = slots_[index].next_free;
    } else {
      index = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[index];
    HAL_DASSERT(!s.live && s.gen != kLastGen);
    ++s.gen;  // a fresh slot starts at 0, reserved for "invalid"
    s.live = true;
    ++live_count_;
    return SlotId{index, s.gen};
  }

  template <typename... Args>
    requires(sizeof...(Args) > 0)
  SlotId allocate(Args&&... args) {
    const SlotId id = allocate();
    slots_[id.index].value = T(std::forward<Args>(args)...);
    return id;
  }

  void free(SlotId id) {
    Slot& s = slot_checked(id);
    s.live = false;
    if constexpr (requires { s.value.recycle(); }) {
      s.value.recycle();
    } else {
      s.value = T();
    }
    HAL_DASSERT(live_count_ > 0);
    --live_count_;
    if (s.gen == kLastGen) return;  // retired: see the class comment
    s.next_free = free_head_;
    free_head_ = id.index;
  }

  T& get(SlotId id) { return slot_checked(id).value; }
  const T& get(SlotId id) const { return slot_checked(id).value; }

  /// Null if the id is stale (freed and possibly recycled) or invalid.
  T* try_get(SlotId id) noexcept {
    if (!id.valid() || id.index >= slots_.size()) return nullptr;
    Slot& s = slots_[id.index];
    if (!s.live || s.gen != id.gen) return nullptr;
    return &s.value;
  }
  const T* try_get(SlotId id) const noexcept {
    return const_cast<SlotPool*>(this)->try_get(id);
  }

  bool contains(SlotId id) const noexcept { return try_get(id) != nullptr; }
  /// Whether this pool handed `id` out at some point: its slot exists and
  /// its generation is not newer than the slot's. A miss on such an id
  /// names a freed occupant, not a handle the pool never issued.
  bool issued(SlotId id) const noexcept {
    return id.valid() && id.index < slots_.size() &&
           id.gen <= slots_[id.index].gen;
  }
  std::size_t size() const noexcept { return live_count_; }
  std::size_t capacity() const noexcept { return slots_.size(); }

  /// Test hook: the free slot `index` is handed out next at generation
  /// `gen` + 1, so a test can reach kLastGen without 2^32 reuses.
  void preseed_generation_for_test(std::uint32_t index, std::uint32_t gen) {
    HAL_ASSERT(index < slots_.size() && !slots_[index].live);
    slots_[index].gen = gen;
  }

  /// Visit every live slot; `fn(SlotId, T&)`.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].live) fn(SlotId{i, slots_[i].gen}, slots_[i].value);
    }
  }

 private:
  static constexpr std::uint32_t kNoFree = 0xffffffffU;

  struct Slot {
    T value{};
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNoFree;
    bool live = false;
  };

  Slot& slot_checked(SlotId id) {
    HAL_ASSERT(id.valid() && id.index < slots_.size());
    Slot& s = slots_[id.index];
    HAL_ASSERT(s.live && s.gen == id.gen);
    return s;
  }
  const Slot& slot_checked(SlotId id) const {
    return const_cast<SlotPool*>(this)->slot_checked(id);
  }

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoFree;
  std::size_t live_count_ = 0;
};

}  // namespace hal

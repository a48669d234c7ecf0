// Size-classed free-list pool of payload buffers.
//
// Every message that crosses a node boundary needs an owned byte buffer
// (packet payload, bulk transfer body, migration image). Allocating a fresh
// `Bytes` per message puts malloc/free on the messaging hot path — exactly
// the overhead the paper's active-message mapping is meant to avoid, and
// what CAF attributes most of its fine-grain throughput loss to. A
// BufferPool recycles retired buffers in per-size-class free lists so
// steady-state messaging performs no heap allocation at all.
//
// Ownership discipline matches the rest of the runtime (DESIGN.md §5):
// each kernel owns one pool and touches it only from its own execution
// stream, so there is no locking. Under MnMachine the pools are thereby
// sharded per node, whichever worker runs it; a buffer acquired on the
// sending node travels inside the packet and retires into the *receiving*
// node's pool, which is safe because `Bytes` carries its own allocation.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "check/affinity.hpp"
#include "check/buffer_lifecycle.hpp"
#include "check/capability.hpp"
#include "common/bytes.hpp"

namespace hal {

class BufferPool {
 public:
  /// Size-class capacities. Classes cover the wire traffic tiers: inline
  /// message bodies (≤ 8 args · 8 B = 64 B), small payload-bearing packets
  /// (≤ kMaxInlinePayload = 512 B), bulk DATA chunks (kBulkChunkBytes =
  /// 4 KiB), and whole bulk transfers / migration images (64 KiB). Larger
  /// requests fall through to plain allocation and are dropped on release.
  static constexpr std::array<std::size_t, 4> kClassBytes = {64, 512, 4096,
                                                            65536};
  /// Free-list depth bound per class: a pool retains at most this many idle
  /// buffers per class (≈ 2.3 MiB worst case per node), so a burst cannot
  /// permanently pin its high-water mark in memory.
  static constexpr std::size_t kMaxFreePerClass = 32;

  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A buffer with size() == len, recycled when possible. The memory is not
  /// zeroed beyond what vector::resize of a recycled buffer defines —
  /// callers overwrite the full extent.
  [[nodiscard]] Bytes acquire(std::size_t len) {
    Bytes b = reserve(len);
    b.resize(len);  // within reserved capacity: no allocation
    return b;
  }

  /// An empty buffer with capacity() >= cap (for ByteWriter-style append
  /// serialization). Oversized requests get a plain fresh buffer.
  [[nodiscard]] Bytes reserve(std::size_t cap) {
    affinity_.assert_here();
    const std::size_t cls = class_for(cap);
    if (cls < kClassBytes.size()) {
      FreeList& fl = free_[cls];
      if (fl.count > 0) {
        ++hits_;
        Bytes b = std::move(fl.buffers[--fl.count]);
        lifecycle_.note_reuse(b, affinity_);
        b.clear();
        note_acquired(b);
        return b;
      }
      ++misses_;
      Bytes b;
      b.reserve(kClassBytes[cls]);
      note_acquired(b);
      return b;
    }
    ++misses_;
    Bytes b;
    b.reserve(cap);
    note_acquired(b);
    return b;
  }

  /// Retire a buffer into the free list of the largest class its capacity
  /// covers. Buffers too small for the smallest class (e.g. moved-from
  /// shells), oversized one-offs, and overflow beyond the per-class bound
  /// are simply dropped (freed by ~Bytes).
  void release(Bytes&& b) {
    affinity_.assert_here();
    const std::size_t cap = b.capacity();
    if (cap < kClassBytes.front()) return;  // nothing worth keeping
#if HAL_CHECK
    if (ledger_ != nullptr) ledger_->note_retire(b.data());
#endif
    // Largest class with kClassBytes[cls] <= cap serves any request of that
    // class without reallocating.
    std::size_t cls = 0;
    while (cls + 1 < kClassBytes.size() && kClassBytes[cls + 1] <= cap) ++cls;
    if (cap > 2 * kClassBytes.back()) return;  // oversized one-off
    FreeList& fl = free_[cls];
    if (fl.count >= kMaxFreePerClass) return;  // bounded
    ++returns_;
    lifecycle_.note_idle(b, affinity_);
    fl.buffers[fl.count++] = std::move(b);
  }

  // --- hal::check wiring ---------------------------------------------------
  /// Name the owning node (level-2 affinity checking). Called once from the
  /// owning kernel's constructor; standalone pools stay unbound/unchecked.
  void bind_owner(NodeId node) noexcept { affinity_.bind(node, "BufferPool"); }
  /// Attach the runtime-wide leak ledger (nullptr = untracked).
  void set_ledger(check::BufferLedger* ledger) noexcept {
#if HAL_CHECK
    ledger_ = ledger;
#else
    (void)ledger;
#endif
  }
  /// Allocation identity of a payload before dispatch, for escape detection
  /// (nullptr when untracked or checking is off).
  const void* watch(const Bytes& b) const noexcept {
#if HAL_CHECK
    return ledger_ != nullptr ? b.data() : nullptr;
#else
    (void)b;
    return nullptr;
#endif
  }
  /// If the watched buffer's allocation is no longer `pre` — user code took
  /// the payload's ownership via Codec<Bytes> during dispatch, or a writer
  /// outgrew its reservation and vector growth freed the allocation —
  /// record that `pre` left the recycling loop.
  void note_escape_if_moved(const void* pre, const Bytes& now) noexcept {
#if HAL_CHECK
    if (pre != nullptr && now.data() != pre && ledger_ != nullptr) {
      ledger_->note_escape(pre);
    }
#else
    (void)pre;
    (void)now;
#endif
  }
  std::uint64_t check_double_retires() const noexcept
      HAL_NO_THREAD_SAFETY_ANALYSIS {
    return lifecycle_.double_retires();
  }
  std::uint64_t check_poison_hits() const noexcept
      HAL_NO_THREAD_SAFETY_ANALYSIS {
    return lifecycle_.poison_hits();
  }

  // --- Introspection (tests, diagnostics) ----------------------------------
  // Quiescent-time reads from the bootstrap thread (Runtime::report, tests):
  // opted out of clang's capability analysis rather than asserted.
  std::uint64_t hits() const noexcept HAL_NO_THREAD_SAFETY_ANALYSIS {
    return hits_;
  }
  std::uint64_t misses() const noexcept HAL_NO_THREAD_SAFETY_ANALYSIS {
    return misses_;
  }
  std::uint64_t returns() const noexcept HAL_NO_THREAD_SAFETY_ANALYSIS {
    return returns_;
  }
  std::size_t idle_buffers() const noexcept HAL_NO_THREAD_SAFETY_ANALYSIS {
    std::size_t n = 0;
    for (const FreeList& fl : free_) n += fl.count;
    return n;
  }

 private:
  /// Smallest class that can hold `len`; kClassBytes.size() if none.
  static std::size_t class_for(std::size_t len) noexcept {
    for (std::size_t i = 0; i < kClassBytes.size(); ++i) {
      if (len <= kClassBytes[i]) return i;
    }
    return kClassBytes.size();
  }

  void note_acquired(const Bytes& b) noexcept {
#if HAL_CHECK
    if (ledger_ != nullptr) ledger_->note_acquire(b.data());
#else
    (void)b;
#endif
  }

  struct FreeList {
    std::array<Bytes, kMaxFreePerClass> buffers{};
    std::size_t count = 0;
  };

  check::NodeAffinityGuard affinity_;
  check::BufferLifecycle lifecycle_ HAL_GUARDED_BY(affinity_);
  std::array<FreeList, kClassBytes.size()> free_ HAL_GUARDED_BY(affinity_){};
  std::uint64_t hits_ HAL_GUARDED_BY(affinity_) = 0;
  std::uint64_t misses_ HAL_GUARDED_BY(affinity_) = 0;
  std::uint64_t returns_ HAL_GUARDED_BY(affinity_) = 0;
#if HAL_CHECK
  // HAL_LINT_SUPPRESS(hal-capability-coverage): the ledger pointer is set
  // once at bind time; BufferLedger itself is internally synchronized
  // (cross-node conservation audit, HAL_CHECK builds only).
  check::BufferLedger* ledger_ = nullptr;
#endif
};

}  // namespace hal

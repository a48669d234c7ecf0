// Join continuations (§6.2, Fig. 4).
//
// The HAL compiler transforms a blocking `request` into an asynchronous send
// whose continuation is separated out by dependence analysis; sends with no
// mutual dependence share one continuation. A join continuation has four
// components — counter, function, creator, and argument slots. Some slots
// are pre-filled at creation; the rest are filled by replies. When the
// counter reaches zero the function runs with the continuation as its
// argument. Its deterministic behaviour (receives exactly `counter` replies,
// then never again) is what makes this cheaper than a full actor — and what
// lets the whole structure live allocation-free: the body is an
// InlineFunction (captures stay inside the record) and up to kInlineSlots
// argument slots are stored inline, so the common request/reply round
// touches the heap zero times.
#pragma once

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/bytes.hpp"
#include "common/inline_function.hpp"
#include "runtime/message.hpp"

namespace hal {

class Context;
class JoinView;

/// The compiler-generated continuation body. Captures must fit the inline
/// capacity — a compile error otherwise, never a hidden heap allocation.
using JoinBody = InlineFunction<void(Context&, const JoinView&)>;

/// Read-only view of a completed continuation's slots, handed to the body.
class JoinView {
 public:
  JoinView(std::span<const std::uint64_t> words, std::span<const Bytes> blobs)
      : words_(words), blobs_(blobs) {}

  std::size_t size() const noexcept { return words_.size(); }
  std::uint64_t word(std::size_t i) const {
    HAL_ASSERT(i < words_.size());
    return words_[i];
  }
  template <typename T>
    requires(std::is_trivially_copyable_v<T> && sizeof(T) <= 8)
  T get(std::size_t i) const {
    T v;
    std::memcpy(&v, &words_[i], sizeof(T));
    return v;
  }
  /// Payload attached to slot i's reply; empty for word-only replies.
  const Bytes& blob(std::size_t i) const {
    static const Bytes kEmpty;
    return i < blobs_.size() ? blobs_[i] : kEmpty;
  }

 private:
  std::span<const std::uint64_t> words_;
  std::span<const Bytes> blobs_;
};

struct JoinContinuation {
  /// Slots at or below this count live in the fixed inline arrays at the
  /// bottom of the record (one word + one blob slot each, no allocation);
  /// wider joins fall back to the spill vectors, paying one heap block per
  /// array. Eight covers the fan-ins the compiler actually emits (tree
  /// reductions join 2, scatter/gather shapes up to 8) so only the
  /// stress-test joins (up to 64 slots) spill.
  static constexpr std::uint32_t kInlineSlots = 8;

  /// Empty slots remaining; the continuation fires when this reaches zero.
  std::uint32_t counter = 0;
  /// Total argument slots (fixed at creation).
  std::uint32_t slot_count = 0;
  /// Node-local by construction: join continuations never cross node
  /// boundaries (only ContRefs do), so holding code here does not violate
  /// the distributed-memory discipline.
  JoinBody function;
  /// The actor which created the continuation (the paper keeps this to
  /// notify the creator of completion when necessary; we also run the body
  /// with the creator as `self`).
  MailAddress creator;
  /// Creation timestamp (join round-trip probe); continuations are
  /// node-local, so creation and completion read the same clock.
  SimTime created_at = 0;

  /// Size the slot arrays for `n` replies (a record as SlotPool::allocate()
  /// hands it out, default or recycled: every slot is empty).
  void init(std::uint32_t n) {
    counter = n;
    slot_count = n;
    if (n > kInlineSlots) {
      spill_words_.assign(n, 0);
      spill_blobs_.resize(n);
    }
  }

  void fill(std::uint32_t slot, std::uint64_t word, Bytes blob) {
    HAL_ASSERT(slot < slot_count);
    HAL_ASSERT(counter > 0);
    words()[slot] = word;
    if (!blob.empty()) {
      has_blobs_ = true;
      blobs()[slot] = std::move(blob);
    }
    --counter;
  }

  bool ready() const noexcept { return counter == 0; }

  std::span<std::uint64_t> words() noexcept {
    return slot_count <= kInlineSlots
               ? std::span(inline_words_.data(), slot_count)
               : std::span(spill_words_);
  }
  /// Reply payload slots (pool-acquired on arrival; the kernel retires them
  /// after the body runs). Empty Bytes = word-only reply; an empty span
  /// until a reply attaches a payload.
  std::span<Bytes> blobs() noexcept {
    if (!has_blobs_) return {};
    return slot_count <= kInlineSlots
               ? std::span(inline_blobs_.data(), slot_count)
               : std::span(spill_blobs_);
  }
  std::span<const Bytes> blobs() const noexcept {
    return const_cast<JoinContinuation*>(this)->blobs();
  }

  JoinView view() const {
    auto* self = const_cast<JoinContinuation*>(this);
    return JoinView(self->words(), self->blobs());
  }

  /// Move what the body reads into `out`, a default record: the body,
  /// creator, stamp and words, and the blobs only if a reply attached one.
  /// The kernel then frees this slot before running the body, because the
  /// body may make joins and growing the pool moves every record.
  void take_fired(JoinContinuation& out) {
    out.function = std::move(function);
    out.creator = creator;
    out.created_at = created_at;
    out.slot_count = slot_count;
    out.has_blobs_ = has_blobs_;
    if (slot_count > kInlineSlots) {
      out.spill_words_ = std::move(spill_words_);
      out.spill_blobs_ = std::move(spill_blobs_);
    } else {
      std::copy_n(inline_words_.begin(), slot_count, out.inline_words_.begin());
      if (has_blobs_) {
        std::move(inline_blobs_.begin(), inline_blobs_.begin() + slot_count,
                  out.inline_blobs_.begin());
      }
    }
  }

  /// Reset to a default record in place, without building a temporary one,
  /// for the slot's next continuation (SlotPool::free). A field added to the
  /// record must be reset here too.
  void recycle() noexcept {
    counter = 0;
    slot_count = 0;
    function.reset();
    creator = MailAddress{};
    created_at = 0;
    if (has_blobs_) {
      for (Bytes& b : inline_blobs_) b = Bytes();
    }
    has_blobs_ = false;
    inline_words_.fill(0);
    spill_words_ = {};
    spill_blobs_ = {};
  }

 private:
  bool has_blobs_ = false;
  std::array<std::uint64_t, kInlineSlots> inline_words_{};
  std::array<Bytes, kInlineSlots> inline_blobs_{};
  std::vector<std::uint64_t> spill_words_;
  std::vector<Bytes> spill_blobs_;
};

}  // namespace hal

// Growable power-of-two ring deque.
//
// The dispatcher's ready structure and every actor's mailbox/pending queue
// are queues that live on a messaging hot path (the dispatcher takes from
// either end; mailboxes and pending queues are FIFO). std::deque pays one
// map-chunk allocation per ~512 bytes of queued data and never returns a
// chunk to a free list, so steady-state messaging churns the allocator even
// when queue depth is bounded. RingDeque keeps elements in one contiguous
// power-of-two array: push/pop are index arithmetic, and once the ring has
// grown to its high-water mark it never allocates again. clear() keeps the
// array, so a recycled actor slot can hand its rings to the next actor
// (ActorRecord::recycle). Indexed access and mid-queue erase (both
// FIFO-order-preserving) support the load balancer's steal scan and the
// pending-queue constraint replay.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace hal {

template <typename T>
class RingDeque {
 public:
  /// Capacity of the first array a ring allocates.
  static constexpr std::size_t kInitialCapacity = 8;

  RingDeque() = default;

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return slots_.size(); }

  void push_back(T value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & mask_] = std::move(value);
    ++size_;
  }

  T& front() {
    HAL_DASSERT(size_ > 0);
    return slots_[head_];
  }
  const T& front() const {
    HAL_DASSERT(size_ > 0);
    return slots_[head_];
  }

  const T& back() const {
    HAL_DASSERT(size_ > 0);
    return slots_[(head_ + size_ - 1) & mask_];
  }

  /// i-th element from the front (0 == front()).
  T& operator[](std::size_t i) {
    HAL_DASSERT(i < size_);
    return slots_[(head_ + i) & mask_];
  }
  const T& operator[](std::size_t i) const {
    HAL_DASSERT(i < size_);
    return slots_[(head_ + i) & mask_];
  }

  /// Drop the front element. The vacated slot keeps the moved-from shell
  /// (callers move the value out first); it is overwritten on reuse.
  void pop_front() {
    HAL_DASSERT(size_ > 0);
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  /// Move the front element out and drop it.
  T take_front() {
    HAL_DASSERT(size_ > 0);
    T value = std::move(slots_[head_]);
    pop_front();
    return value;
  }

  /// Move the back element out and drop it.
  T take_back() {
    HAL_DASSERT(size_ > 0);
    --size_;
    return std::move(slots_[(head_ + size_) & mask_]);
  }

  /// Remove the i-th element, preserving the order of the rest. Shifts the
  /// shorter side of the ring (amortized size/2 moves worst case; O(1) at
  /// either end, which covers the common steal-the-front case).
  void erase_at(std::size_t i) {
    HAL_DASSERT(i < size_);
    if (i < size_ - i - 1) {
      // Shift the front segment up toward the hole.
      for (std::size_t j = i; j > 0; --j) {
        slots_[(head_ + j) & mask_] = std::move(slots_[(head_ + j - 1) & mask_]);
      }
      head_ = (head_ + 1) & mask_;
    } else {
      // Shift the back segment down onto the hole.
      for (std::size_t j = i; j + 1 < size_; ++j) {
        slots_[(head_ + j) & mask_] = std::move(slots_[(head_ + j + 1) & mask_]);
      }
    }
    --size_;
  }

  /// Destroy the live elements, and any buffers they own, keeping the
  /// capacity.
  void clear() noexcept {
    for (std::size_t i = 0; i < size_; ++i) slots_[(head_ + i) & mask_] = T();
    head_ = 0;
    size_ = 0;
  }

 private:
  void grow() {
    const std::size_t new_cap =
        slots_.empty() ? kInitialCapacity : slots_.size() * 2;
    std::vector<T> next(new_cap);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(slots_[(head_ + i) & mask_]);
    }
    slots_.swap(next);
    head_ = 0;
    mask_ = new_cap - 1;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace hal

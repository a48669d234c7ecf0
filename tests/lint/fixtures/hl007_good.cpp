// Fixture: HL007 hal-memory-order-policy (known-good).
//
// The same protocols with their reviewed orders intact: the Vyukov queue's
// acq_rel/release publication and acquire consumption, a relaxed ctor
// init allowed by function-scoped rule, an advisory-listed relaxed load in
// a control decision (MnMachine::maybe_wake_thief), and an all-plain
// single-writer FrameBuilder.
#include <atomic>

namespace fix {

template <typename T>
class MpscQueue {
  HAL_MEMORY_PROTOCOL("mpsc_queue");

 public:
  struct Node {
    std::atomic<Node*> next{nullptr};
    T value;
  };

  MpscQueue() {
    head_.store(&stub_, std::memory_order_relaxed);  // pre-publication
  }

  void push(Node* n) {
    Node* prev = head_.exchange(n, std::memory_order_acq_rel);
    prev->next.store(n, std::memory_order_release);
  }

  Node* pop() { return tail_->next.load(std::memory_order_acquire); }

  bool empty() const {
    return tail_->next.load(std::memory_order_acquire) == nullptr;
  }

 private:
  std::atomic<Node*> head_{nullptr};
  Node* tail_ = nullptr;
  Node stub_;
};

// Advisory reads: the (sleepers_, maybe_wake_thief) pair is allow-listed —
// a stale read only skips an optional wake, never a correctness step.
class MnMachine {
  HAL_MEMORY_PROTOCOL("mn_scheduler");

 public:
  void maybe_wake_thief() {
    if (sleepers_.load(std::memory_order_relaxed) == 0) {
      return;
    }
    wake_epoch_.fetch_add(1);
  }

 private:
  std::atomic<int> sleepers_{0};
  std::atomic<std::uint64_t> wake_epoch_{0};
};

// Single-writer: plain fields, no orders anywhere.
class FrameBuilder {
  HAL_MEMORY_PROTOCOL("frame_deadlines");

 public:
  void add(std::uint64_t now) {
    if (count_ == 0) deadline_ = now + holdoff_;
    ++count_;
  }

 private:
  std::uint32_t count_ = 0;
  std::uint64_t deadline_ = 0;
  std::uint64_t holdoff_ = 0;
};

}  // namespace fix

// Fixture: HL007 hal-memory-order-policy (known-bad).
//
// A miniature MpscQueue whose publication edges were downgraded: each bad
// access violates the allow table at the call site AND deletes the edge
// the policy's require rules pin to the function, so the function head
// is flagged too. Plus the drift cases (unknown policy name, marker
// dropped from a policy class) and a single-writer breach.
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

  // Downgraded publication: exchange lost its release half, the next
  // pointer store is no longer a release.
  void push(Node* n) {  // EXPECT: hal-memory-order-policy
    Node* prev = head_.exchange(n, std::memory_order_acquire);  // EXPECT: hal-memory-order-policy
    prev->next.store(n, std::memory_order_relaxed);  // EXPECT: hal-memory-order-policy
  }

  // Downgraded consumption edge.
  Node* pop() {  // EXPECT: hal-memory-order-policy
    return tail_->next.load(std::memory_order_relaxed);  // EXPECT: hal-memory-order-policy
  }

  // Correct (and required): acquire read of the published next pointer.
  bool empty() const {
    return tail_->next.load(std::memory_order_acquire) == nullptr;
  }

  // These protocols model ordering as access orders (TSan-visible), never
  // as fences.
  void fence_creep() {
    std::atomic_thread_fence(std::memory_order_seq_cst);  // EXPECT: hal-memory-order-policy
  }

 private:
  std::atomic<Node*> head_{nullptr};
  Node* tail_ = nullptr;
};

// A relaxed load feeding a control decision without an advisory entry:
// search() may read searchers_ relaxed, but only maybe_wake_thief's reads
// are advisory-listed.
class MnMachine {
  HAL_MEMORY_PROTOCOL("mn_scheduler");

 public:
  bool search() {
    if (searchers_.load(std::memory_order_relaxed) != 0) {  // EXPECT: hal-memory-order-policy
      return false;
    }
    return true;
  }

 private:
  std::atomic<std::uint32_t> searchers_{0};
};

// Marker naming a policy that does not exist in the table.
class Mystery {
  HAL_MEMORY_PROTOCOL("no_such_protocol");  // EXPECT: hal-memory-order-policy
};

// A policy class that lost its marker: the table still knows ws_deque is
// checked, so the drift is reported at the class head.
class WsDeque {  // EXPECT: hal-memory-order-policy
 public:
  void push_bottom(int* item);
};

// Single-writer protocol: atomics (and orders) are design breaches here.
class FrameBuilder {
  HAL_MEMORY_PROTOCOL("frame_deadlines");

 public:
  void add() {
    count_.store(1, std::memory_order_release);  // EXPECT: hal-memory-order-policy
  }

 private:
  std::atomic<std::uint32_t> count_{0};  // EXPECT: hal-memory-order-policy
};

}  // namespace fix

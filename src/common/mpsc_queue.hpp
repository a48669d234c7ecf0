// Unbounded multi-producer single-consumer queue (Vyukov's algorithm).
//
// Each node's network endpoint on MnMachine is an MpscQueue<Packet> that
// remote nodes push into and only the node's current execution stream pops
// from — matching the paper's model where the network interface delivers
// into a node and the node manager drains it.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/atomic_policy.hpp"
#include "common/lint_markers.hpp"

namespace hal {

/// `Policy` supplies the atomic cells (common/atomic_policy.hpp): the
/// default `StdAtomics` is production `std::atomic`; hal-mc instantiates
/// the same code with instrumented model atomics to explore interleavings.
template <typename T, typename Policy = StdAtomics>
class MpscQueue {
  // Memory-order contract checked by hal-lint HL007 (docs/linting.md):
  // push = head_.exchange(acq_rel) + next.store(release); pop/empty =
  // next.load(acquire). Producers write only head_ and their own node;
  // the consumer writes only tail_.
  HAL_MEMORY_PROTOCOL("mpsc_queue");

  // pop() moves out of next->value before advancing tail_; if that move
  // could throw, the element would be lost while still linked and the queue
  // state would be ambiguous to the caller. Packet (vector + scalars) is
  // nothrow-move-constructible, as any payload type here must be.
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "MpscQueue requires a nothrow-move-constructible T");

 public:
  MpscQueue() {
    Node* stub = new Node{};
    head_.store(stub, std::memory_order_relaxed);
    tail_ = stub;
  }

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  // Destruction is a consumer-side operation: no producer may push
  // concurrently (MnMachine::run joins every worker thread before it
  // returns). Drains remaining elements, then frees the stub.
  ~MpscQueue() {
    while (pop().has_value()) {
    }
    delete tail_;
  }

  /// Push from any thread. Wait-free except for the allocation.
  void push(T value) {
    Node* node = new Node{std::move(value)};
    Node* prev = head_.exchange(node, std::memory_order_acq_rel);
    prev->next.store(node, std::memory_order_release);
  }

  /// Pop from the single consumer thread only.
  std::optional<T> pop() {
    Node* tail = tail_;
    Node* next = tail->next.load(std::memory_order_acquire);
    if (next == nullptr) return std::nullopt;
    std::optional<T> out(std::move(next->value));
    tail_ = next;
    delete tail;
    return out;
  }

  /// Approximate emptiness check: exact from the consumer's perspective when
  /// it returns false. When it returns true the queue may in fact hold
  /// elements — not just from the obvious race with an in-flight push, but
  /// because a COMPLETED push can be transiently unreachable behind another
  /// producer's half-finished one (head_ already swung, prev->next not yet
  /// stored). A consumer that parks on "empty" must therefore re-arm its
  /// wakeup flag before every check, so the producer that closes the gap
  /// re-notifies — see the proof in am/park_handshake.hpp.
  bool empty() const {
    return tail_->next.load(std::memory_order_acquire) == nullptr;
  }

 private:
  template <typename U>
  using Atomic = typename Policy::template Atomic<U>;

  struct Node {
    T value{};
    Atomic<Node*> next{nullptr};
  };

  alignas(64) Atomic<Node*> head_;  // producers CAS here
  alignas(64) Node* tail_;          // consumer-private
};

}  // namespace hal

// Pins the Vyukov MPSC queue's *transient-miss* semantics: empty() may
// report true while a COMPLETED push is already in the queue, whenever
// that push is chained behind another producer's half-finished one. This
// is not a bug — it is the documented weakness the park handshake is
// built around: its proof in am/park_handshake.hpp (and hal-lint HL006)
// requires the consumer to re-arm its `sleeping` flag with a seq_cst
// exchange before EVERY empty() re-check, so the producer that eventually
// closes the gap observes the armed flag and notifies. If this test ever starts failing
// because empty() became exact, that proof (and the re-arm requirement)
// should be revisited together.
#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/mpsc_queue.hpp"

namespace {

// A step-wise model of the same algorithm (same members, same orders) so a
// single thread can hold a push half-done: phase 1 swings head_ to the new
// node, phase 2 links the predecessor. Between the two phases every node
// behind the new head — including fully pushed ones — is unreachable from
// tail_.
struct ModelNode {
  std::atomic<ModelNode*> next{nullptr};
  int value = 0;
};

struct ModelQueue {
  ModelNode stub;
  std::atomic<ModelNode*> head{&stub};
  ModelNode* tail = &stub;

  ModelNode* push_phase1(ModelNode* n) {
    return head.exchange(n, std::memory_order_acq_rel);
  }
  static void push_phase2(ModelNode* prev, ModelNode* n) {
    prev->next.store(n, std::memory_order_release);
  }
  void push(ModelNode* n) { push_phase2(push_phase1(n), n); }

  bool empty() const {
    return tail->next.load(std::memory_order_acquire) == nullptr;
  }
  ModelNode* pop() {
    ModelNode* next = tail->next.load(std::memory_order_acquire);
    if (next == nullptr) return nullptr;
    tail = next;
    return next;
  }
};

TEST(MpscSemantics, CompletedPushHiddenBehindHalfFinishedPush) {
  ModelQueue q;
  ModelNode a{.value = 1};
  ModelNode b{.value = 2};

  // Producer A starts: head_ now points at `a`, but the stub's next
  // pointer is not written yet.
  ModelNode* prev_a = q.push_phase1(&a);
  EXPECT_EQ(prev_a, &q.stub);

  // Producer B runs a COMPLETE push: both phases. Its node is fully
  // published — hanging off `a`, which tail_ cannot reach.
  q.push(&b);

  // The consumer's view: the queue claims empty and pop() agrees, even
  // though B's push finished. Exactly the window in which a parked node
  // must have re-armed `sleeping` so A's phase-2 producer-side exchange
  // observes it and notifies.
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pop(), nullptr);

  // A closes the gap; the whole chain becomes visible in FIFO order.
  ModelQueue::push_phase2(prev_a, &a);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.pop(), &a);
  EXPECT_EQ(q.pop(), &b);
  EXPECT_TRUE(q.empty());
}

TEST(MpscSemantics, RealQueueBasicFifoAndEmptyTransitions) {
  hal::MpscQueue<int> q;
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pop().has_value());
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pop().has_value());
}

TEST(MpscSemantics, TwoProducersPreservePerProducerOrder) {
  constexpr int kPerProducer = 2000;
  hal::MpscQueue<int> q;
  // Producer p tags values with p's sign: order must hold within each.
  std::thread prod_a([&] {
    for (int i = 1; i <= kPerProducer; ++i) q.push(i);
  });
  std::thread prod_b([&] {
    for (int i = 1; i <= kPerProducer; ++i) q.push(-i);
  });
  int last_a = 0;
  int last_b = 0;
  int drained = 0;
  while (drained < 2 * kPerProducer) {
    // A transiently-missed pop is legal (see the model test above): the
    // consumer simply retries, exactly like a woken node re-checking its
    // mailbox.
    std::optional<int> v = q.pop();
    if (!v.has_value()) continue;
    ++drained;
    if (*v > 0) {
      EXPECT_EQ(*v, last_a + 1);
      last_a = *v;
    } else {
      EXPECT_EQ(*v, last_b - 1);
      last_b = *v;
    }
  }
  prod_a.join();
  prod_b.join();
  EXPECT_EQ(last_a, kPerProducer);
  EXPECT_EQ(last_b, -kPerProducer);
  EXPECT_TRUE(q.empty());
}

}  // namespace

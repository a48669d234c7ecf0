// Message-path fast-path units: the compact body wire format (no length
// word, zero bytes for arg-only messages), the empty-payload flag bit of the
// full encoding, BufferPool recycling semantics, and the RingDeque /
// Dispatcher ring including growth and steals across index wraparound.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "common/buffer_pool.hpp"
#include "common/ring_buffer.hpp"
#include "runtime/api.hpp"

namespace hal {
namespace {

Message sample_message(std::uint8_t argc, std::size_t payload_len) {
  Message m;
  m.dest.home = 3;
  m.dest.desc = SlotId{42, 7};
  m.selector = 5;
  m.cont.node = 1;
  m.cont.jc = SlotId{9, 2};
  m.cont.slot = 1;
  m.argc = argc;
  for (std::uint8_t i = 0; i < argc; ++i) m.args[i] = 0x1111U * (i + 1U);
  m.payload.resize(payload_len);
  for (std::size_t i = 0; i < payload_len; ++i) {
    m.payload[i] = static_cast<std::byte>(i & 0xffU);
  }
  return m;
}

void expect_same_content(const Message& a, const Message& b) {
  EXPECT_EQ(a.dest, b.dest);
  EXPECT_EQ(a.selector, b.selector);
  EXPECT_EQ(a.cont, b.cont);
  ASSERT_EQ(a.argc, b.argc);
  for (std::uint8_t i = 0; i < a.argc; ++i) EXPECT_EQ(a.args[i], b.args[i]);
  EXPECT_EQ(a.payload, b.payload);
}

// --- Body wire format -----------------------------------------------------------

TEST(MessageBody, InlineOnlyCostsArgWordsAndNothingElse) {
  const Message m = sample_message(3, 0);
  // No length word: an arg-only body is exactly the argument words.
  EXPECT_EQ(m.body_bytes(), 3 * sizeof(std::uint64_t));
  const Bytes body = m.encode_body();
  ASSERT_EQ(body.size(), m.body_bytes());

  Message d;
  d.argc = m.argc;  // travels in the packet header word
  d.decode_body(body);
  for (std::uint8_t i = 0; i < 3; ++i) EXPECT_EQ(d.args[i], m.args[i]);
  EXPECT_TRUE(d.payload.empty());
}

TEST(MessageBody, EmptyMessageIsZeroWireBytes) {
  const Message m = sample_message(0, 0);
  EXPECT_EQ(m.body_bytes(), 0u);
  EXPECT_TRUE(m.encode_body().empty());
}

TEST(MessageBody, PayloadIsTheRemainderPastTheArgWords) {
  const Message m = sample_message(2, 100);
  EXPECT_EQ(m.body_bytes(), 2 * sizeof(std::uint64_t) + 100);
  const Bytes body = m.encode_body();

  BufferPool pool;
  Message d;
  d.argc = m.argc;
  d.decode_body(body, &pool);
  EXPECT_EQ(d.args[0], m.args[0]);
  EXPECT_EQ(d.args[1], m.args[1]);
  EXPECT_EQ(d.payload, m.payload);
}

TEST(MessageBody, EncodeIntoPooledBufferDoesNotShrinkCapacity) {
  BufferPool pool;
  Bytes buf = pool.reserve(64);
  const std::size_t cap = buf.capacity();
  const Message m = sample_message(4, 0);
  m.encode_body_into(buf);
  EXPECT_EQ(buf.size(), m.body_bytes());
  EXPECT_GE(buf.capacity(), cap);  // resize within capacity, no realloc
}

// --- Full encoding: the spare argc flag bit -------------------------------------

TEST(MessageFull, EmptyPayloadWritesNoPayloadBlock) {
  const Message m = sample_message(2, 0);
  ByteWriter w;
  m.encode_full(w);
  const Bytes wire = std::move(w).take();
  ASSERT_EQ(wire.size(), m.full_bytes());

  // The argc byte sits after dest (2 words), selector, cont (2 words); the
  // flag bit must be clear for an empty payload.
  const std::size_t argc_off = 4 * sizeof(std::uint64_t) + sizeof(Selector);
  const auto argc_byte = static_cast<std::uint8_t>(wire[argc_off]);
  EXPECT_EQ(argc_byte & kArgcPayloadFlag, 0);
  EXPECT_EQ(argc_byte, 2);

  ByteReader r(wire);
  const Message d = Message::decode_full(r);
  EXPECT_TRUE(r.exhausted());
  expect_same_content(m, d);
}

TEST(MessageFull, PayloadPresenceRidesTheFlagBit) {
  const Message m = sample_message(1, 33);
  ByteWriter w;
  m.encode_full(w);
  const Bytes wire = std::move(w).take();
  ASSERT_EQ(wire.size(), m.full_bytes());

  const std::size_t argc_off = 4 * sizeof(std::uint64_t) + sizeof(Selector);
  const auto argc_byte = static_cast<std::uint8_t>(wire[argc_off]);
  EXPECT_NE(argc_byte & kArgcPayloadFlag, 0);
  EXPECT_EQ(argc_byte & ~kArgcPayloadFlag, 1);

  BufferPool pool;
  ByteReader r(wire);
  const Message d = Message::decode_full(r, &pool);
  EXPECT_TRUE(r.exhausted());
  expect_same_content(m, d);
}

TEST(MessageFull, EmptyPayloadSavesTheLengthWord) {
  Message with = sample_message(2, 8);
  Message without = sample_message(2, 0);
  // The only difference is the payload block: length word + bytes.
  EXPECT_EQ(with.full_bytes() - without.full_bytes(),
            sizeof(std::uint64_t) + 8);
}

TEST(MessageFull, StreamsConcatenate) {
  // Migration serializes whole mailboxes back to back; decoding must consume
  // exactly one message per call.
  const Message a = sample_message(0, 0);
  const Message b = sample_message(3, 17);
  ByteWriter w;
  a.encode_full(w);
  b.encode_full(w);
  const Bytes wire = std::move(w).take();
  ByteReader r(wire);
  expect_same_content(a, Message::decode_full(r));
  expect_same_content(b, Message::decode_full(r));
  EXPECT_TRUE(r.exhausted());
}

TEST(MessageClone, CloneUsingPoolCopiesPayload) {
  BufferPool pool;
  const Message m = sample_message(2, 50);
  const Message c = m.clone_using(pool);
  expect_same_content(m, c);
  EXPECT_NE(c.payload.data(), m.payload.data());  // distinct buffers
}

// --- BufferPool -----------------------------------------------------------------

TEST(BufferPoolTest, AcquireReleaseAcquireRecycles) {
  BufferPool pool;
  Bytes b = pool.acquire(48);
  EXPECT_EQ(b.size(), 48u);
  EXPECT_GE(b.capacity(), 64u);  // rounded up to the class capacity
  EXPECT_EQ(pool.misses(), 1u);
  const std::byte* data = b.data();

  pool.release(std::move(b));
  EXPECT_EQ(pool.returns(), 1u);
  EXPECT_EQ(pool.idle_buffers(), 1u);

  Bytes b2 = pool.acquire(64);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(b2.data(), data);  // same allocation came back
  EXPECT_EQ(pool.idle_buffers(), 0u);
}

TEST(BufferPoolTest, ReleaseClassifiesByCapacity) {
  BufferPool pool;
  // A 512-capacity buffer must serve a later 512-byte request without
  // reallocating (released into the 512 class, not the 64 class).
  Bytes big = pool.acquire(512);
  const std::byte* data = big.data();
  pool.release(std::move(big));
  Bytes again = pool.acquire(512);
  EXPECT_EQ(again.data(), data);
}

TEST(BufferPoolTest, UselessBuffersAreDropped) {
  BufferPool pool;
  pool.release(Bytes{});  // moved-from shell: nothing worth keeping
  Bytes tiny;
  tiny.reserve(8);
  pool.release(std::move(tiny));
  Bytes huge;
  huge.reserve(3 * BufferPool::kClassBytes.back());  // oversized one-off
  pool.release(std::move(huge));
  EXPECT_EQ(pool.idle_buffers(), 0u);
  EXPECT_EQ(pool.returns(), 0u);
}

TEST(BufferPoolTest, FreeListsAreBounded) {
  BufferPool pool;
  std::vector<Bytes> held;
  for (std::size_t i = 0; i < BufferPool::kMaxFreePerClass + 10; ++i) {
    held.push_back(pool.acquire(64));
  }
  for (Bytes& b : held) pool.release(std::move(b));
  EXPECT_EQ(pool.idle_buffers(), BufferPool::kMaxFreePerClass);
}

TEST(BufferPoolTest, SteadyStateLoopNeverMisses) {
  BufferPool pool;
  Bytes warm = pool.acquire(100);
  pool.release(std::move(warm));
  const std::uint64_t misses = pool.misses();
  for (int i = 0; i < 1000; ++i) {
    Bytes b = pool.acquire(100);
    pool.release(std::move(b));
  }
  EXPECT_EQ(pool.misses(), misses);
  EXPECT_EQ(pool.hits(), 1000u);
}

// --- RingDeque ------------------------------------------------------------------

TEST(RingDequeTest, FifoAcrossGrowthAndWraparound) {
  RingDeque<int> q;
  int next_in = 0;
  int next_out = 0;
  // Interleaved push/pop keeps the head rotating so growth happens with a
  // wrapped ring; contents must stay FIFO throughout.
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 5 + round * 7; ++i) q.push_back(next_in++);
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(q.take_front(), next_out);
      ++next_out;
    }
  }
  while (!q.empty()) {
    ASSERT_EQ(q.take_front(), next_out);
    ++next_out;
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(RingDequeTest, IndexedAccessFollowsTheHead) {
  RingDeque<int> q;
  for (int i = 0; i < 8; ++i) q.push_back(i);  // fill to capacity
  q.pop_front();
  q.pop_front();
  q.push_back(8);
  q.push_back(9);  // physically wrapped now
  ASSERT_EQ(q.size(), 8u);
  for (std::size_t i = 0; i < q.size(); ++i) {
    EXPECT_EQ(q[i], static_cast<int>(i) + 2);
  }
}

TEST(RingDequeTest, TakeBackAcrossGrowthAndWraparound) {
  RingDeque<int> q;
  // Rotate the head so the live region wraps, then grow while wrapped; the
  // back end must stay the last pushed element through both.
  for (int i = 0; i < 8; ++i) q.push_back(i);
  for (int i = 0; i < 6; ++i) q.pop_front();
  for (int i = 8; i < 14; ++i) q.push_back(i);  // wraps: slots 6,7,0..5
  ASSERT_EQ(q.capacity(), 8u);
  EXPECT_EQ(q.back(), 13);
  EXPECT_EQ(q.take_back(), 13);
  EXPECT_EQ(q.take_back(), 12);
  for (int i = 14; i < 30; ++i) q.push_back(i);  // grows from a wrapped ring
  EXPECT_GT(q.capacity(), 8u);
  for (int i = 29; i >= 14; --i) ASSERT_EQ(q.take_back(), i);
  // Front and back both drain what is left, in their own orders.
  EXPECT_EQ(q.take_front(), 6);
  EXPECT_EQ(q.take_back(), 11);
  const int expect[] = {7, 8, 9, 10};
  ASSERT_EQ(q.size(), 4u);
  for (std::size_t i = 0; i < q.size(); ++i) EXPECT_EQ(q[i], expect[i]);
}

TEST(RingDequeTest, EraseAtPreservesOrderOnBothSides) {
  RingDeque<int> q;
  for (int i = 0; i < 10; ++i) q.push_back(i);
  q.erase_at(1);  // near the front: shifts the front segment
  q.erase_at(7);  // near the back (element 8): shifts the back segment
  const int expect[] = {0, 2, 3, 4, 5, 6, 7, 9};
  ASSERT_EQ(q.size(), 8u);
  for (std::size_t i = 0; i < q.size(); ++i) EXPECT_EQ(q[i], expect[i]);
}

TEST(RingDequeTest, ClearDestroysLiveElementsKeepsCapacity) {
  const auto token = std::make_shared<int>(7);
  RingDeque<std::shared_ptr<int>> q;
  for (int i = 0; i < 12; ++i) q.push_back(token);
  for (int i = 0; i < 6; ++i) (void)q.take_front();
  for (int i = 0; i < 6; ++i) q.push_back(token);  // live region wraps
  ASSERT_EQ(q.size(), 12u);
  ASSERT_EQ(token.use_count(), 1 + 12);
  const std::size_t cap = q.capacity();
  ASSERT_EQ(cap, 16u);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), cap);
  EXPECT_EQ(token.use_count(), 1);  // no live element left in a slot
  for (int i = 0; i < 3; ++i) q.push_back(std::make_shared<int>(i));
  EXPECT_EQ(q.capacity(), cap);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(*q.take_front(), i);
}

// --- Dispatcher ring ------------------------------------------------------------

TEST(DispatcherRing, SurvivesGrowthWithQueuedQuanta) {
  Dispatcher d;
  // Far past the initial ring capacity, alternating item kinds so quantum
  // message slots allocate and free out of order with the ring.
  for (std::uint32_t i = 0; i < 100; ++i) {
    d.schedule_actor(SlotId{i, 1});
    Message m;
    m.selector = i;
    m.payload.resize(16);
    d.schedule_quantum(GroupId{0, i}, std::move(m));
  }
  ASSERT_EQ(d.size(), 200u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    auto a = d.next();
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->kind, Dispatcher::Item::Kind::kActor);
    EXPECT_EQ(a->actor.index, i);
    auto qm = d.next();
    ASSERT_TRUE(qm.has_value());
    EXPECT_EQ(qm->kind, Dispatcher::Item::Kind::kQuantum);
    Message m = d.take_message(*qm);
    EXPECT_EQ(m.selector, i);
    EXPECT_EQ(m.payload.size(), 16u);
  }
  EXPECT_FALSE(d.next().has_value());
}

TEST(DispatcherRing, StealScansAcrossWraparound) {
  Dispatcher d;
  // Rotate the ring so the live region physically wraps: fill, drain most,
  // then refill past the old tail.
  for (std::uint32_t i = 0; i < 8; ++i) d.schedule_actor(SlotId{i, 1});
  for (int i = 0; i < 6; ++i) (void)d.next();
  for (std::uint32_t i = 8; i < 13; ++i) d.schedule_actor(SlotId{i, 1});
  ASSERT_EQ(d.size(), 7u);  // indices 6..12, wrapped in an 8-slot ring

  // Steal a victim that lives past the physical wrap point.
  auto stolen = d.steal_if([](SlotId s) { return s.index == 10; });
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(stolen->index, 10u);

  // FIFO order of the survivors is intact.
  const std::uint32_t expect[] = {6, 7, 8, 9, 11, 12};
  for (const std::uint32_t idx : expect) {
    auto item = d.next();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(item->actor.index, idx);
  }
  EXPECT_FALSE(d.next().has_value());
}

TEST(DispatcherRing, StealSkipsQuantumItems) {
  Dispatcher d;
  Message m;
  m.selector = 1;
  d.schedule_quantum(GroupId{0, 1}, std::move(m));
  // Only actor items are stealable; a quantum-only queue yields nothing.
  EXPECT_FALSE(d.steal_if([](SlotId) { return true; }).has_value());
  EXPECT_EQ(d.size(), 1u);
}

}  // namespace
}  // namespace hal

// Unit tests: common utilities (slot pool, MPSC queue, RNG, hashing, bytes).
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "common/bytes.hpp"
#include "common/hash.hpp"
#include "common/mpsc_queue.hpp"
#include "common/rng.hpp"
#include "common/slot_pool.hpp"

namespace hal {
namespace {

// --- SlotPool -----------------------------------------------------------------

TEST(SlotPool, AllocateGetFree) {
  SlotPool<int> pool;
  const SlotId a = pool.allocate(41);
  const SlotId b = pool.allocate(42);
  EXPECT_EQ(pool.get(a), 41);
  EXPECT_EQ(pool.get(b), 42);
  EXPECT_EQ(pool.size(), 2u);
  pool.free(a);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.try_get(a), nullptr);
  EXPECT_NE(pool.try_get(b), nullptr);
}

TEST(SlotPool, GenerationDetectsRecycledSlot) {
  SlotPool<int> pool;
  const SlotId a = pool.allocate(1);
  pool.free(a);
  const SlotId b = pool.allocate(2);
  // Same physical slot, new generation.
  EXPECT_EQ(a.index, b.index);
  EXPECT_NE(a.gen, b.gen);
  EXPECT_EQ(pool.try_get(a), nullptr);
  EXPECT_EQ(*pool.try_get(b), 2);
}

TEST(SlotPool, InvalidIdIsNull) {
  SlotPool<int> pool;
  EXPECT_EQ(pool.try_get(SlotId{}), nullptr);
  EXPECT_FALSE(SlotId{}.valid());
}

TEST(SlotPool, PackUnpackRoundTrip) {
  const SlotId id{12345, 678};
  EXPECT_EQ(SlotId::unpack(id.pack()), id);
}

TEST(SlotPool, ForEachVisitsLiveOnly) {
  SlotPool<int> pool;
  const SlotId a = pool.allocate(1);
  pool.allocate(2);
  pool.free(a);
  int sum = 0;
  pool.for_each([&](SlotId, int& v) { sum += v; });
  EXPECT_EQ(sum, 2);
}

/// Keeps its buffer's capacity across occupants; everything else resets.
struct Recyclable {
  std::vector<int> kept;
  int value = 0;
  void recycle() {
    kept.clear();
    value = 0;
  }
};

/// No recycle(): the pool resets it by assigning a default value.
struct Plain {
  std::vector<int> data;
  int value = 0;
};

TEST(SlotPoolTest, NoArgAllocateReusesRecycledState) {
  SlotPool<Recyclable> recycling;
  const SlotId a = recycling.allocate();
  recycling.get(a).kept.assign(100, 1);
  recycling.get(a).value = 5;
  const std::size_t cap = recycling.get(a).kept.capacity();
  recycling.free(a);
  const SlotId b = recycling.allocate();
  EXPECT_EQ(b.index, a.index);
  EXPECT_NE(b.gen, a.gen);  // generations still bump
  EXPECT_EQ(recycling.try_get(a), nullptr);
  const Recyclable& rb = recycling.get(b);
  EXPECT_TRUE(rb.kept.empty());
  EXPECT_EQ(rb.kept.capacity(), cap);  // what recycle() keeps, it keeps
  EXPECT_EQ(rb.value, 0);

  SlotPool<Plain> plain;
  const SlotId c = plain.allocate();
  plain.get(c).data.assign(100, 1);
  plain.get(c).value = 5;
  plain.free(c);
  const SlotId d = plain.allocate();
  EXPECT_EQ(d.index, c.index);
  EXPECT_NE(d.gen, c.gen);
  EXPECT_EQ(plain.try_get(c), nullptr);
  // Reads as T(): the old buffer is gone, not just emptied.
  EXPECT_TRUE(plain.get(d).data.empty());
  EXPECT_EQ(plain.get(d).data.capacity(), 0u);
  EXPECT_EQ(plain.get(d).value, 0);
}

TEST(SlotPool, ExhaustedGenerationIsRetired) {
  using Pool = SlotPool<int>;
  Pool pool;
  const SlotId first = pool.allocate(1);
  pool.free(first);
  pool.preseed_generation_for_test(first.index, Pool::kLastGen - 1);
  const SlotId last = pool.allocate(2);
  EXPECT_EQ(last.index, first.index);
  EXPECT_EQ(last.gen, Pool::kLastGen);
  pool.free(last);
  EXPECT_EQ(pool.size(), 0u);
  // The slot is retired, not wrapped to generation 1: the next allocation
  // takes a new slot, and no id the old slot issued resolves again.
  const SlotId next = pool.allocate(3);
  EXPECT_NE(next.index, last.index);
  EXPECT_EQ(pool.capacity(), 2u);
  EXPECT_EQ(pool.try_get(first), nullptr);
  EXPECT_EQ(pool.try_get(last), nullptr);
  EXPECT_TRUE(pool.issued(first));
  EXPECT_TRUE(pool.issued(last));
  // Later reuse keeps away from the retired slot.
  pool.free(next);
  EXPECT_EQ(pool.allocate(4).index, next.index);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(SlotPool, IssuedTellsFreedIdsFromForgedOnes) {
  SlotPool<int> pool;
  const SlotId a = pool.allocate(1);
  pool.free(a);
  const SlotId b = pool.allocate(2);
  EXPECT_TRUE(pool.issued(a));  // freed, once handed out
  EXPECT_TRUE(pool.issued(b));  // live
  EXPECT_FALSE(pool.issued(SlotId{b.index, b.gen + 1}));  // not yet issued
  EXPECT_FALSE(pool.issued(SlotId{b.index + 1, 1}));      // no such slot
  EXPECT_FALSE(pool.issued(SlotId{}));                    // invalid
}

TEST(SlotPool, StressReuse) {
  SlotPool<std::uint64_t> pool;
  std::vector<SlotId> ids;
  Xoshiro256 rng(7);
  for (int round = 0; round < 2000; ++round) {
    if (!ids.empty() && rng.below(2) == 0) {
      const auto i = rng.below(ids.size());
      pool.free(ids[i]);
      ids[i] = ids.back();
      ids.pop_back();
    } else {
      ids.push_back(pool.allocate(rng()));
    }
    ASSERT_EQ(pool.size(), ids.size());
  }
  for (const SlotId id : ids) EXPECT_NE(pool.try_get(id), nullptr);
}

// --- MpscQueue -----------------------------------------------------------------

TEST(MpscQueue, FifoSingleProducer) {
  MpscQueue<int> q;
  for (int i = 0; i < 100; ++i) q.push(i);
  for (int i = 0; i < 100; ++i) {
    auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.pop().has_value());
}

TEST(MpscQueue, EmptyInitially) {
  MpscQueue<int> q;
  EXPECT_TRUE(q.empty());
  q.push(1);
  EXPECT_FALSE(q.empty());
}

TEST(MpscQueue, MultiProducerDeliversAll) {
  MpscQueue<std::uint64_t> q;
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPer = 5000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (std::uint64_t i = 0; i < kPer; ++i) {
        q.push(static_cast<std::uint64_t>(p) * kPer + i);
      }
    });
  }
  for (auto& t : producers) t.join();
  std::set<std::uint64_t> seen;
  while (auto v = q.pop()) seen.insert(*v);
  EXPECT_EQ(seen.size(), kProducers * kPer);
}

TEST(MpscQueue, MoveOnlyPayload) {
  MpscQueue<std::unique_ptr<int>> q;
  q.push(std::make_unique<int>(5));
  auto v = q.pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 5);
}

// --- RNG -------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Xoshiro256 a(42), b(42), c(43);
  bool all_equal_c = true;
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    if (va != c()) all_equal_c = false;
  }
  EXPECT_FALSE(all_equal_c);
}

TEST(Rng, BelowInRange) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(7), 7u);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Xoshiro256 rng(2);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(3);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

// --- Hashing ---------------------------------------------------------------------

TEST(Hash, Mix64Avalanche) {
  // Flipping one input bit should flip roughly half the output bits.
  int total = 0;
  for (int bit = 0; bit < 64; ++bit) {
    const std::uint64_t a = mix64(0x1234567890abcdefULL);
    const std::uint64_t b = mix64(0x1234567890abcdefULL ^ (1ULL << bit));
    total += std::popcount(a ^ b);
  }
  EXPECT_GT(total / 64, 20);
  EXPECT_LT(total / 64, 44);
}

TEST(Hash, Fnv1aDiffersOnContent) {
  EXPECT_NE(fnv1a("abc", 3), fnv1a("abd", 3));
  EXPECT_EQ(fnv1a("abc", 3), fnv1a("abc", 3));
}

// --- Bytes (serialization) ---------------------------------------------------------

TEST(Bytes, ScalarRoundTrip) {
  ByteWriter w;
  w.write<std::uint32_t>(7);
  w.write<double>(3.25);
  w.write<std::uint8_t>(255);
  const Bytes buf = std::move(w).take();
  ByteReader r(buf);
  EXPECT_EQ(r.read<std::uint32_t>(), 7u);
  EXPECT_EQ(r.read<double>(), 3.25);
  EXPECT_EQ(r.read<std::uint8_t>(), 255);
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, NestedByteRanges) {
  ByteWriter inner;
  inner.write<int>(99);
  ByteWriter w;
  w.write_bytes(std::move(inner).take());
  w.write_string("hello");
  const Bytes buf = std::move(w).take();
  ByteReader r(buf);
  ByteReader ir(r.read_bytes());
  EXPECT_EQ(ir.read<int>(), 99);
  EXPECT_EQ(r.read_string(), "hello");
}

TEST(Bytes, VectorRoundTrip) {
  std::vector<double> v{1.0, 2.5, -3.0};
  ByteWriter w;
  w.write_span<double>(v);
  const Bytes buf = std::move(w).take();
  ByteReader r(buf);
  EXPECT_EQ(r.read_vector<double>(), v);
}

}  // namespace
}  // namespace hal

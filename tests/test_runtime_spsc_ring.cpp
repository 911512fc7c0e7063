// SpscRing semantics over the shadow evaluator's entry type: bounded
// single-producer/single-consumer, FIFO across wraparound, exact drop
// accounting, and order under a concurrent producer/consumer hammer (a
// TSan target).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "runtime/spsc_ring.hpp"

namespace icgmm {
namespace {

using runtime::ShadowAccessEntry;
using runtime::ShadowRing;

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(ShadowRing(0).capacity(), 2u);
  EXPECT_EQ(ShadowRing(1).capacity(), 2u);
  EXPECT_EQ(ShadowRing(3).capacity(), 4u);
  EXPECT_EQ(ShadowRing(8).capacity(), 8u);
  EXPECT_EQ(ShadowRing(1000).capacity(), 1024u);
}

TEST(SpscRing, FifoOrderAcrossWraparound) {
  ShadowRing ring(4);
  ShadowAccessEntry out[8];
  for (std::uint64_t round = 0; round < 5; ++round) {
    // Interleave partial pushes and pops so head/tail lap the buffer.
    for (std::uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(ring.try_push({.page = round * 10 + i, .timestamp = i}));
    }
    ASSERT_EQ(ring.pop_batch({out, 8}), 3u);
    for (std::uint64_t i = 0; i < 3; ++i) {
      EXPECT_EQ(out[i].page, round * 10 + i);
      EXPECT_EQ(out[i].timestamp, i);
    }
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.pushed(), 15u);
  EXPECT_EQ(ring.popped(), 15u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(SpscRing, FullRingDropsAndCounts) {
  ShadowRing ring(4);
  for (std::uint64_t i = 0; i < 7; ++i) {
    const bool ok = ring.try_push({.page = i, .timestamp = 0});
    EXPECT_EQ(ok, i < 4) << "push " << i;
  }
  EXPECT_EQ(ring.pushed(), 4u);
  EXPECT_EQ(ring.dropped(), 3u);

  ShadowAccessEntry out[8];
  ASSERT_EQ(ring.pop_batch({out, 8}), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(out[i].page, i);
  EXPECT_EQ(ring.pop_batch({out, 8}), 0u);  // empty pop is a no-op
  // Space freed: pushes are accepted again.
  EXPECT_TRUE(ring.try_push({.page = 99, .timestamp = 1}));
  EXPECT_EQ(ring.pushed(), 5u);
}

TEST(SpscRingConcurrency, ProducerConsumerHammerKeepsOrderAndAccounting) {
  ShadowRing ring(64);
  constexpr std::uint64_t kOffered = 200000;
  std::atomic<bool> done{false};

  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kOffered; ++i) {
      ring.try_push({.page = i, .timestamp = i});  // full ring drops
    }
    done.store(true, std::memory_order_release);
  });

  // Consumer: pages must arrive strictly increasing (drops make gaps,
  // never reorders or duplicates).
  std::uint64_t consumed = 0;
  std::uint64_t last_page = 0;
  bool first = true;
  ShadowAccessEntry out[16];
  while (!done.load(std::memory_order_acquire) || !ring.empty()) {
    const std::size_t n = ring.pop_batch({out, 16});
    for (std::size_t i = 0; i < n; ++i) {
      if (!first) {
        EXPECT_GT(out[i].page, last_page);
      }
      last_page = out[i].page;
      first = false;
    }
    consumed += n;
    if (n == 0) std::this_thread::yield();
  }
  producer.join();

  EXPECT_EQ(consumed, ring.pushed());
  EXPECT_EQ(ring.popped(), ring.pushed());
  EXPECT_EQ(ring.pushed() + ring.dropped(), kOffered);
  EXPECT_GT(consumed, 0u);
}

}  // namespace
}  // namespace icgmm

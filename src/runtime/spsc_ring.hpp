// Bounded single-producer/single-consumer ring carrying served accesses
// from the serving path to the shadow evaluator's background thread (the
// ICGMM decoupling: the datapath answers the access immediately, the
// background engine observes asynchronously).
//
// Producer discipline: pushes happen while the owning shard's mutex is
// held, so successive pushes are serialized and ordered (the mutex
// provides the happens-before edge between producing threads); the ring
// itself only has to order one producer against one consumer, which the
// release/acquire pair on tail_/head_ does. The consumer is a single
// background worker (ShadowEvaluator).
//
// Overflow never blocks the serving path: like ModelRefresher's bounded
// sample queue, a full ring drops the entry and counts it. A dropped
// entry costs fidelity slowly (a shadow directory that skipped one
// access); blocking would cost serving latency immediately. The drop
// counter is what lets the bounded-staleness invariant stay checkable: at
// any drain barrier, pushed() == (entries applied by the consumer) and
// every offered entry is either pushed or dropped.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace icgmm::runtime {

/// The generic SPSC ring. T must be trivially copyable (entries are
/// copied in and out by value, racing slots are never observed thanks to
/// the release/acquire pair).
template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 2) so the index
  /// math is a mask instead of a modulo.
  explicit SpscRing(std::uint32_t capacity) {
    std::uint64_t cap = 2;
    while (cap < capacity) cap <<= 1;
    buf_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::uint64_t capacity() const noexcept { return buf_.size(); }

  /// Producer side (call under the owning shard's lock). Returns false —
  /// and counts the drop — when the ring is full.
  bool try_push(const T& e) noexcept {
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_.load(std::memory_order_acquire) >= buf_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    buf_[t & mask_] = e;
    tail_.store(t + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side (the background worker only): pops up to out.size()
  /// entries in FIFO order, returns how many were written.
  std::size_t pop_batch(std::span<T> out) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    const std::uint64_t t = tail_.load(std::memory_order_acquire);
    const std::size_t n =
        std::min<std::uint64_t>(out.size(), t - h);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = buf_[(h + i) & mask_];
    }
    head_.store(h + n, std::memory_order_release);
    return n;
  }

  /// Monitoring view; exact at quiescence, same contract as the sharded
  /// cache's counter mirrors.
  bool empty() const noexcept {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }
  /// Entries accepted into the ring.
  std::uint64_t pushed() const noexcept {
    return tail_.load(std::memory_order_relaxed);
  }
  /// Entries handed to the consumer.
  std::uint64_t popped() const noexcept {
    return head_.load(std::memory_order_relaxed);
  }
  /// Entries rejected because the ring was full.
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<T> buf_;
  std::uint64_t mask_ = 0;
  // Head and tail on separate cache lines: the producer only dirties
  // tail_, the consumer only dirties head_.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// One observed access, as the shadow evaluator sees it: the request
/// plus the serving cache's verdict, so would-have-hit divergence is
/// computable without touching serving state.
struct ShadowAccessEntry {
  PageIndex page = 0;
  Timestamp timestamp = 0;
  bool is_write = false;
  bool serving_hit = false;
};

using ShadowRing = SpscRing<ShadowAccessEntry>;

}  // namespace icgmm::runtime

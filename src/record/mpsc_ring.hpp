// Bounded multi-producer/single-consumer ring carrying recorded accesses
// from the serving threads to the recorder's writer thread.
//
// The serving path is the producer side: ANY thread inside
// Runtime::access may push, so unlike the shadow evaluator's
// shard-locked SpscRing this ring must order its own producers.
// It uses the bounded Vyukov MPMC scheme — one sequence word per cell,
// producers claim slots with a CAS on tail_, each cell's sequence
// publishes the payload with release/acquire — restricted to a single
// consumer (the writer thread), which lets the pop side keep a plain
// head cursor.
//
// Overflow never blocks a producer: try_push returns false on a full
// ring and the caller counts the drop — the same never-stall discipline
// as SpscRing and the ModelRefresher's sample queue. A dropped record
// costs capture completeness (the drop counter is surfaced all the way
// to the wire STATS reply so lossy captures are visible); blocking would
// cost serving latency immediately.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

namespace icgmm::record {

template <typename T>
class MpscRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit MpscRing(std::uint64_t capacity) {
    std::uint64_t cap = 2;
    while (cap < capacity) cap <<= 1;
    cells_ = std::vector<Cell>(cap);
    mask_ = cap - 1;
    for (std::uint64_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  std::uint64_t capacity() const noexcept { return cells_.size(); }

  /// Producer side, any thread. Returns false when the ring is full (the
  /// caller accounts the drop).
  bool try_push(const T& value) noexcept {
    std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    while (true) {
      Cell& cell = cells_[pos & mask_];
      const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const std::int64_t dif =
          static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell.value = value;
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS failure reloaded pos; retry against the new slot.
      } else if (dif < 0) {
        return false;  // the slot is still occupied a lap behind: full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Consumer side — single thread only. Pops up to out.size() entries in
  /// FIFO order; returns how many were written.
  std::size_t pop_batch(std::span<T> out) noexcept {
    std::size_t n = 0;
    while (n < out.size()) {
      Cell& cell = cells_[head_ & mask_];
      const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
      if (seq != head_ + 1) break;  // next cell not published yet
      out[n++] = cell.value;
      // Free the slot for the producers' next lap.
      cell.seq.store(head_ + mask_ + 1, std::memory_order_release);
      ++head_;
    }
    return n;
  }

  /// Monitoring view (exact at quiescence).
  bool empty() const noexcept {
    return tail_.load(std::memory_order_acquire) == head_;
  }

 private:
  struct Cell {
    std::atomic<std::uint64_t> seq{0};
    T value{};
  };

  std::vector<Cell> cells_;
  std::uint64_t mask_ = 0;
  /// Consumer-private cursor: only the single consumer reads or writes
  /// it (empty() reads it from monitors, which tolerate staleness).
  alignas(64) std::uint64_t head_ = 0;
  alignas(64) std::atomic<std::uint64_t> tail_{0};
};

}  // namespace icgmm::record

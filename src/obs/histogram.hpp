// Log-bucketed latency histogram: HDR-style power-of-two buckets with 32
// linear sub-buckets each, covering 1 ns .. ~2.1 s (larger values clamp
// into the top band) with <= ~3% relative quantile error — constant
// memory, O(1) record, mergeable across threads.
//
// The server-side observability layer and the load generator share this
// one histogram implementation. Header-only and allocation-free so it is
// usable from tight reply loops; single-writer — ConcurrentHistogram
// below is the thread-safe sibling sharing the same bucket scheme.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace icgmm::obs {

class LatencyHistogram {
 public:
  static constexpr std::uint32_t kSubBits = 5;  ///< 32 linear sub-buckets
  static constexpr std::uint32_t kSub = 1u << kSubBits;
  static constexpr std::uint32_t kExponents = 32 - static_cast<int>(kSubBits);
  static constexpr std::uint32_t kBuckets = kExponents * kSub;

  /// `weight` > 1 records one measurement standing for several requests
  /// (a batched reply's latency applies to every request in the batch).
  void record(std::uint64_t nanos, std::uint64_t weight = 1) noexcept {
    counts_[bucket_of(nanos)] += weight;
    total_ += weight;
    sum_ns_ += nanos * weight;
    if (nanos > max_ns_) max_ns_ = nanos;
  }

  void merge(const LatencyHistogram& other) noexcept {
    for (std::uint32_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
    sum_ns_ += other.sum_ns_;
    if (other.max_ns_ > max_ns_) max_ns_ = other.max_ns_;
  }

  std::uint64_t count() const noexcept { return total_; }
  std::uint64_t sum_ns() const noexcept { return sum_ns_; }
  std::uint64_t max_ns() const noexcept { return max_ns_; }
  double mean_ns() const noexcept {
    return total_ == 0 ? 0.0
                       : static_cast<double>(sum_ns_) /
                             static_cast<double>(total_);
  }

  /// Latency (ns) at quantile q in [0, 1] — the representative (upper
  /// bound) value of the bucket holding the q-th sample; 0 when empty.
  std::uint64_t quantile_ns(double q) const noexcept {
    if (total_ == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    std::uint64_t rank = static_cast<std::uint64_t>(
        q * static_cast<double>(total_ - 1));
    for (std::uint32_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      if (rank < counts_[i]) {
        // The bucket's upper bound can overshoot the true maximum in the
        // top occupied bucket; clamp so quantiles never exceed max.
        const std::uint64_t upper = bucket_upper(i);
        return upper < max_ns_ ? upper : max_ns_;
      }
      rank -= counts_[i];
    }
    return max_ns_;
  }

 private:
  /// Bucket index: top exponent picks the power-of-two band, the next
  /// kSubBits mantissa bits pick the linear sub-bucket. Values below kSub
  /// map into band 0 exactly (sub-bucket == value).
  static std::uint32_t bucket_of(std::uint64_t nanos) noexcept {
    if (nanos < kSub) return static_cast<std::uint32_t>(nanos);
    int msb = 63 - __builtin_clzll(nanos);
    std::uint32_t exponent = static_cast<std::uint32_t>(msb) - kSubBits + 1;
    if (exponent >= kExponents) {  // clamp overflow into the top band
      exponent = kExponents - 1;
      return exponent * kSub + (kSub - 1);
    }
    const std::uint32_t sub = static_cast<std::uint32_t>(
        (nanos >> (exponent - 1)) & (kSub - 1));
    return exponent * kSub + sub;
  }

  /// Largest value mapping into bucket i (the reported quantile value).
  static std::uint64_t bucket_upper(std::uint32_t i) noexcept {
    const std::uint32_t exponent = i / kSub;
    const std::uint32_t sub = i % kSub;
    if (exponent == 0) return sub;
    const std::uint64_t base = 1ull << (exponent + kSubBits - 1);
    const std::uint64_t width = 1ull << (exponent - 1);
    return base + (static_cast<std::uint64_t>(sub) + 1) * width - 1;
  }

  friend class ConcurrentHistogram;  // shares the bucket scheme + layout

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
  std::uint64_t sum_ns_ = 0;
  std::uint64_t max_ns_ = 0;
};

/// Thread-safe sibling of LatencyHistogram for the serving hot path:
/// record() is one relaxed fetch_add per field (no locks, no waiting —
/// recorders never block each other or the scraper), snapshot() folds the
/// atomic buckets into a plain LatencyHistogram for quantile math.
///
/// Consistency: relaxed counters make a mid-traffic snapshot per-bucket
/// coherent, not cross-bucket atomic — exact at quiescence, same contract
/// as every other serving counter in this codebase.
class ConcurrentHistogram {
 public:
  void record(std::uint64_t nanos, std::uint64_t weight = 1) noexcept {
    counts_[LatencyHistogram::bucket_of(nanos)].fetch_add(
        weight, std::memory_order_relaxed);
    total_.fetch_add(weight, std::memory_order_relaxed);
    sum_ns_.fetch_add(nanos * weight, std::memory_order_relaxed);
    std::uint64_t cur = max_ns_.load(std::memory_order_relaxed);
    while (nanos > cur &&
           !max_ns_.compare_exchange_weak(cur, nanos,
                                          std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const noexcept {
    return total_.load(std::memory_order_relaxed);
  }

  LatencyHistogram snapshot() const noexcept {
    LatencyHistogram h;
    for (std::uint32_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
      h.counts_[i] = counts_[i].load(std::memory_order_relaxed);
    }
    h.total_ = total_.load(std::memory_order_relaxed);
    h.sum_ns_ = sum_ns_.load(std::memory_order_relaxed);
    h.max_ns_ = max_ns_.load(std::memory_order_relaxed);
    return h;
  }

  /// Zeroes every bucket (monitoring-grade: concurrent records may land
  /// on either side of the sweep).
  void reset() noexcept {
    for (std::uint32_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
      counts_[i].store(0, std::memory_order_relaxed);
    }
    total_.store(0, std::memory_order_relaxed);
    sum_ns_.store(0, std::memory_order_relaxed);
    max_ns_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, LatencyHistogram::kBuckets> counts_{};
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> max_ns_{0};
};

}  // namespace icgmm::obs

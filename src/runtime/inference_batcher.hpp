// Batched GMM scoring for the miss path.
//
// The single-threaded simulator scores pages through a std::function, one
// call per page, each call re-resolving the model. Under a serving runtime
// with atomic model swaps that pattern gets worse: every call would also
// load the shared_ptr snapshot. The batcher amortizes both — one snapshot
// load and one indirect call per *span* (a whole set's resident tags at
// eviction time), and it pins one flat gmm::ScorerKernel per published
// model snapshot (sharing that snapshot's pruning grid), so a set-rescore
// is one kernel call for the whole span.
//
// Per-page math is byte-identical to GaussianMixture::log_score (both
// funnel into the same ScorerKernel core), which is what keeps a
// 1-shard/1-thread runtime bit-identical to sim::run_trace.
//
// The batcher also serves the pinned kernel's score brackets. A policy
// decision that brackets first (GmmPolicy's admission and eviction) scores
// what the brackets leave open on the kernel that bracketed it, so a
// model publish never splits one decision across two snapshots.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>

#include "common/types.hpp"
#include "gmm/kernel.hpp"
#include "runtime/model_slot.hpp"

namespace icgmm::runtime {

/// Scores spans of pages at one shared timestamp against the slot's
/// current model. One batcher per shard; scoring calls are serialized by
/// the owning shard's lock, while the counters stay readable from any
/// monitoring thread (relaxed atomics). The slot must outlive the batcher.
class InferenceBatcher {
 public:
  // Version is read *before* the model (declaration order below), the
  // same order current_kernel() uses: a publish landing in between makes
  // the next call reload (over-fresh), never serve a stale model forever.
  explicit InferenceBatcher(const ModelSlot& slot)
      : slot_(&slot),
        version_(slot.version()),
        model_(slot.load()),
        kernel_(model_->make_kernel()) {}

  /// Log-scores pages[i] at `t` into out[i]. out.size() >= pages.size().
  /// Loads the model snapshot once for the whole span.
  void score_span(std::span<const PageIndex> pages, Timestamp t,
                  std::span<double> out);

  /// Single-page score (admission / fill path); still one snapshot load.
  double score_one(PageIndex page, Timestamp t);

  /// Brackets pages[i]'s score at `t` into out[i] (ScorerKernel::
  /// bracket_batch; false without a bracket table) and pins the kernel
  /// that did it: the next score_span or score_one — the scores the
  /// decision's brackets gate — reuses it without checking for a newer
  /// model. A decision the brackets settle leaves the pin to the next
  /// score call, which then runs on a snapshot one decision old.
  bool bracket_span(std::span<const PageIndex> pages, Timestamp t,
                    std::span<ScoreBracket> out);

  /// score_span invocations.
  std::uint64_t batches() const noexcept {
    return batches_.load(std::memory_order_relaxed);
  }
  /// Total pages scored (span + single); bracketed pages are not scored.
  std::uint64_t scored() const noexcept {
    return scored_.load(std::memory_order_relaxed);
  }
  /// Pages whose pruned score fell back to the full K-term sum.
  std::uint64_t fallbacks() const noexcept {
    return fallbacks_.load(std::memory_order_relaxed);
  }

 private:
  /// Re-pins the kernel iff the slot published a newer model (a copy of
  /// its coefficients and a pointer to its pruning grid, which the
  /// publisher built); the common case is one relaxed integer compare.
  void refresh_kernel();
  /// refresh_kernel() unless a bracket_span pinned the kernel for this
  /// call; consumes the pin.
  void refresh_unless_pinned() {
    if (!pinned_) refresh_kernel();
    pinned_ = false;
  }

  void count_fallbacks(std::size_t n) noexcept {
    if (n != 0) fallbacks_.fetch_add(n, std::memory_order_relaxed);
  }

  const ModelSlot* slot_;
  // Per-shard snapshot cache, accessed under the owning shard's lock. The
  // shared_ptr pins the snapshot; kernel_ is this shard's private scoring
  // state (flat SoA, the fixed-K cores' timestamp cache, and a pointer to
  // the snapshot's immutable pruning grid).
  std::uint64_t version_;
  std::shared_ptr<const gmm::GaussianMixture> model_;
  gmm::ScorerKernel kernel_;
  bool pinned_ = false;  ///< see bracket_span
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> scored_{0};
  std::atomic<std::uint64_t> fallbacks_{0};
};

}  // namespace icgmm::runtime

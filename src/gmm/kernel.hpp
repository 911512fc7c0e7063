// Flat structure-of-arrays scoring kernel for a trained GaussianMixture —
// the software analogue of the paper's II=1 HLS scoring pipeline (§4.1):
// every component is pre-folded at construction into per-component
// coefficient arrays that the inner loop streams through contiguously.
//
// Per component k the kernel stores
//
//   mu_p[k], mu_t[k],                     (component mean)
//   a[k] = 0.5 * inv_pp, b[k] = inv_pt,   (inverse-covariance quadratic
//   g[k] = 0.5 * inv_tt,                   form, diagonal terms pre-halved)
//   c[k] = log(pi_k) + log_norm_k          (fused constant)
//
// so a log-score is  log sum_k exp(c[k] - q_k(x))  with
// q_k = dp*dp*a[k] + dp*(dt*b[k]) + (dt*dt)*g[k], evaluated over flat
// arrays with no allocation and no thread_local state on the hot path.
//
// Pruning grid (K > kMaxFixedComponents)
// --------------------------------------
// The FPGA streams all K components through its pipeline at no extra
// cost; in software the full K = 256 sum is most of a score, yet the
// trained components are narrow and only a few dozen matter anywhere.
// A kernel built with a grid cuts normalized (page, time) space into
// cells (kGridPageBands x kGridTimeBands over [0, 1] x [-1, 2], plus
// unbounded edge bands) and keeps, per cell, the components whose upper
// bound on the cell (c[k] minus the quadratic form's minimum over the
// box) lies within kGridKeepNats of the cell's best lower bound, copied
// into a compacted per-cell SoA. A score sums its cell's kept terms and
// falls back to the full sum unless that sum exceeds every dropped
// bound by ln K + kGridMarginNats, so the dropped mass is below
// e^-37 (< 2^-53) of the score. The grid is built once per model
// snapshot (GaussianMixture's constructor, or build_pruning_grid()) and
// shared, immutable, by every copy of the kernel.
//
// Score brackets (with the grid)
// ------------------------------
// The grid carries a finer table of score brackets: kBracketPageBands x
// kBracketTimeBands cells over the same finite range, each nested in one
// finite grid cell, plus the same unbounded edge bands. A finite bracket
// cell stores, over its grid cell's kept components and its own box,
//
//   hi = log sum_k e^(c[k] - min_box q_k),   lo = max_k (c[k] - max_box q_k),
//
// each widened by kBracketMarginNats. Every score the kernel returns for
// an input in the cell lies in [lo, hi]: the kept sum lies there, and the
// mass the grid drops is below e^-37 of it. Edge cells stay {-inf, +inf}.
// A cache policy settles an admission or rules out a victim from a
// bracket and scores only what the bracket leaves open.
//
// Numerical contract
// ------------------
// The kernel keeps the seed's log-sum-exp *shape* (a max-subtracted,
// libm-evaluated fallback guards far outliers and -inf log-weights) but
// owns its arithmetic: the fused constant, the pre-halved quadratic form,
// a fixed-shape accumulation tree, and inlined polynomial exp/log
// (faithful to ~2 ulp) replace one out-of-line libm call per component.
// Every consumer in the system (mixture, cache policy, runtime batcher,
// EM trainers) scores through this one kernel, so all cross-path
// comparisons — admission threshold vs runtime score, single-page vs
// batched set-rescore, simulator vs serving runtime — remain bit-for-bit
// consistent: all public scoring entry points funnel into the single
// compiled core selected at construction, and every copy of a kernel
// prunes with the same grid. The EM E-step (component_log_terms) always
// evaluates all K components.
//
// Threading: a kernel with the timestamp cache enabled
// (GaussianMixture::make_kernel) memoizes the timestamp-dependent
// coefficients of the last batch (fixed-K cores only) and is single-owner
// — share nothing, copy freely (copies are independent; the grid they
// share is immutable). The cache-disabled kernel embedded in
// GaussianMixture is stateless and safe to share across threads.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "gmm/mixture.hpp"

namespace icgmm::gmm {

class ScorerKernel {
 public:
  /// Largest K served by the fixed-size (member buffer, fully unrolled
  /// dispatch) path; larger mixtures use the runtime-K core, which scores
  /// from a pruning grid when the kernel has one.
  static constexpr std::size_t kMaxFixedComponents = 32;

  /// Pruning-grid shape: page bands over normalized [0, 1] and time bands
  /// over normalized [-1, 2] (Algorithm-1 timestamps run past the trimmed
  /// training range), each axis with an unbounded band on either side.
  static constexpr std::size_t kGridPageBands = 8;
  static constexpr std::size_t kGridTimeBands = 96;
  /// A cell keeps every component whose upper bound on the cell is within
  /// this many nats of the cell's best lower bound.
  static constexpr double kGridKeepNats = 45.0;
  /// A pruned score is accepted only if its kept sum exceeds every
  /// dropped component's bound by ln K + this many nats.
  static constexpr double kGridMarginNats = 37.0;
  /// Score-bracket table shape over the grid's finite range: 8 x 2
  /// bracket cells to a grid cell. Both ratios are powers of two, so an
  /// input's bracket band and grid band come from the same exactly scaled
  /// coordinate and always nest.
  static constexpr std::size_t kBracketPageBands = 64;
  static constexpr std::size_t kBracketTimeBands = 192;
  /// Each bracket bound is widened by this many nats, for the rounding of
  /// the kernel's sums and of the bounds themselves.
  static constexpr double kBracketMarginNats = 1e-6;

  /// Below this direct-sum magnitude the kernel re-scores through the
  /// exact max-subtracted log-sum-exp (outlier inputs, -inf log-weights).
  static constexpr double kAccFloor = 1e-250;

  /// Snapshots `model` into flat coefficient arrays: a stateless kernel
  /// without a pruning grid. GaussianMixture builds the grid and hands
  /// out the cached copies (make_kernel).
  explicit ScorerKernel(const GaussianMixture& model);

  std::size_t size() const noexcept { return k_; }
  const Normalizer& normalizer() const noexcept { return norm_; }
  bool timestamp_cache_enabled() const noexcept { return cache_enabled_; }

  /// Whether this kernel scores from a pruning grid (and so has brackets).
  bool pruned() const noexcept { return grid_ != nullptr; }
  /// Heap bytes of the shared grid and its bracket table (0 without one).
  std::size_t grid_bytes() const noexcept;
  /// Terms the core sums for this input before any full-K fallback: the
  /// kept count of the input's grid cell, or K without a grid.
  std::size_t terms_kept(PageIndex page, Timestamp t) const noexcept;

  /// Log-score of one page at one timestamp (raw units, the miss path).
  double score_one(PageIndex page, Timestamp t) const noexcept;

  /// Raw-unit doubles variant (trace samples store doubles).
  double score_raw(double raw_page, double raw_time) const noexcept;

  /// Log-scores pages[i] at the shared timestamp `t` into out[i]; the
  /// timestamp is normalized once for the whole batch. Requires
  /// out.size() >= pages.size(). Bit-identical to score_one per page.
  /// Returns how many pages fell back from their grid cell to the full
  /// K-term sum (always 0 without a grid).
  std::size_t score_batch(std::span<const PageIndex> pages, Timestamp t,
                          std::span<double> out) const noexcept;

  /// Brackets the log-scores of pages[i] at the shared timestamp `t` into
  /// out[i]: out[i].lo <= score_one(pages[i], t) <= out[i].hi, and
  /// {-inf, +inf} in the grid's edge cells. Requires out.size() >=
  /// pages.size(). Returns false, writing nothing, without a grid.
  bool bracket_batch(std::span<const PageIndex> pages, Timestamp t,
                     std::span<ScoreBracket> out) const noexcept;

  /// Bracket of an already-normalized input ({-inf, +inf} without a grid).
  ScoreBracket bracket_normalized(Vec2 x) const noexcept;

  /// Log-score of an already-normalized input (EM / tests).
  double log_score_normalized(Vec2 x) const noexcept;

  /// Mean log-score over normalized samples (model selection, reports).
  double mean_log_likelihood(std::span<const Vec2> normalized) const noexcept;

  /// E-step support: writes the per-component log terms
  /// terms[k] = c[k] - q_k(x) (== log pi_k + log N_k(x) up to folding)
  /// and returns their maximum. Requires terms.size() >= size().
  /// Stateless — safe on shared kernels.
  double component_log_terms(Vec2 x, std::span<double> terms) const noexcept;

 private:
  /// Returns the number of full-K fallbacks (see score_batch).
  using BatchFn = std::size_t (*)(const ScorerKernel&, const double*,
                                  std::size_t, double, double*);

  template <std::size_t K, std::size_t KLanes> friend struct KernelBatchEntry;
  friend struct KernelBatchGeneric;
  friend class GaussianMixture;

  /// Compacted per-cell coefficients; defined in kernel.cpp.
  struct Grid;

  /// Normalized-domain core dispatch: xs are normalized page coordinates,
  /// xt the normalized timestamp, n <= kBatchChunk.
  std::size_t run_batch(const double* xs, std::size_t n, double xt,
                        double* out) const noexcept {
    return batch_fn_(*this, xs, n, xt, out);
  }

  static BatchFn pick_batch_fn(std::size_t k) noexcept;

  /// Builds the pruning grid and its bracket table from this kernel's
  /// coefficients (no-op for K <= kMaxFixedComponents or when one is
  /// already attached). Only GaussianMixture calls it, before the kernel
  /// is shared.
  void build_grid();
  /// Turns on the single-owner timestamp cache (make_kernel copies): the
  /// fixed-K cores then skip recomputing the timestamp-dependent
  /// coefficients across consecutive scores at the same timestamp
  /// (Algorithm-1 windows repeat each logical timestamp ~len_window
  /// times).
  void enable_timestamp_cache() noexcept { cache_enabled_ = true; }

  std::size_t k_ = 0;
  /// SoA array stride. Equal to k_ for the fixed-K cores except K = 4,
  /// which is padded to an 8-lane trip count (4-lane loops are
  /// single-vector trips under AVX2, with no instruction-level parallelism
  /// across vector iterations); the runtime-K core rounds it up to a
  /// multiple of 8 lanes. Pad lanes carry zero coefficients and contribute
  /// exactly 0 to every sum.
  std::size_t stride_ = 0;
  Normalizer norm_;
  bool cache_enabled_ = false;
  BatchFn batch_fn_ = nullptr;
  /// 6 contiguous arrays of stride_ doubles: mu_p | mu_t | a | b | g | c.
  std::vector<double> soa_;
  /// Pruning grid shared by every copy of this kernel (null = full sums).
  std::shared_ptr<const Grid> grid_;

  /// Timestamp-coefficient cache of the fixed-K cores (single-owner
  /// kernels only): cross[i] = dt*b[i], ttc[i] = (dt*dt)*g[i] for the last
  /// xt seen. The runtime-K core folds dt per term and keeps no cache.
  mutable double cache_xt_ = 0.0;
  mutable bool cache_valid_ = false;
  alignas(64) mutable double cache_cross_[kMaxFixedComponents] = {};
  alignas(64) mutable double cache_ttc_[kMaxFixedComponents] = {};
};

}  // namespace icgmm::gmm

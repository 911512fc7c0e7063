// The K-component 2-D Gaussian mixture — Eq. (3): the ICGMM score
// G(x) = sum_k pi_k N(x | mu_k, Sigma_k), used as the predicted future
// access frequency of page P at logical time T.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "gmm/gaussian2d.hpp"

namespace icgmm::gmm {

class ScorerKernel;

/// Affine input normalization stored with the model. Raw page indices span
/// millions while timestamps span thousands; EM on raw units conditions
/// terribly, so both axes are mapped to ~[0, 1] before scoring — the FPGA
/// applies the same transform with two multiplies.
struct Normalizer {
  double p_offset = 0.0;
  double p_scale = 1.0;  ///< multiply after offset: x = (raw - off) * scale
  double t_offset = 0.0;
  double t_scale = 1.0;

  constexpr Vec2 apply(double raw_page, double raw_time) const noexcept {
    return {(raw_page - p_offset) * p_scale, (raw_time - t_offset) * t_scale};
  }

  friend constexpr bool operator==(const Normalizer&, const Normalizer&) = default;
};

/// Whether a mixture above ScorerKernel::kMaxFixedComponents builds its
/// scoring kernel's pruning grid at construction. Training loops that
/// build a mixture per iteration only to read component terms defer it.
enum class PruningGrid : bool { kDefer, kBuild };

/// Value-semantic trained mixture.
/// Invariants: components non-empty; weights non-negative and sum to 1
/// (within 1e-9, re-normalized on construction).
class GaussianMixture {
 public:
  GaussianMixture(std::vector<double> weights,
                  std::vector<Gaussian2D> components,
                  Normalizer normalizer = {},
                  PruningGrid grid = PruningGrid::kBuild);

  std::size_t size() const noexcept { return components_.size(); }
  std::span<const double> weights() const noexcept { return weights_; }
  std::span<const Gaussian2D> components() const noexcept { return components_; }
  const Normalizer& normalizer() const noexcept { return normalizer_; }

  /// Mixture log-density at a *raw* (page, timestamp) input. Monotone in
  /// the paper's score G, safe against underflow; this is what the cache
  /// policy thresholds on.
  double log_score(double raw_page, double raw_time) const noexcept;

  /// Linear-domain score G (Eq. 3) — may underflow to 0 for far outliers.
  double score(double raw_page, double raw_time) const noexcept;

  /// Mean log-score of a sample set (training-set log-likelihood / N).
  double mean_log_likelihood(std::span<const Vec2> normalized) const noexcept;

  /// log-sum-exp of (log pi_k + log N_k(x)) over components, for an already
  /// normalized input. Exposed for the EM trainer.
  double log_score_normalized(Vec2 x) const noexcept;

  /// The flat SoA scoring kernel all of the above delegate to. Stateless
  /// (timestamp cache off), shared by copies of this mixture, safe to use
  /// from any thread.
  const ScorerKernel& kernel() const noexcept { return *kernel_; }

  /// A copy of kernel() with the single-owner timestamp cache enabled —
  /// what scoring closures and per-shard batchers should hold. It shares
  /// kernel()'s pruning grid, so it scores bit-identically.
  ScorerKernel make_kernel() const;

  /// Builds the pruning grid a PruningGrid::kDefer construction skipped;
  /// a no-op when there is one or K <= ScorerKernel::kMaxFixedComponents.
  /// Copies made before the call keep scoring with full sums.
  void build_pruning_grid();

 private:
  std::vector<double> weights_;
  std::vector<double> log_weights_;
  std::vector<Gaussian2D> components_;
  Normalizer normalizer_;
  /// Immutable, so copies of the mixture share one snapshot (and its
  /// pruning grid).
  std::shared_ptr<const ScorerKernel> kernel_;
};

}  // namespace icgmm::gmm

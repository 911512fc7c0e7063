// The cache policy engine (paper Fig. 5, left block): a trained GMM plus
// an admission threshold, exposed as the scorer the cache policy consumes.
#pragma once

#include <memory>
#include <optional>

#include "cache/policies/gmm_policy.hpp"
#include "gmm/em.hpp"
#include "gmm/mixture.hpp"
#include "trace/preprocess.hpp"
#include "trace/trace.hpp"

namespace icgmm::core {

struct PolicyEngineConfig {
  gmm::EmConfig em;                ///< K = 256 by default, per the paper
  trace::TrimConfig trim;          ///< drop first 20 % / last 10 %
  trace::TransformConfig transform;
  std::size_t train_subsample = 20000;  ///< EM sample budget (stride subsample)
};

/// Owns the trained model; hands out scorers and cache policies.
class PolicyEngine {
 public:
  explicit PolicyEngine(PolicyEngineConfig cfg = {}) : cfg_(cfg) {}

  const PolicyEngineConfig& config() const noexcept { return cfg_; }

  /// Trains the GMM on a collected trace (trim -> Algorithm 1 -> subsample
  /// -> EM). Returns the EM fit report.
  const gmm::FitReport& train(const trace::Trace& collected);

  /// Loads a pre-trained model instead of training.
  void load(gmm::GaussianMixture model);

  bool trained() const noexcept { return model_.has_value(); }
  const gmm::GaussianMixture& model() const;

  /// EM fit report of the last train() call.
  const gmm::FitReport& report() const noexcept { return report_; }

  /// Log-domain scorer bound to the trained model.
  cache::ScoreFn score_fn() const;

  /// Builds a cache policy for one of the Fig. 6 strategies. It scores
  /// set spans and brackets decisions as a serving shard's policy does,
  /// so it scores the same pages for the same decisions (a clone scores
  /// every decision; see GmmPolicy::clone).
  std::unique_ptr<cache::GmmPolicy> make_policy(
      cache::GmmStrategy strategy, double threshold,
      bool refresh_on_hit = false) const;

  /// Full-config overload (rescore and ablation knobs included).
  std::unique_ptr<cache::GmmPolicy> make_policy(
      cache::GmmPolicyConfig cfg) const;

  /// The training-set log-scores (sorted ascending) — threshold tuning
  /// reads percentiles off this.
  const std::vector<double>& training_scores() const noexcept {
    return training_scores_;
  }

 private:
  PolicyEngineConfig cfg_;
  std::optional<gmm::GaussianMixture> model_;
  gmm::FitReport report_;
  std::vector<double> training_scores_;
};

}  // namespace icgmm::core

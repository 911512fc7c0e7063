// Expectation-Maximization trainer for the 2-D GMM (paper §3.3).
//
// E-step: responsibilities via Bayes' theorem in the log domain, in blocks
// of 512 samples on every core (gmm/estep.hpp). Only one block's 512 x K
// responsibilities are held (1 MiB at K = 256), never the N x K matrix, so
// training scales to full traces. The result is bit for bit the serial
// loop's, whatever the host's core count.
// M-step: closed-form weight/mean/covariance updates from the sufficient
// statistics.
// Convergence: relative change of the mean log-likelihood below `tol`,
// mirroring the paper's "change in MLE below a predefined threshold".
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "gmm/mixture.hpp"
#include "trace/preprocess.hpp"

namespace icgmm::gmm {

struct EmConfig {
  std::uint32_t components = 256;  ///< paper's K
  std::uint32_t max_iters = 40;
  double tol = 1e-4;              ///< relative mean-LL change for convergence
  double reg_covar = 1e-6;        ///< ridge added to covariance diagonals
  std::uint32_t kmeans_iters = 5; ///< Lloyd refinement during init
  std::uint64_t seed = 0x9e3779b9ull;
};

struct FitReport {
  std::uint32_t iterations = 0;
  bool converged = false;
  double final_mean_log_likelihood = 0.0;
  std::vector<double> ll_history;   ///< mean LL after each iteration
  std::uint32_t resets = 0;         ///< degenerate components re-seeded
};

/// Fits a GMM to raw (page, timestamp) samples. Builds the normalizer from
/// the sample extent, runs k-means++ init then EM. Throws
/// std::invalid_argument if samples are empty.
class EmTrainer {
 public:
  explicit EmTrainer(EmConfig cfg = {}) : cfg_(cfg) {}

  const EmConfig& config() const noexcept { return cfg_; }
  const FitReport& report() const noexcept { return report_; }

  GaussianMixture fit(std::span<const trace::GmmSample> samples);

  /// Builds a normalizer mapping the sample bounding box to [0,1]^2.
  static Normalizer make_normalizer(std::span<const trace::GmmSample> samples);

 private:
  EmConfig cfg_;
  FitReport report_;
};

}  // namespace icgmm::gmm

#include "gmm/mixture.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "gmm/kernel.hpp"

namespace icgmm::gmm {

GaussianMixture::GaussianMixture(std::vector<double> weights,
                                 std::vector<Gaussian2D> components,
                                 Normalizer normalizer, PruningGrid grid)
    : weights_(std::move(weights)),
      components_(std::move(components)),
      normalizer_(normalizer) {
  if (components_.empty() || weights_.size() != components_.size()) {
    throw std::invalid_argument("GaussianMixture: empty or mismatched sizes");
  }
  double sum = 0.0;
  for (double w : weights_) {
    if (!(w >= 0.0)) throw std::invalid_argument("GaussianMixture: bad weight");
    sum += w;
  }
  if (!(sum > 0.0)) throw std::invalid_argument("GaussianMixture: zero weight");
  log_weights_.reserve(weights_.size());
  for (double& w : weights_) {
    w /= sum;
    log_weights_.push_back(w > 0.0 ? std::log(w)
                                   : -std::numeric_limits<double>::infinity());
  }
  // All members are in their final state here; snapshot the scoring kernel
  // (stateless variant — copies of this mixture share it across threads).
  auto kernel = std::make_shared<ScorerKernel>(*this);
  if (grid == PruningGrid::kBuild) kernel->build_grid();
  kernel_ = std::move(kernel);
}

ScorerKernel GaussianMixture::make_kernel() const {
  ScorerKernel kernel = *kernel_;
  kernel.enable_timestamp_cache();
  return kernel;
}

void GaussianMixture::build_pruning_grid() {
  if (kernel_->pruned() || size() <= ScorerKernel::kMaxFixedComponents) return;
  auto kernel = std::make_shared<ScorerKernel>(*kernel_);
  kernel->build_grid();
  kernel_ = std::move(kernel);
}

double GaussianMixture::log_score_normalized(Vec2 x) const noexcept {
  return kernel_->log_score_normalized(x);
}

double GaussianMixture::log_score(double raw_page, double raw_time) const noexcept {
  // Delegates the normalization too, so this is bit-identical to the raw
  // kernel entry the cache policy scores through.
  return kernel_->score_raw(raw_page, raw_time);
}

double GaussianMixture::score(double raw_page, double raw_time) const noexcept {
  return std::exp(log_score(raw_page, raw_time));
}

double GaussianMixture::mean_log_likelihood(
    std::span<const Vec2> normalized) const noexcept {
  return kernel_->mean_log_likelihood(normalized);
}

}  // namespace icgmm::gmm

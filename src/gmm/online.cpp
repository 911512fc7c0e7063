#include "gmm/online.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace icgmm::gmm {

OnlineEm::OnlineEm(GaussianMixture initial, OnlineEmConfig cfg)
    : cfg_(cfg), model_(std::move(initial)) {
  // Seed the running statistics from the model itself so the first few
  // updates blend with (rather than overwrite) the offline fit.
  stats_.resize(model_.size());
  batch_stats_.resize(model_.size());
  terms_.resize(model_.size());
  for (std::size_t c = 0; c < model_.size(); ++c) {
    const Gaussian2D& g = model_.components()[c];
    Suff& s = stats_[c];
    s.n = model_.weights()[c];
    s.sp = s.n * g.mean().p;
    s.st = s.n * g.mean().t;
    s.spp = s.n * (g.cov().pp + g.mean().p * g.mean().p);
    s.spt = s.n * (g.cov().pt + g.mean().p * g.mean().t);
    s.stt = s.n * (g.cov().tt + g.mean().t * g.mean().t);
  }
}

void OnlineEm::accumulate(const trace::GmmSample& sample) {
  // The offline trainer's per-sample E-step, on the caller's thread.
  const Vec2 x = model_.normalizer().apply(sample.page, sample.time);
  e_step_sample(model_.kernel(), x, terms_);
  gmm::accumulate(batch_stats_, terms_, x);
}

void OnlineEm::m_step() {
  ++steps_;
  const double eta =
      std::pow(cfg_.step_offset + static_cast<double>(steps_), -cfg_.step_power);
  const double batch_norm = 1.0 / static_cast<double>(cfg_.batch);

  std::vector<double> weights(model_.size());
  std::vector<Gaussian2D> comps;
  comps.reserve(model_.size());
  double weight_sum = 0.0;

  for (std::size_t c = 0; c < model_.size(); ++c) {
    Suff& s = stats_[c];
    const Suff& b = batch_stats_[c];
    // Stepwise EM: s <- (1 - eta) s + eta * batch-normalized stats.
    s.n = (1.0 - eta) * s.n + eta * b.n * batch_norm;
    s.sp = (1.0 - eta) * s.sp + eta * b.sp * batch_norm;
    s.st = (1.0 - eta) * s.st + eta * b.st * batch_norm;
    s.spp = (1.0 - eta) * s.spp + eta * b.spp * batch_norm;
    s.spt = (1.0 - eta) * s.spt + eta * b.spt * batch_norm;
    s.stt = (1.0 - eta) * s.stt + eta * b.stt * batch_norm;

    const double n = std::max(s.n, 1e-12);
    const Vec2 mean{s.sp / n, s.st / n};
    Cov2 cov{s.spp / n - mean.p * mean.p + cfg_.reg_covar,
             s.spt / n - mean.p * mean.t,
             s.stt / n - mean.t * mean.t + cfg_.reg_covar};
    if (cov.det() <= 0.0 || cov.pp <= 0.0 || cov.tt <= 0.0) {
      const double bump = std::abs(cov.pt) + cfg_.reg_covar;
      cov.pp = std::max(cov.pp, 0.0) + bump;
      cov.tt = std::max(cov.tt, 0.0) + bump;
    }
    weights[c] = n;
    weight_sum += n;
    comps.emplace_back(mean, cov);
  }
  for (double& w : weights) w /= weight_sum;

  // The working model only feeds the E-step; a publisher builds the
  // pruning grid of the snapshot it publishes (GaussianMixture::
  // build_pruning_grid).
  model_ = GaussianMixture(std::move(weights), std::move(comps),
                           model_.normalizer(), PruningGrid::kDefer);
  for (Suff& s : batch_stats_) s = Suff{};
  batch_count_ = 0;
}

std::uint32_t OnlineEm::observe(std::span<const trace::GmmSample> samples) {
  std::uint32_t updates = 0;
  for (const auto& sample : samples) {
    accumulate(sample);
    if (++batch_count_ >= cfg_.batch) {
      m_step();
      ++updates;
    }
  }
  return updates;
}

}  // namespace icgmm::gmm

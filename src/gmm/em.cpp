#include "gmm/em.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/rng.hpp"
#include "gmm/estep.hpp"
#include "gmm/kernel.hpp"
#include "gmm/kmeans.hpp"
#include "gmm/workers.hpp"

namespace icgmm::gmm {
namespace {

/// Fits with fewer sample x component terms than this stay on the calling
/// thread: starting helpers and handing off every block would cost more
/// than the team saves.
constexpr std::size_t kTeamMinTerms = std::size_t{1} << 18;

}  // namespace

Normalizer EmTrainer::make_normalizer(
    std::span<const trace::GmmSample> samples) {
  if (samples.empty()) throw std::invalid_argument("make_normalizer: empty");
  double pmin = samples[0].page, pmax = samples[0].page;
  double tmin = samples[0].time, tmax = samples[0].time;
  for (const auto& s : samples) {
    pmin = std::min(pmin, s.page);
    pmax = std::max(pmax, s.page);
    tmin = std::min(tmin, s.time);
    tmax = std::max(tmax, s.time);
  }
  Normalizer norm;
  norm.p_offset = pmin;
  norm.p_scale = pmax > pmin ? 1.0 / (pmax - pmin) : 1.0;
  norm.t_offset = tmin;
  norm.t_scale = tmax > tmin ? 1.0 / (tmax - tmin) : 1.0;
  return norm;
}

GaussianMixture EmTrainer::fit(std::span<const trace::GmmSample> samples) {
  if (samples.empty()) throw std::invalid_argument("EmTrainer::fit: empty");
  report_ = FitReport{};
  Rng rng(cfg_.seed);

  const Normalizer norm = make_normalizer(samples);
  std::vector<Vec2> xs;
  xs.reserve(samples.size());
  for (const auto& s : samples) xs.push_back(norm.apply(s.page, s.time));

  const std::size_t n = xs.size();
  const auto k = static_cast<std::size_t>(cfg_.components);

  // One team per fit; every pass on it computes the serial loop's bits,
  // so its size is the host's and nothing else.
  WorkerTeam team(n * k < kTeamMinTerms ? 1 : WorkerTeam::hardware_size());

  // --- Initialization: k-means++ clusters become components. ---
  const KMeansResult km = kmeans(
      xs, {.clusters = cfg_.components, .lloyd_iters = cfg_.kmeans_iters}, rng,
      team);
  std::vector<double> weights(k);
  std::vector<Vec2> means(k);
  std::vector<Cov2> covs(k);
  {
    std::vector<Suff> suff(k);
    for (std::size_t i = 0; i < n; ++i) suff[km.assignment[i]].add(1.0, xs[i]);
    for (std::size_t c = 0; c < k; ++c) {
      const Suff& s = suff[c];
      if (s.n < 1.0) {
        // Empty cluster: seed on a random sample with a broad covariance.
        const Vec2 x = xs[rng.below(n)];
        weights[c] = 1.0 / static_cast<double>(n);
        means[c] = x;
        covs[c] = {0.01, 0.0, 0.01};
        continue;
      }
      weights[c] = s.n / static_cast<double>(n);
      means[c] = {s.sp / s.n, s.st / s.n};
      covs[c] = {s.spp / s.n - means[c].p * means[c].p + cfg_.reg_covar,
                 s.spt / s.n - means[c].p * means[c].t,
                 s.stt / s.n - means[c].t * means[c].t + cfg_.reg_covar};
    }
  }

  // Iterations only read component terms, so only the returned model
  // pays for a pruning grid.
  auto build = [&](PruningGrid grid) {
    std::vector<Gaussian2D> comps;
    comps.reserve(k);
    for (std::size_t c = 0; c < k; ++c) comps.emplace_back(means[c], covs[c]);
    return GaussianMixture(weights, std::move(comps), norm, grid);
  };

  // --- EM iterations (blocked E-step, sufficient statistics). ---
  double prev_ll = -std::numeric_limits<double>::infinity();
  BlockedEStep estep(k, n);
  for (std::uint32_t iter = 0; iter < cfg_.max_iters; ++iter) {
    GaussianMixture model = build(PruningGrid::kDefer);
    // The per-component log terms come from the mixture's folded SoA
    // kernel — same flat coefficients the serving miss path scores with.
    std::vector<Suff> suff(k);
    const double ll =
        estep.run(model.kernel(), xs, team, suff) / static_cast<double>(n);
    report_.ll_history.push_back(ll);
    report_.iterations = iter + 1;

    // M-step.
    for (std::size_t c = 0; c < k; ++c) {
      const Suff& s = suff[c];
      if (s.n < 1e-6) {
        // Degenerate component: re-seed it on a random sample.
        means[c] = xs[rng.below(n)];
        covs[c] = {0.01, 0.0, 0.01};
        weights[c] = 1.0 / static_cast<double>(n);
        ++report_.resets;
        continue;
      }
      weights[c] = s.n / static_cast<double>(n);
      means[c] = {s.sp / s.n, s.st / s.n};
      Cov2 cov{s.spp / s.n - means[c].p * means[c].p + cfg_.reg_covar,
               s.spt / s.n - means[c].p * means[c].t,
               s.stt / s.n - means[c].t * means[c].t + cfg_.reg_covar};
      // Guard against numerically indefinite covariance.
      if (cov.det() <= 0.0) {
        const double bump = std::abs(cov.pt) + cfg_.reg_covar;
        cov.pp += bump;
        cov.tt += bump;
      }
      covs[c] = cov;
    }

    // Convergence on relative mean-LL change (paper: change in MLE).
    if (std::isfinite(prev_ll)) {
      const double delta = std::abs(ll - prev_ll);
      const double scale = std::max(1.0, std::abs(prev_ll));
      if (delta / scale < cfg_.tol) {
        report_.converged = true;
        report_.final_mean_log_likelihood = ll;
        return build(PruningGrid::kBuild);
      }
    }
    prev_ll = ll;
  }
  report_.final_mean_log_likelihood = prev_ll;
  return build(PruningGrid::kBuild);
}

}  // namespace icgmm::gmm

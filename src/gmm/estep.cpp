#include "gmm/estep.hpp"

#include <algorithm>
#include <cmath>

#include "gmm/kernel.hpp"
#include "gmm/workers.hpp"

namespace icgmm::gmm {

double e_step_sample(const ScorerKernel& kern, Vec2 x,
                     std::span<double> row) noexcept {
  const double max_term = kern.component_log_terms(x, row);
  double denom = 0.0;
  bool denom_has_max = false;  // then denom >= 1
  for (double& e : row) {
    const double d = e - max_term;
    if (d < kExpZeroBelow || (denom_has_max && d < kExpAbsorbedBelow)) {
      e = 0.0;
      continue;
    }
    e = std::exp(d);
    denom += e;
    denom_has_max = denom_has_max || d == 0.0;
  }
  const double inv_denom = 1.0 / denom;
  for (double& e : row) e *= inv_denom;
  return max_term + std::log(denom);
}

BlockedEStep::BlockedEStep(std::size_t components, std::size_t samples)
    : k_(components),
      rows_(std::min(samples, kEStepBlock) * components),
      ll_terms_(std::min(samples, kEStepBlock)) {}

double BlockedEStep::run(const ScorerKernel& kern, std::span<const Vec2> xs,
                         WorkerTeam& team, std::span<Suff> suff) {
  const std::span<double> rows(rows_);
  double ll = 0.0;
  for (std::size_t first = 0; first < xs.size(); first += kEStepBlock) {
    const std::size_t count = std::min(kEStepBlock, xs.size() - first);
    // Phase 1: each member takes a share of the block's samples.
    team.run([&](unsigned member) noexcept {
      const auto [lo, hi] = team.share(count, member);
      for (std::size_t i = lo; i < hi; ++i) {
        ll_terms_[i] =
            e_step_sample(kern, xs[first + i], rows.subspan(i * k_, k_));
      }
    });
    for (std::size_t i = 0; i < count; ++i) ll += ll_terms_[i];
    // Phase 2: each member takes a share of the components and adds the
    // block's samples to them in sample order.
    team.run([&](unsigned member) noexcept {
      const auto [lo, hi] = team.share(k_, member);
      for (std::size_t i = 0; i < count; ++i) {
        accumulate(suff.subspan(lo, hi - lo),
                   rows.subspan(i * k_ + lo, hi - lo), xs[first + i]);
      }
    });
  }
  return ll;
}

}  // namespace icgmm::gmm

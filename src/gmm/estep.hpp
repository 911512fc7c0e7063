// The EM E-step shared by the offline trainer (EmTrainer, blocked across a
// WorkerTeam) and the online adapter (OnlineEm, one sample at a time).
//
// Both compute, bit for bit, the plain serial loop: per sample, the
// component log terms, their exponentials summed into `denom` in
// component order, the log-likelihood term max + log(denom), and
// responsibilities r = e / denom; per component, statistics summed over
// the samples in sample order, skipping r < 1e-12. Two exponentials are
// skipped because they cannot change a bit (see e_step_sample).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "gmm/gaussian2d.hpp"

namespace icgmm::gmm {

class ScorerKernel;
class WorkerTeam;

/// Responsibilities below this add nothing to a component's statistics.
inline constexpr double kMinResponsibility = 1e-12;

/// d = term - max below this: std::exp(d) is exactly +0.0 (it is under
/// half the least subnormal, e^-745.13).
inline constexpr double kExpZeroBelow = -746.0;
/// Once denom >= 1, d below this: std::exp(d) < 2^-53, under half an ulp
/// of denom, so adding it leaves denom unchanged (e^-36.74 = 2^-53).
inline constexpr double kExpAbsorbedBelow = -37.5;

/// Samples per E-step block: the block's responsibilities take
/// kEStepBlock x K doubles (1 MiB at K = 256).
inline constexpr std::size_t kEStepBlock = 512;

/// Per-component sufficient statistics.
struct Suff {
  double n = 0.0;    ///< sum r
  double sp = 0.0;   ///< sum r * p
  double st = 0.0;   ///< sum r * t
  double spp = 0.0;  ///< sum r * p * p
  double spt = 0.0;  ///< sum r * p * t
  double stt = 0.0;  ///< sum r * t * t

  void add(double r, Vec2 x) noexcept {
    n += r;
    sp += r * x.p;
    st += r * x.t;
    spp += r * x.p * x.p;
    spt += r * x.p * x.t;
    stt += r * x.t * x.t;
  }
};

/// E-step for one sample: writes its K responsibilities to `row` (0 where
/// an exponential was skipped, which leaves r < 1e-12 either way) and
/// returns its log-likelihood term. Requires row.size() == kern.size().
///
/// Skips std::exp(d), d = term - max, where it cannot change a bit:
/// (a) d < kExpZeroBelow, where it is exactly +0.0; (b) d <
/// kExpAbsorbedBelow once the first max term (d == 0, e^0 = 1) is in
/// denom, so denom >= 1 absorbs it and its r < 2^-53 is skipped anyway.
/// NaN and infinite terms fail every comparison and take the full path.
double e_step_sample(const ScorerKernel& kern, Vec2 x,
                     std::span<double> row) noexcept;

/// Adds one sample's responsibilities to the statistics of the same
/// components, skipping r < kMinResponsibility.
inline void accumulate(std::span<Suff> suff, std::span<const double> r,
                       Vec2 x) noexcept {
  for (std::size_t c = 0; c < suff.size(); ++c) {
    if (r[c] < kMinResponsibility) continue;
    suff[c].add(r[c], x);
  }
}

/// The offline E-step over a whole sample set, in blocks of kEStepBlock
/// samples: phase 1 splits a block's samples across the team
/// (e_step_sample), phase 2 splits the components (accumulate in sample
/// order), and the caller sums the log-likelihood terms in sample order.
class BlockedEStep {
 public:
  BlockedEStep(std::size_t components, std::size_t samples);

  /// Adds every sample's statistics to `suff` (K entries) and returns the
  /// sum of their log-likelihood terms.
  double run(const ScorerKernel& kern, std::span<const Vec2> xs,
             WorkerTeam& team, std::span<Suff> suff);

 private:
  std::size_t k_;
  std::vector<double> rows_;      ///< block samples x K responsibilities
  std::vector<double> ll_terms_;  ///< per block sample
};

}  // namespace icgmm::gmm

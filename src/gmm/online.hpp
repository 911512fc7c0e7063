// Online (incremental) EM — stepwise EM in the style of Cappé & Moulines
// (2009): sufficient statistics are updated per mini-batch with a decaying
// step size, letting a deployed ICGMM adapt its model to workload drift
// without retraining from scratch. This is the natural extension of the
// paper's offline-train/online-infer split and is exercised by the drift
// test in tests/test_gmm_online.cpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gmm/estep.hpp"
#include "gmm/mixture.hpp"
#include "trace/preprocess.hpp"

namespace icgmm::gmm {

struct OnlineEmConfig {
  double step_power = 0.7;   ///< step size = (t0 + t)^-power, in (0.5, 1]
  double step_offset = 2.0;  ///< t0
  double reg_covar = 1e-6;
  std::uint32_t batch = 256;  ///< samples per update step
};

/// Wraps a trained mixture and refreshes it from a stream of samples.
/// The normalizer is frozen at construction (the FPGA's fixed input
/// scaling); samples outside the original box are clamped by the math
/// (scores just fall off the support until components migrate).
class OnlineEm {
 public:
  /// Seeds the online state from an offline-trained model.
  OnlineEm(GaussianMixture initial, OnlineEmConfig cfg = {});

  /// Consumes raw (page, timestamp) samples; updates the model every
  /// `batch` samples. Returns the number of M-step updates performed.
  std::uint32_t observe(std::span<const trace::GmmSample> samples);

  /// Current model snapshot (rebuilds Gaussians from running statistics).
  /// After the first update it carries no pruning grid; copy it and call
  /// build_pruning_grid() before serving from it.
  const GaussianMixture& model() const noexcept { return model_; }

  std::uint64_t steps() const noexcept { return steps_; }

 private:
  void accumulate(const trace::GmmSample& sample);
  void m_step();

  OnlineEmConfig cfg_;
  GaussianMixture model_;
  // Running (exponentially weighted) sufficient statistics per component.
  std::vector<Suff> stats_;
  // Mini-batch accumulators.
  std::vector<Suff> batch_stats_;
  // Per-sample responsibility scratch (was thread_local; a member keeps
  // the adapter allocation-free and self-contained).
  std::vector<double> terms_;
  std::uint32_t batch_count_ = 0;
  std::uint64_t steps_ = 0;
};

}  // namespace icgmm::gmm

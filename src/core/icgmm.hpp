// IcgmmSystem — the end-to-end facade: collect (generate) a trace, train
// the GMM policy engine, tune the admission threshold, and evaluate any
// cache policy on the evaluation split. This is the API the examples and
// the Fig. 6 / Table 1 benches drive.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cache/policies/classic.hpp"
#include "core/policy_engine.hpp"
#include "core/threshold.hpp"
#include "runtime/runtime.hpp"
#include "sim/engine.hpp"
#include "trace/generator.hpp"

namespace icgmm::core {

enum class BaselinePolicy : std::uint8_t { kLru, kFifo, kRandom, kLfu, kClock };

const char* to_string(BaselinePolicy p) noexcept;

std::unique_ptr<cache::ReplacementPolicy> make_baseline(BaselinePolicy p);

struct IcgmmConfig {
  PolicyEngineConfig policy;
  sim::EngineConfig engine;
  /// Requests from the head of the evaluation trace used for threshold
  /// tuning (0 = use the whole trace).
  std::size_t tuning_prefix = 200000;
  bool tune_threshold_by_simulation = true;
  /// Percentile used when simulation-based tuning is off.
  double threshold_percentile = 0.05;
};

/// Result bundle for one benchmark: LRU baseline plus the three GMM
/// strategies, with the paper's Fig. 6 "pick the best" selection.
struct StrategyComparison {
  std::string benchmark;
  sim::RunResult lru;
  sim::RunResult gmm_caching;
  sim::RunResult gmm_eviction;
  sim::RunResult gmm_both;

  const sim::RunResult& best_gmm() const noexcept;
  /// Absolute miss-rate reduction of the best strategy vs LRU (Fig. 6).
  double miss_rate_reduction() const noexcept;
  /// Relative AMAT reduction of the best strategy vs LRU (Table 1), %.
  double amat_reduction_percent() const noexcept;
};

class IcgmmSystem {
 public:
  explicit IcgmmSystem(IcgmmConfig cfg = {});

  const IcgmmConfig& config() const noexcept { return cfg_; }
  PolicyEngine& policy_engine() noexcept { return engine_; }
  const PolicyEngine& policy_engine() const noexcept { return engine_; }

  /// Trains the GMM on the trace (which is also the evaluation workload —
  /// the paper trains and evaluates per benchmark).
  void train(const trace::Trace& collected);

  /// Runs one GMM strategy over the trace. Threshold: tuned (if enabled)
  /// for admission strategies; irrelevant for eviction-only.
  sim::RunResult run_gmm(const trace::Trace& trace, cache::GmmStrategy strategy);

  /// Runs a classic baseline policy over the trace.
  sim::RunResult run_baseline(const trace::Trace& trace, BaselinePolicy p);

  /// LRU + all three GMM strategies (the full Fig. 6 column group).
  StrategyComparison compare(const trace::Trace& trace);

  /// The admission threshold run_gmm would use for this trace/strategy —
  /// tuned by simulation or percentile per the system config. Public so a
  /// serving runtime can be wired with the same threshold without a full
  /// evaluation run.
  double pick_threshold(const trace::Trace& trace,
                        cache::GmmStrategy strategy) const;

  /// Builds a concurrent serving runtime whose per-shard GMM policies
  /// score against a snapshot of the trained model (drift adaptation per
  /// cfg.adapt). Throws std::logic_error when not trained.
  std::unique_ptr<runtime::Runtime> make_runtime(
      runtime::RuntimeConfig cfg, cache::GmmStrategy strategy,
      double threshold) const;

  /// The threshold the last admission-strategy run used.
  double last_threshold() const noexcept { return last_threshold_; }

  /// The trained policy engine — lets callers wire additional scorers
  /// (e.g. a shadow GmmPolicy) against the same model.
  const PolicyEngine& engine() const noexcept { return engine_; }

 private:
  IcgmmConfig cfg_;
  PolicyEngine engine_;
  double last_threshold_ = 0.0;
};

}  // namespace icgmm::core

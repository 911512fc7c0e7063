#include "core/icgmm.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace icgmm::core {

const char* to_string(BaselinePolicy p) noexcept {
  switch (p) {
    case BaselinePolicy::kLru: return "LRU";
    case BaselinePolicy::kFifo: return "FIFO";
    case BaselinePolicy::kRandom: return "Random";
    case BaselinePolicy::kLfu: return "LFU";
    case BaselinePolicy::kClock: return "CLOCK";
  }
  return "unknown";
}

std::unique_ptr<cache::ReplacementPolicy> make_baseline(BaselinePolicy p) {
  switch (p) {
    case BaselinePolicy::kLru: return std::make_unique<cache::LruPolicy>();
    case BaselinePolicy::kFifo: return std::make_unique<cache::FifoPolicy>();
    case BaselinePolicy::kRandom: return std::make_unique<cache::RandomPolicy>();
    case BaselinePolicy::kLfu: return std::make_unique<cache::LfuPolicy>();
    case BaselinePolicy::kClock: return std::make_unique<cache::ClockPolicy>();
  }
  throw std::invalid_argument("unknown baseline policy");
}

const sim::RunResult& StrategyComparison::best_gmm() const noexcept {
  const sim::RunResult* best = &gmm_caching;
  if (gmm_eviction.miss_rate() < best->miss_rate()) best = &gmm_eviction;
  if (gmm_both.miss_rate() < best->miss_rate()) best = &gmm_both;
  return *best;
}

double StrategyComparison::miss_rate_reduction() const noexcept {
  return lru.miss_rate() - best_gmm().miss_rate();
}

double StrategyComparison::amat_reduction_percent() const noexcept {
  if (lru.amat_us() == 0.0) return 0.0;
  return (lru.amat_us() - best_gmm().amat_us()) / lru.amat_us() * 100.0;
}

IcgmmSystem::IcgmmSystem(IcgmmConfig cfg)
    : cfg_(std::move(cfg)), engine_(cfg_.policy) {}

void IcgmmSystem::train(const trace::Trace& collected) {
  engine_.train(collected);
}

double IcgmmSystem::pick_threshold(const trace::Trace& trace,
                                   cache::GmmStrategy strategy) const {
  if (strategy == cache::GmmStrategy::kEvictionOnly) {
    return -std::numeric_limits<double>::infinity();
  }
  if (!cfg_.tune_threshold_by_simulation) {
    return threshold_at_percentile(engine_.training_scores(),
                                   cfg_.threshold_percentile);
  }
  const trace::Trace prefix =
      cfg_.tuning_prefix > 0 && cfg_.tuning_prefix < trace.size()
          ? trace.slice(0, cfg_.tuning_prefix)
          : trace;
  return tune_threshold(engine_, prefix, cfg_.engine, strategy);
}

sim::RunResult IcgmmSystem::run_gmm(const trace::Trace& trace,
                                    cache::GmmStrategy strategy) {
  last_threshold_ = pick_threshold(trace, strategy);
  sim::EngineConfig cfg = cfg_.engine;
  cfg.policy_runs_on_miss = true;  // GMM scores every miss
  return sim::run_trace(trace, cfg,
                        engine_.make_policy(strategy, last_threshold_));
}

sim::RunResult IcgmmSystem::run_baseline(const trace::Trace& trace,
                                         BaselinePolicy p) {
  sim::EngineConfig cfg = cfg_.engine;
  cfg.policy_runs_on_miss = false;  // classic policies are free in hardware
  return sim::run_trace(trace, cfg, make_baseline(p));
}

std::unique_ptr<runtime::Runtime> IcgmmSystem::make_runtime(
    runtime::RuntimeConfig cfg, cache::GmmStrategy strategy,
    double threshold) const {
  // Same policy configuration make_policy hands the simulator, so a
  // 1-shard/1-thread runtime reproduces run_gmm decisions bit for bit.
  return std::make_unique<runtime::Runtime>(
      cfg, engine_.model(),
      cache::GmmPolicyConfig{.strategy = strategy, .threshold = threshold});
}

StrategyComparison IcgmmSystem::compare(const trace::Trace& trace) {
  StrategyComparison cmp;
  cmp.benchmark = trace.name();
  cmp.lru = run_baseline(trace, BaselinePolicy::kLru);
  cmp.gmm_caching = run_gmm(trace, cache::GmmStrategy::kCachingOnly);
  cmp.gmm_eviction = run_gmm(trace, cache::GmmStrategy::kEvictionOnly);
  cmp.gmm_both = run_gmm(trace, cache::GmmStrategy::kCachingEviction);
  return cmp;
}

}  // namespace icgmm::core

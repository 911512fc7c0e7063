// PolicyEngine / threshold / IcgmmSystem tests at small scale.
#include "core/icgmm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/cache.hpp"
#include "gmm/model_io.hpp"
#include "test_util.hpp"
#include "trace/generator.hpp"

namespace icgmm::core {
namespace {

IcgmmConfig small_config() {
  IcgmmConfig cfg = test_util::small_system_config(
      /*components=*/32, /*max_iters=*/12, /*train_subsample=*/4000,
      /*tuning_prefix=*/20000);
  cfg.engine.cache = test_util::tiny_cache(/*sets=*/64, /*ways=*/4);
  return cfg;
}

TEST(PolicyEngine, UntrainedThrows) {
  PolicyEngine engine;
  EXPECT_THROW(engine.model(), std::logic_error);
  EXPECT_THROW(engine.score_fn(), std::logic_error);
}

TEST(PolicyEngine, TrainProducesModelAndScores) {
  const trace::Trace t = trace::generate(trace::Benchmark::kSysbench, 40000, 3);
  PolicyEngine engine({.em = {.components = 16, .max_iters = 10},
                       .train_subsample = 3000});
  const gmm::FitReport& report = engine.train(t);
  EXPECT_TRUE(engine.trained());
  EXPECT_GT(report.iterations, 0u);
  EXPECT_EQ(engine.model().size(), 16u);
  // Training scores are sorted ascending.
  const auto& scores = engine.training_scores();
  ASSERT_FALSE(scores.empty());
  for (std::size_t i = 1; i < scores.size(); ++i) {
    ASSERT_LE(scores[i - 1], scores[i]);
  }
}

TEST(PolicyEngine, ScoreFnOutlivesEngine) {
  cache::ScoreFn fn;
  {
    const trace::Trace t = trace::generate(trace::Benchmark::kHeap, 30000, 3);
    PolicyEngine engine({.em = {.components = 8, .max_iters = 8},
                         .train_subsample = 2000});
    engine.train(t);
    fn = engine.score_fn();
  }  // engine destroyed; the closure holds a copy of the model
  EXPECT_TRUE(std::isfinite(fn(100, 50)));
}

TEST(PolicyEngine, LoadPretrainedModel) {
  std::vector<gmm::Gaussian2D> comps;
  comps.emplace_back(gmm::Vec2{0.5, 0.5}, gmm::Cov2{0.1, 0, 0.1});
  PolicyEngine engine;
  engine.load(gmm::GaussianMixture({1.0}, std::move(comps)));
  EXPECT_TRUE(engine.trained());
  EXPECT_NO_THROW(engine.make_policy(cache::GmmStrategy::kEvictionOnly, 0.0));
}

TEST(PolicyEngine, PolicySettlesDecisionsAsServingDoes) {
  // The simulator's policy brackets and span-scores like a serving
  // shard's: on a K = 256 model it settles decisions unscored, and every
  // decision equals a policy that scores them all.
  Rng rng(0x5e77);
  PolicyEngine engine;
  engine.load(test_util::narrow_mixture(256, rng));
  ASSERT_TRUE(engine.model().kernel().pruned());

  const cache::ScoreFn score = engine.score_fn();
  trace::Zipf zipf(4096, 0.8);
  std::vector<cache::AccessContext> stream;
  std::vector<double> scores;
  for (std::size_t i = 0; i < 20000; ++i) {
    stream.push_back({.page = zipf.sample(rng) * 16 + rng.below(16),
                      .timestamp = i / 20,
                      .is_write = rng.chance(0.15)});
    scores.push_back(score(stream.back().page, stream.back().timestamp));
  }
  std::sort(scores.begin(), scores.end());
  const cache::GmmPolicyConfig cfg{
      .strategy = cache::GmmStrategy::kCachingEviction,
      .threshold = scores[scores.size() / 2]};
  auto policy = engine.make_policy(cfg);
  const cache::GmmPolicy& wired = *policy;
  cache::SetAssociativeCache a(test_util::tiny_cache(64, 8), std::move(policy));
  cache::SetAssociativeCache b(
      test_util::tiny_cache(64, 8),
      std::make_unique<cache::GmmPolicy>(score, cfg));
  for (const cache::AccessContext& ctx : stream) {
    const cache::AccessResult x = a.access(ctx);
    const cache::AccessResult y = b.access(ctx);
    ASSERT_EQ(x.hit, y.hit);
    ASSERT_EQ(x.admitted, y.admitted);
    ASSERT_EQ(x.victim_page, y.victim_page);
  }
  const cache::GmmPolicy::SettledCounts& settled = wired.settled();
  EXPECT_GT(settled.bypasses + settled.admissions + settled.ways, 0u);
}

TEST(Threshold, PercentileSemantics) {
  const std::vector<double> scores = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(threshold_at_percentile(scores, 0.0),
            -std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(threshold_at_percentile(scores, 0.5), 6.0);
  EXPECT_DOUBLE_EQ(threshold_at_percentile(scores, 1.0), 10.0);
  EXPECT_EQ(threshold_at_percentile({}, 0.5),
            -std::numeric_limits<double>::infinity());
}

TEST(Threshold, SweepReportsAllCandidates) {
  const trace::Trace t = trace::generate(trace::Benchmark::kHashmap, 40000, 5);
  IcgmmConfig cfg = small_config();
  PolicyEngine engine(cfg.policy);
  engine.train(t);
  const double grid[] = {0.0, 0.1, 0.3};
  const auto points = sweep_thresholds(engine, t.slice(0, 10000), cfg.engine,
                                       cache::GmmStrategy::kCachingOnly, grid);
  ASSERT_EQ(points.size(), 3u);
  for (const auto& p : points) {
    EXPECT_GE(p.miss_rate, 0.0);
    EXPECT_LE(p.miss_rate, 1.0);
    EXPECT_GT(p.amat_us, 0.0);
  }
  // Thresholds are non-decreasing in the percentile.
  EXPECT_LE(points[0].threshold, points[1].threshold);
  EXPECT_LE(points[1].threshold, points[2].threshold);
}

TEST(IcgmmSystem, BaselinesRunWithoutTraining) {
  const trace::Trace t = trace::generate(trace::Benchmark::kParsec, 30000, 7);
  IcgmmSystem system(small_config());
  for (BaselinePolicy p : {BaselinePolicy::kLru, BaselinePolicy::kFifo,
                           BaselinePolicy::kRandom, BaselinePolicy::kLfu,
                           BaselinePolicy::kClock}) {
    const sim::RunResult r = system.run_baseline(t, p);
    EXPECT_EQ(r.policy_name, to_string(p));
    EXPECT_GT(r.requests, 0u);
  }
}

TEST(IcgmmSystem, GmmRunRequiresTraining) {
  const trace::Trace t = trace::generate(trace::Benchmark::kParsec, 20000, 7);
  IcgmmSystem system(small_config());
  EXPECT_THROW(system.run_gmm(t, cache::GmmStrategy::kEvictionOnly),
               std::logic_error);
}

TEST(IcgmmSystem, CompareProducesAllFourRuns) {
  const trace::Trace t = trace::generate(trace::Benchmark::kHashmap, 60000, 7);
  IcgmmSystem system(small_config());
  system.train(t);
  const StrategyComparison cmp = system.compare(t);
  EXPECT_EQ(cmp.lru.policy_name, "LRU");
  EXPECT_EQ(cmp.gmm_caching.policy_name, "GMM-caching");
  EXPECT_EQ(cmp.gmm_eviction.policy_name, "GMM-eviction");
  EXPECT_EQ(cmp.gmm_both.policy_name, "GMM-caching-eviction");
  EXPECT_EQ(cmp.lru.requests, cmp.gmm_both.requests);
  // best_gmm picks the minimum miss rate of the three.
  const double best = cmp.best_gmm().miss_rate();
  EXPECT_LE(best, cmp.gmm_caching.miss_rate());
  EXPECT_LE(best, cmp.gmm_eviction.miss_rate());
  EXPECT_LE(best, cmp.gmm_both.miss_rate());
}

TEST(IcgmmSystem, EvictionOnlyIgnoresThreshold) {
  const trace::Trace t = trace::generate(trace::Benchmark::kHeap, 30000, 7);
  IcgmmSystem system(small_config());
  system.train(t);
  const sim::RunResult r = system.run_gmm(t, cache::GmmStrategy::kEvictionOnly);
  EXPECT_EQ(r.stats.bypasses, 0u);  // eviction-only admits everything
  EXPECT_EQ(system.last_threshold(),
            -std::numeric_limits<double>::infinity());
}

TEST(IcgmmSystem, PercentileThresholdModeBypasses) {
  const trace::Trace t = trace::generate(trace::Benchmark::kHashmap, 50000, 7);
  IcgmmConfig cfg = small_config();
  cfg.tune_threshold_by_simulation = false;
  cfg.threshold_percentile = 0.3;
  IcgmmSystem system(cfg);
  system.train(t);
  const sim::RunResult r = system.run_gmm(t, cache::GmmStrategy::kCachingOnly);
  EXPECT_GT(r.stats.bypasses, 0u);  // 30th-percentile threshold must bypass
  EXPECT_TRUE(std::isfinite(system.last_threshold()));
}

TEST(IcgmmSystem, PolicyLatencyFullyOverlapped) {
  const trace::Trace t = trace::generate(trace::Benchmark::kSysbench, 30000, 7);
  IcgmmSystem system(small_config());
  system.train(t);
  const sim::RunResult r =
      system.run_gmm(t, cache::GmmStrategy::kCachingEviction);
  EXPECT_EQ(r.latency.policy_ns, 0u);  // 3 us hides behind 75/900 us SSD
  EXPECT_GT(r.policy_inferences, 0u);
}

}  // namespace
}  // namespace icgmm::core

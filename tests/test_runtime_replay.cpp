// Runtime facade + replay driver: a 1-thread/1-shard runtime reproduces
// sim::run_trace bit for bit (stats, latency, inference counts) for both
// classic and GMM policies; multi-threaded sharded replay keeps the
// global stat identities and sums the serving threads' CPU; the adaptive
// runtime publishes models while serving.
#include <gtest/gtest.h>

#include <time.h>

#include <cstdint>
#include <limits>
#include <memory>

#include "cache/policies/classic.hpp"
#include "core/icgmm.hpp"
#include "runtime/replay.hpp"
#include "sim/engine.hpp"
#include "test_util.hpp"

namespace icgmm {
namespace {

void expect_run_eq(const sim::RunResult& a, const sim::RunResult& b) {
  EXPECT_EQ(a.policy_name, b.policy_name);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.policy_inferences, b.policy_inferences);
  EXPECT_EQ(a.stats.accesses, b.stats.accesses);
  EXPECT_EQ(a.stats.hits, b.stats.hits);
  EXPECT_EQ(a.stats.read_misses, b.stats.read_misses);
  EXPECT_EQ(a.stats.write_misses, b.stats.write_misses);
  EXPECT_EQ(a.stats.fills, b.stats.fills);
  EXPECT_EQ(a.stats.bypasses, b.stats.bypasses);
  EXPECT_EQ(a.stats.evictions, b.stats.evictions);
  EXPECT_EQ(a.stats.dirty_evictions, b.stats.dirty_evictions);
  EXPECT_EQ(a.latency.hit_ns, b.latency.hit_ns);
  EXPECT_EQ(a.latency.fill_read_ns, b.latency.fill_read_ns);
  EXPECT_EQ(a.latency.writeback_ns, b.latency.writeback_ns);
  EXPECT_EQ(a.latency.bypass_ns, b.latency.bypass_ns);
  EXPECT_EQ(a.latency.policy_ns, b.latency.policy_ns);
}

sim::EngineConfig small_engine() {
  sim::EngineConfig cfg;
  cfg.cache = test_util::tiny_cache(64, 8);
  return cfg;
}

TEST(RuntimeReplay, SingleThreadSingleShardMatchesSimulatorForLru) {
  const trace::Trace t = test_util::zipf_trace(60000, 2048, 0.9, 0x11);
  const sim::EngineConfig ecfg = small_engine();

  const sim::RunResult sim_result =
      sim::run_trace(t, ecfg, std::make_unique<cache::LruPolicy>());

  runtime::Runtime rt(
      runtime::RuntimeConfig{.cache = ecfg.cache, .shards = 1},
      cache::LruPolicy());
  runtime::ReplayConfig serve;
  serve.threads = 1;
  serve.latency = ecfg.latency;
  serve.transform = ecfg.transform;
  serve.warmup_fraction = ecfg.warmup_fraction;
  const runtime::ReplayResult served = runtime::replay_trace(rt, t, serve);

  expect_run_eq(served.run, sim_result);
  EXPECT_GT(served.elapsed_seconds, 0.0);
  EXPECT_GT(served.requests_per_second, 0.0);
}

TEST(RuntimeReplay, SingleThreadSingleShardMatchesSimulatorForGmm) {
  const trace::Trace t = test_util::zipf_trace(60000, 2048, 0.9, 0x22);
  core::IcgmmConfig cfg = test_util::small_system_config();
  cfg.engine.cache = test_util::tiny_cache(64, 8);
  core::IcgmmSystem system(cfg);
  system.train(t);

  const auto strategy = cache::GmmStrategy::kCachingEviction;
  const sim::RunResult sim_result = system.run_gmm(t, strategy);

  // Same threshold-tuning procedure the simulator path ran.
  const double threshold = system.pick_threshold(t, strategy);
  EXPECT_EQ(threshold, system.last_threshold());

  const auto rt = system.make_runtime(
      runtime::RuntimeConfig{.cache = cfg.engine.cache, .shards = 1}, strategy,
      threshold);
  runtime::ReplayConfig serve;
  serve.threads = 1;
  serve.latency = cfg.engine.latency;
  serve.transform = cfg.engine.transform;
  serve.policy_runs_on_miss = true;  // as run_gmm configures the simulator
  serve.warmup_fraction = cfg.engine.warmup_fraction;
  const runtime::ReplayResult served = runtime::replay_trace(*rt, t, serve);

  expect_run_eq(served.run, sim_result);
  EXPECT_GT(served.run.policy_inferences, 0u);
}

TEST(RuntimeReplay, MultiThreadShardedReplayKeepsIdentities) {
  const std::size_t kRequests = 80000;
  const trace::Trace t = test_util::zipf_trace(kRequests, 4096, 0.9, 0x33);

  runtime::Runtime rt(
      runtime::RuntimeConfig{.cache = test_util::tiny_cache(64, 8),
                             .shards = 8},
      cache::LruPolicy());
  runtime::ReplayConfig serve;
  serve.threads = 4;
  const runtime::ReplayResult served = runtime::replay_trace(rt, t, serve);

  // Multi-threaded replay measures the whole run (no warm-up clearing).
  EXPECT_EQ(served.run.requests, kRequests);
  const cache::CacheStats& s = served.run.stats;
  EXPECT_EQ(s.accesses, kRequests);
  EXPECT_EQ(s.hits + s.misses(), s.accesses);
  EXPECT_EQ(s.fills + s.bypasses, s.misses());

  const runtime::RuntimeSnapshot snap = rt.snapshot();
  cache::CacheStats sum;
  for (const cache::CacheStats& shard : snap.per_shard) {
    sum.accesses += shard.accesses;
    sum.hits += shard.hits;
  }
  EXPECT_EQ(sum.accesses, s.accesses);
  EXPECT_EQ(sum.hits, s.hits);
}

TEST(RuntimeReplay, ServingCpuSumsTheServingThreadsOwnClocks) {
  // Each serving thread's CPU clock over its chunk, summed: some CPU, and
  // no more than the whole process used over the replay.
  const trace::Trace t = test_util::zipf_trace(40000, 4096, 0.9, 0x44);
  for (const std::uint32_t threads : {1u, 3u}) {
    SCOPED_TRACE(testing::Message() << threads << " serving threads");
    runtime::Runtime rt(
        runtime::RuntimeConfig{.cache = test_util::tiny_cache(64, 8),
                               .shards = 4},
        cache::LruPolicy());
    runtime::ReplayConfig serve;
    serve.threads = threads;
    const auto process_ns = [] {
      timespec ts{};
      ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
      return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
             static_cast<std::uint64_t>(ts.tv_nsec);
    };
    const std::uint64_t before = process_ns();
    const runtime::ReplayResult served = runtime::replay_trace(rt, t, serve);
    const std::uint64_t process = process_ns() - before;
    EXPECT_GT(served.serving_cpu_ns, 0u);
    EXPECT_LE(served.serving_cpu_ns, process);
  }
}

TEST(RuntimeReplay, ShardedGmmRuntimeServesAndCountsInferences) {
  const trace::Trace t = test_util::zipf_trace(60000, 2048, 0.9, 0x44);
  core::IcgmmConfig cfg = test_util::small_system_config();
  cfg.engine.cache = test_util::tiny_cache(64, 8);
  core::IcgmmSystem system(cfg);
  system.train(t);

  const auto rt = system.make_runtime(
      runtime::RuntimeConfig{.cache = cfg.engine.cache, .shards = 4},
      cache::GmmStrategy::kEvictionOnly,
      -std::numeric_limits<double>::infinity());
  runtime::ReplayConfig serve;
  serve.threads = 4;
  serve.policy_runs_on_miss = true;
  const runtime::ReplayResult served = runtime::replay_trace(*rt, t, serve);

  EXPECT_EQ(served.run.stats.accesses, t.size());
  EXPECT_GT(served.run.policy_inferences, 0u);
  const runtime::RuntimeSnapshot snap = rt->snapshot();
  EXPECT_EQ(snap.inferences, served.run.policy_inferences);
  EXPECT_GT(snap.score_batches, 0u);  // eviction rescores ran batched
}

TEST(RuntimeReplay, AdaptiveRuntimePublishesModelsWhileServing) {
  const trace::Trace t = test_util::zipf_trace(60000, 2048, 0.9, 0x55);
  core::IcgmmConfig cfg = test_util::small_system_config();
  cfg.engine.cache = test_util::tiny_cache(64, 8);
  core::IcgmmSystem system(cfg);
  system.train(t);

  runtime::RuntimeConfig rcfg{.cache = cfg.engine.cache, .shards = 4};
  rcfg.adapt = true;
  rcfg.sample_every = 4;
  rcfg.refresher.online.batch = 256;
  const auto rt = system.make_runtime(
      rcfg, cache::GmmStrategy::kEvictionOnly,
      -std::numeric_limits<double>::infinity());
  rt->start();
  runtime::ReplayConfig serve;
  serve.threads = 2;
  serve.policy_runs_on_miss = true;
  runtime::replay_trace(*rt, t, serve);
  rt->stop();  // drains the sample queue

  const runtime::RuntimeSnapshot snap = rt->snapshot();
  EXPECT_GT(snap.samples_observed, 0u);
  EXPECT_GE(snap.models_published, 1u);
  EXPECT_EQ(snap.model_version, snap.models_published);
  // Sampling clocks are per serving thread, so the expected count is the
  // sum of per-chunk ceilings over replay's contiguous chunking (base
  // size + remainder spread over the first chunks).
  std::uint64_t expected_samples = 0;
  const std::size_t base = t.size() / serve.threads;
  const std::size_t extra = t.size() % serve.threads;
  for (std::uint32_t th = 0; th < serve.threads; ++th) {
    const std::size_t chunk = base + (th < extra ? 1 : 0);
    expected_samples += (chunk + rcfg.sample_every - 1) / rcfg.sample_every;
  }
  EXPECT_EQ(snap.samples_observed + snap.samples_dropped, expected_samples);
}

}  // namespace
}  // namespace icgmm

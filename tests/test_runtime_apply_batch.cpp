// Runtime::apply_batch — the span entry point replay_trace and the net
// server share, served shard-grouped (one lock hold per shard per span).
// Replaying a trace through replay_trace must be bit-identical to
// hand-feeding the same stream through apply_batch at any chunking,
// per-request results must match access() exactly, and the GMM inference
// counters must agree — at threads == 1 everything is deterministic, so
// all comparisons are exact equality. Concurrent spans keep every counter
// identity, and a contended group lock is counted as a lock wait.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <latch>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "cache/policies/classic.hpp"
#include "common/rng.hpp"
#include "core/icgmm.hpp"
#include "obs/registry.hpp"
#include "runtime/replay.hpp"
#include "test_util.hpp"
#include "trace/timestamp_transform.hpp"

namespace icgmm {
namespace {

void expect_stats_eq(const cache::CacheStats& a, const cache::CacheStats& b) {
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.read_misses, b.read_misses);
  EXPECT_EQ(a.write_misses, b.write_misses);
  EXPECT_EQ(a.fills, b.fills);
  EXPECT_EQ(a.bypasses, b.bypasses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.dirty_evictions, b.dirty_evictions);
}

/// The access stream replay_trace generates at threads == 1 (trace
/// order, fresh Algorithm-1 clock), with replay's warm-up index.
std::vector<runtime::Access> make_stream(const trace::Trace& t) {
  trace::TimestampTransform transform;
  std::vector<runtime::Access> stream;
  stream.reserve(t.size());
  for (const trace::Record& r : t) {
    stream.push_back({.page = r.page(),
                      .timestamp = transform.next(),
                      .is_write = r.is_write()});
  }
  return stream;
}

/// Marks 15% of the requests writes (seeded), so the per-request
/// comparisons cover write misses and dirty evictions too.
std::vector<runtime::Access> with_writes(std::vector<runtime::Access> stream,
                                         std::uint64_t seed) {
  Rng rng(seed);
  for (runtime::Access& a : stream) a.is_write = rng.chance(0.15);
  return stream;
}

::testing::AssertionResult results_equal(
    std::span<const cache::AccessResult> actual,
    std::span<const cache::AccessResult> expected) {
  if (actual.size() != expected.size()) {
    return ::testing::AssertionFailure() << "size " << actual.size()
                                         << " != " << expected.size();
  }
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const cache::AccessResult& a = actual[i];
    const cache::AccessResult& e = expected[i];
    if (a.hit != e.hit || a.admitted != e.admitted || a.evicted != e.evicted ||
        a.evicted_dirty != e.evicted_dirty || a.is_write != e.is_write ||
        (a.evicted && a.victim_page != e.victim_page)) {
      return ::testing::AssertionFailure()
             << "request " << i << ": hit " << a.hit << "/" << e.hit
             << " admitted " << a.admitted << "/" << e.admitted
             << " evicted " << a.evicted << "/" << e.evicted << " victim "
             << a.victim_page << "/" << e.victim_page;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Serves `stream` through a fresh runtime per chunking in {1, 7, 64,
/// whole span} and requires every per-request result, the merged stats and
/// the inference count to equal per-element access() on a fresh runtime.
template <class MakeRuntime>
void expect_spans_equal_access(const MakeRuntime& make,
                               const std::vector<runtime::Access>& stream) {
  const std::unique_ptr<runtime::Runtime> ref = make();
  std::vector<cache::AccessResult> expected;
  expected.reserve(stream.size());
  for (const runtime::Access& a : stream) {
    expected.push_back(ref->access(a.page, a.timestamp, a.is_write));
  }
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{7}, std::size_t{64}, stream.size()}) {
    SCOPED_TRACE(::testing::Message() << "chunk " << chunk);
    const std::unique_ptr<runtime::Runtime> rt = make();
    std::vector<cache::AccessResult> results(stream.size());
    for (std::size_t i = 0; i < stream.size(); i += chunk) {
      const std::size_t n = std::min(chunk, stream.size() - i);
      rt->apply_batch({stream.data() + i, n}, {results.data() + i, n});
    }
    EXPECT_TRUE(results_equal(results, expected));
    expect_stats_eq(rt->cache().merged_stats(), ref->cache().merged_stats());
    EXPECT_EQ(rt->inferences(), ref->inferences());
  }
}

TEST(RuntimeApplyBatch, ReplayVsManualBatchesBitIdenticalStatsLru) {
  const trace::Trace t = test_util::zipf_trace(50000, 2048, 0.9, 0xB1);
  const runtime::RuntimeConfig rcfg{.cache = test_util::tiny_cache(64, 8),
                                    .shards = 1};

  runtime::Runtime replayed(rcfg, cache::LruPolicy());
  runtime::ReplayConfig cfg;
  cfg.threads = 1;
  cfg.warmup_fraction = 0.2;
  runtime::replay_trace(replayed, t, cfg);

  const std::vector<runtime::Access> stream = make_stream(t);
  const std::size_t warmup = t.size() / 5;
  for (const std::size_t chunk : {1u, 13u, 256u, 4096u}) {
    runtime::Runtime batched(rcfg, cache::LruPolicy());
    std::size_t i = 0;
    while (i < stream.size()) {
      std::size_t n = std::min(chunk, stream.size() - i);
      if (i < warmup) n = std::min(n, warmup - i);
      batched.apply_batch({stream.data() + i, n});
      i += n;
      if (i == warmup) batched.clear_stats();
    }
    expect_stats_eq(batched.cache().merged_stats(),
                    replayed.cache().merged_stats());
  }
}

TEST(RuntimeApplyBatch, ReplayVsBatchBitIdenticalStatsAndInferencesGmm) {
  const trace::Trace t = test_util::zipf_trace(40000, 2048, 0.9, 0xB2);
  core::IcgmmConfig cfg = test_util::small_system_config();
  cfg.engine.cache = test_util::tiny_cache(64, 8);
  core::IcgmmSystem system(cfg);
  system.train(t);
  const auto strategy = cache::GmmStrategy::kCachingEviction;
  const double threshold = system.pick_threshold(t, strategy);
  const runtime::RuntimeConfig rcfg{.cache = cfg.engine.cache, .shards = 1};

  const auto replayed = system.make_runtime(rcfg, strategy, threshold);
  runtime::ReplayConfig replay_cfg;
  replay_cfg.threads = 1;
  replay_cfg.warmup_fraction = 0.0;
  const runtime::ReplayResult ref =
      runtime::replay_trace(*replayed, t, replay_cfg);

  const auto batched = system.make_runtime(rcfg, strategy, threshold);
  const std::vector<runtime::Access> stream = make_stream(t);
  for (std::size_t i = 0; i < stream.size(); i += 777) {
    batched->apply_batch(
        {stream.data() + i, std::min<std::size_t>(777, stream.size() - i)});
  }

  expect_stats_eq(batched->cache().merged_stats(), ref.run.stats);
  EXPECT_EQ(batched->inferences(), ref.run.policy_inferences);
  EXPECT_GT(batched->inferences(), 0u);
}

TEST(RuntimeApplyBatch, PerRequestResultsMatchAccessExactly) {
  const trace::Trace t = test_util::zipf_trace(20000, 1024, 0.9, 0xB3);
  const runtime::RuntimeConfig rcfg{.cache = test_util::tiny_cache(32, 4),
                                    .shards = 2};
  expect_spans_equal_access(
      [&rcfg] {
        return std::make_unique<runtime::Runtime>(rcfg, cache::LruPolicy());
      },
      with_writes(make_stream(t), 0xB3));
}

TEST(RuntimeApplyBatch, GmmBothPerRequestResultsAndInferencesMatchAccess) {
  // gmm-both (GMM admission + GMM eviction) at 4 shards: the grouped path
  // reorders requests across shards, never within one, so every decision —
  // victims and scorings included — is the per-element one.
  const trace::Trace t = test_util::zipf_trace(20000, 2048, 0.9, 0xB4);
  core::IcgmmConfig cfg = test_util::small_system_config();
  cfg.engine.cache = test_util::tiny_cache(64, 8);
  core::IcgmmSystem system(cfg);
  system.train(t);
  const auto strategy = cache::GmmStrategy::kCachingEviction;
  const double threshold = system.pick_threshold(t, strategy);
  const runtime::RuntimeConfig rcfg{.cache = cfg.engine.cache, .shards = 4};
  const std::vector<runtime::Access> stream = with_writes(make_stream(t), 0xB4);
  expect_spans_equal_access(
      [&] { return system.make_runtime(rcfg, strategy, threshold); }, stream);

  const auto probe = system.make_runtime(rcfg, strategy, threshold);
  probe->apply_batch(stream);
  EXPECT_GT(probe->inferences(), 0u);
  EXPECT_GT(probe->cache().merged_stats().evictions, 0u);
  EXPECT_GT(probe->cache().merged_stats().write_misses, 0u);
}

/// Four threads serve `stream` in interleaved 64-request frames, so every
/// thread touches every shard all along, then join.
void serve_interleaved(runtime::Runtime& rt,
                       const std::vector<runtime::Access>& stream) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kFrame = 64;
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (std::size_t i = w * kFrame; i < stream.size();
           i += kThreads * kFrame) {
        const std::size_t n = std::min(kFrame, stream.size() - i);
        rt.apply_batch({stream.data() + i, n});
      }
    });
  }
  for (std::thread& th : workers) th.join();
}

cache::CacheStats shard_sum(const runtime::RuntimeSnapshot& snap) {
  cache::CacheStats sum;
  for (const cache::CacheStats& s : snap.per_shard) {
    sum.accesses += s.accesses;
    sum.hits += s.hits;
    sum.read_misses += s.read_misses;
    sum.write_misses += s.write_misses;
    sum.fills += s.fills;
    sum.bypasses += s.bypasses;
    sum.evictions += s.evictions;
    sum.dirty_evictions += s.dirty_evictions;
  }
  return sum;
}

TEST(RuntimeApplyBatch, ConcurrentSpansWithShadowKeepIdentities) {
  const trace::Trace t = test_util::zipf_trace(24000, 2048, 0.9, 0xB6);
  core::IcgmmConfig cfg = test_util::small_system_config();
  cfg.engine.cache = test_util::tiny_cache(64, 8);
  core::IcgmmSystem system(cfg);
  system.train(t);
  const auto strategy = cache::GmmStrategy::kCachingEviction;
  const double threshold = system.pick_threshold(t, strategy);
  runtime::RuntimeConfig rcfg{.cache = cfg.engine.cache, .shards = 4};
  rcfg.shadow = {.enabled = true,
                 .policy_factory =
                     [](std::uint32_t) {
                       return std::make_unique<cache::LruPolicy>();
                     },
                 .ring_capacity = 256};
  const auto rt = system.make_runtime(rcfg, strategy, threshold);
  const std::vector<runtime::Access> stream = with_writes(make_stream(t), 0xB6);

  serve_interleaved(*rt, stream);
  rt->drain_deferred();

  const runtime::RuntimeSnapshot snap = rt->snapshot();
  EXPECT_EQ(snap.merged.accesses, stream.size());
  EXPECT_EQ(snap.merged.hits + snap.merged.misses(), snap.merged.accesses);
  expect_stats_eq(snap.merged, shard_sum(snap));
  EXPECT_EQ(snap.shadow_accesses + snap.shadow_dropped, snap.merged.accesses);
  EXPECT_EQ(snap.shadow_hits + snap.shadow_misses, snap.shadow_accesses);
  EXPECT_GT(snap.shadow_accesses, 0u);
}

TEST(RuntimeApplyBatch, ContendedGroupLockCountsALockWait) {
  const runtime::RuntimeConfig rcfg{.cache = test_util::tiny_cache(32, 4),
                                    .shards = 4};
  runtime::Runtime rt(rcfg, cache::LruPolicy());

  // One thread alone never finds a shard lock held.
  runtime::ReplayConfig replay;
  replay.threads = 1;
  runtime::replay_trace(rt, test_util::zipf_trace(20000, 1024, 0.9, 0xB7),
                        replay);
  EXPECT_EQ(rt.snapshot().shard_lock_waits, 0u);

  // Hold shard 0 (with_policy takes the serving mutex) while another
  // thread's span needs it: that thread's try_lock fails, the wait is
  // counted, then it blocks until released.
  PageIndex page = 0;
  while (rt.cache().router().route(page) != 0) ++page;
  std::latch held(1);
  std::latch release(1);
  std::thread holder([&] {
    rt.cache().with_policy(0, [&](const cache::ReplacementPolicy&) {
      held.count_down();
      release.wait();
    });
  });
  held.wait();
  std::thread server([&] {
    const std::vector<runtime::Access> batch = {{.page = page + 0},
                                                {.page = page + 0}};
    rt.apply_batch(batch);
  });
  // lock_waits() reads atomics only (snapshot() would block on shard 0).
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (rt.cache().lock_waits() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  release.count_down();
  holder.join();
  server.join();

  const runtime::RuntimeSnapshot snap = rt.snapshot();
  EXPECT_EQ(snap.shard_lock_waits, 1u);  // one group, one wait
  EXPECT_EQ(obs::MetricsRegistry::value_of(rt.metrics().collect(),
                                           "icgmm_shard_lock_waits"),
            snap.shard_lock_waits);
}

TEST(RuntimeApplyBatch, CountsPagesScoredAndPrunedScoreFallbacks) {
  // Above the fixed-K limit the batchers score from the model's pruning
  // grid. Every page they score is counted (admissions plus the 8 ways of
  // each eviction-time rescore), and so is every page whose pruned score
  // falls back to the full K-term sum: none on a trace inside the grid,
  // one for an admission at a timestamp far outside it.
  const trace::Trace t = test_util::zipf_trace(20000, 2048, 0.9, 0xC0);
  core::IcgmmConfig cfg = test_util::small_system_config(64);
  cfg.engine.cache = test_util::tiny_cache(64, 8);
  core::IcgmmSystem system(cfg);
  system.train(t);
  const gmm::GaussianMixture& model = system.engine().model();
  ASSERT_TRUE(model.kernel().pruned());
  const auto strategy = cache::GmmStrategy::kCachingEviction;
  const runtime::RuntimeConfig rcfg{.cache = cfg.engine.cache, .shards = 4};
  const auto rt =
      system.make_runtime(rcfg, strategy, system.pick_threshold(t, strategy));

  // The requests whose normalized (page, time) lie in the grid's finite
  // range, [0, 1] x [-1, 2].
  std::vector<runtime::Access> in_range;
  for (const runtime::Access& a : make_stream(t)) {
    const gmm::Vec2 x = model.normalizer().apply(
        static_cast<double>(a.page), static_cast<double>(a.timestamp));
    if (x.p >= 0.0 && x.p <= 1.0 && x.t >= -1.0 && x.t <= 2.0) {
      in_range.push_back(a);
    }
  }
  ASSERT_GT(in_range.size(), t.size() * 9 / 10);
  rt->apply_batch(in_range);
  const runtime::RuntimeSnapshot snap = rt->snapshot();
  EXPECT_GT(snap.score_batches, 0u);
  EXPECT_EQ(snap.pages_scored, snap.inferences + 8 * snap.score_batches);
  EXPECT_EQ(snap.score_fallbacks, 0u);

  // A cold page at normalized time ~1000 scores far below the threshold:
  // one admission score, a fallback, a bypass and no rescore.
  PageIndex cold = 0;
  while (rt->cache().contains(cold)) ++cold;
  const auto far = static_cast<Timestamp>(model.normalizer().t_offset +
                                          1000.0 / model.normalizer().t_scale);
  EXPECT_FALSE(rt->access(cold, far).admitted);
  const runtime::RuntimeSnapshot after = rt->snapshot();
  EXPECT_EQ(after.pages_scored, snap.pages_scored + 1);
  EXPECT_EQ(after.score_batches, snap.score_batches);
  EXPECT_EQ(after.score_fallbacks, 1u);
  const auto samples = rt->metrics().collect();
  EXPECT_EQ(obs::MetricsRegistry::value_of(samples, "icgmm_gmm_pages_scored"),
            after.pages_scored);
  EXPECT_EQ(
      obs::MetricsRegistry::value_of(samples, "icgmm_gmm_score_fallbacks"),
      1u);
}

TEST(RuntimeApplyBatch, EmptyBatchAndNoResultsSpanAreNoOps) {
  runtime::Runtime rt(
      runtime::RuntimeConfig{.cache = test_util::tiny_cache(32, 4),
                             .shards = 2},
      cache::LruPolicy());
  rt.apply_batch({});
  EXPECT_EQ(rt.cache().merged_stats().accesses, 0u);

  const std::vector<runtime::Access> two = {{.page = 1, .timestamp = 0},
                                            {.page = 2, .timestamp = 0}};
  rt.apply_batch(two);  // no results span: still served
  EXPECT_EQ(rt.cache().merged_stats().accesses, 2u);
}

}  // namespace
}  // namespace icgmm

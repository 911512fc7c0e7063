// Shadow policy evaluation (runtime::ShadowEvaluator) — the contracts
// that make online what-if experiments trustworthy:
//  * shadow off builds no machinery and serving is bit-identical to the
//    PR 4 apply-batch behavior (invariant #9, first half);
//  * shadow on never mutates serving state (invariant #9, second half);
//  * a shadow configured identically to the serving policy reproduces
//    the serving verdict stream exactly — zero divergence, a checkable
//    identity (the acceptance gate for every real shadow experiment);
//  * a full ring drops (and counts) instead of stalling serving;
//  * the whole thing is data-race-free under concurrent producers
//    (hammer test, run under TSan in CI).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cache/policies/classic.hpp"
#include "core/icgmm.hpp"
#include "runtime/replay.hpp"
#include "runtime/runtime.hpp"
#include "runtime/sharded_cache.hpp"
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

runtime::ShadowEvaluator::PolicyFactory lru_factory() {
  return [](std::uint32_t) { return std::make_unique<cache::LruPolicy>(); };
}

TEST(Shadow, OffBuildsNoMachinery) {
  // Invariant #9, first half: default config constructs no rings, no
  // directories, no thread — shadow() is null and every shadow counter
  // stays hard zero.
  runtime::Runtime rt(
      runtime::RuntimeConfig{.cache = test_util::tiny_cache(64, 8),
                             .shards = 2},
      cache::LruPolicy());
  EXPECT_EQ(rt.shadow(), nullptr);
  for (std::uint32_t s = 0; s < rt.cache().shards(); ++s) {
    EXPECT_EQ(rt.cache().shadow_ring(s), nullptr);
  }
  rt.access(1, 0);
  rt.drain_deferred();  // documented no-op with shadow off
  const runtime::RuntimeSnapshot snap = rt.snapshot();
  EXPECT_EQ(snap.shadow_accesses, 0u);
  EXPECT_EQ(snap.shadow_hits, 0u);
  EXPECT_EQ(snap.shadow_misses, 0u);
  EXPECT_EQ(snap.shadow_divergence, 0u);
  EXPECT_EQ(snap.shadow_dropped, 0u);
  EXPECT_EQ(rt.cache().shadow_ring_pushed(), 0u);
  EXPECT_EQ(rt.cache().shadow_ring_dropped(), 0u);
}

TEST(Shadow, NeverMutatesServingState) {
  // Invariant #9, second half: the same trace through a shadow-on runtime
  // must produce serving stats bit-identical to the shadow-off runtime of
  // the PR 4 apply-batch goldens — same trace, geometry, and replay
  // parameters as ReplayVsManualBatchesBitIdenticalStatsLru. The shadow
  // runs a *different* policy (FIFO) so any leak into serving would show.
  const trace::Trace t = test_util::zipf_trace(50000, 2048, 0.9, 0xB1);
  runtime::ReplayConfig cfg;
  cfg.threads = 1;
  cfg.warmup_fraction = 0.2;

  const runtime::RuntimeConfig off{.cache = test_util::tiny_cache(64, 8),
                                   .shards = 1};
  runtime::Runtime baseline(off, cache::LruPolicy());
  runtime::replay_trace(baseline, t, cfg);

  runtime::RuntimeConfig on = off;
  on.shadow = {.enabled = true,
               .policy_factory =
                   [](std::uint32_t) {
                     return std::make_unique<cache::FifoPolicy>();
                   },
               .policy_name = "fifo",
               .ring_capacity = 1u << 16};
  runtime::Runtime shadowed(on, cache::LruPolicy());
  runtime::replay_trace(shadowed, t, cfg);
  shadowed.drain_deferred();

  expect_stats_eq(shadowed.cache().merged_stats(),
                  baseline.cache().merged_stats());
  // The shadow really ran (it saw the post-warm-up stream).
  const runtime::RuntimeSnapshot snap = shadowed.snapshot();
  EXPECT_GT(snap.shadow_accesses, 0u);
  EXPECT_EQ(snap.shadow_hits + snap.shadow_misses, snap.shadow_accesses);
}

TEST(Shadow, SameConfigLruShadowHasZeroDivergence) {
  // The fidelity identity: per shard the shadow sees the exact serving
  // access order with the serving verdict attached, so an identically
  // configured shadow must agree on every single access — divergence is
  // exactly zero, not merely small. Two replay threads make the identity
  // survive concurrent producers; the ring is sized for the whole trace
  // because this host may starve the shadow thread (drops would void the
  // identity, and we assert there were none).
  const trace::Trace t = test_util::zipf_trace(50000, 4096, 0.9, 0x5D);
  runtime::RuntimeConfig rcfg{.cache = test_util::tiny_cache(64, 8),
                              .shards = 2};
  rcfg.shadow = {.enabled = true,
                 .policy_factory = lru_factory(),
                 .policy_name = "lru",
                 .ring_capacity = 1u << 16};
  runtime::Runtime rt(rcfg, cache::LruPolicy());

  runtime::ReplayConfig cfg;
  cfg.threads = 2;
  cfg.warmup_fraction = 0.0;
  runtime::replay_trace(rt, t, cfg);
  rt.drain_deferred();

  const runtime::RuntimeSnapshot snap = rt.snapshot();
  const cache::CacheStats merged = rt.cache().merged_stats();
  ASSERT_EQ(snap.shadow_dropped, 0u) << "ring too small for this host";
  EXPECT_EQ(snap.shadow_accesses, merged.accesses);
  EXPECT_EQ(snap.shadow_divergence, 0u);
  EXPECT_EQ(snap.shadow_hits, merged.hits);
  EXPECT_EQ(snap.shadow_misses, merged.accesses - merged.hits);
}

TEST(Shadow, DivergentPolicyIsMeasuredWithoutDrops) {
  // A genuinely different shadow policy on a loopy workload diverges —
  // the counters must still satisfy the accounting identities even when
  // the verdicts disagree.
  runtime::RuntimeConfig rcfg{.cache = test_util::tiny_cache(16, 4),
                              .shards = 1};
  rcfg.shadow = {.enabled = true,
                 .policy_factory =
                     [](std::uint32_t) {
                       return std::make_unique<cache::FifoPolicy>();
                     },
                 .policy_name = "fifo",
                 .ring_capacity = 1u << 15};
  runtime::Runtime rt(rcfg, cache::LruPolicy());
  // A skewed workload with re-references: hits reorder LRU's recency
  // stack but leave FIFO's queue alone, so eviction choices split. (A
  // pure cyclic scan would not do — LRU and FIFO behave identically when
  // nothing ever hits.)
  const trace::Trace t = test_util::zipf_trace(20000, 512, 0.9, 0x7A);
  trace::TimestampTransform transform;
  for (const trace::Record& r : t) {
    rt.access(r.page(), transform.next());
  }
  rt.drain_deferred();
  const runtime::RuntimeSnapshot snap = rt.snapshot();
  ASSERT_EQ(snap.shadow_dropped, 0u);
  EXPECT_EQ(snap.shadow_accesses, rt.cache().merged_stats().accesses);
  EXPECT_EQ(snap.shadow_hits + snap.shadow_misses, snap.shadow_accesses);
  EXPECT_GT(snap.shadow_divergence, 0u);
}

TEST(Shadow, RingFullDropsAreCountedNotBlocking) {
  // ShardedCache level: a tiny shadow ring with no consumer attached must
  // absorb what fits, drop the rest, and account for every access —
  // serving never stalls on a full ring.
  runtime::ShardedCache cache(
      runtime::ShardedCacheConfig{.cache = test_util::tiny_cache(16, 4),
                                  .shards = 1,
                                  .shadow_ring_capacity = 4},
      cache::LruPolicy());
  constexpr std::uint64_t kN = 100;
  for (std::uint64_t i = 0; i < kN; ++i) {
    cache.access(test_util::access(i % 32, i));
  }
  EXPECT_EQ(cache.shadow_ring_pushed() + cache.shadow_ring_dropped(), kN);
  EXPECT_EQ(cache.shadow_ring_pushed(), 4u);  // capacity, nothing consumed
  EXPECT_EQ(cache.shadow_ring_dropped(), kN - 4);
}

TEST(Shadow, EvaluatorRejectsMisconfiguration) {
  // Null factory and a cache without shadow rings are construction-time
  // errors, not silent no-ops.
  runtime::ShardedCache with_rings(
      runtime::ShardedCacheConfig{.cache = test_util::tiny_cache(16, 4),
                                  .shards = 1,
                                  .shadow_ring_capacity = 16},
      cache::LruPolicy());
  EXPECT_THROW(runtime::ShadowEvaluator(with_rings, nullptr),
               std::invalid_argument);
  runtime::ShardedCache no_rings(
      runtime::ShardedCacheConfig{.cache = test_util::tiny_cache(16, 4),
                                  .shards = 1},
      cache::LruPolicy());
  EXPECT_THROW(runtime::ShadowEvaluator(no_rings, lru_factory()),
               std::invalid_argument);
}

TEST(Shadow, SameConfigGmmShadowHasZeroDivergence) {
  // The promotion path end to end: GMM serving with a same-config GMM
  // shadow. Both score through the one deterministic ScorerKernel core,
  // so the identity holds just like the LRU case.
  const trace::Trace t = test_util::zipf_trace(20000, 2048, 0.9, 0x5E);
  core::IcgmmConfig cfg = test_util::small_system_config(8, 8);
  cfg.engine.cache = test_util::tiny_cache(64, 8);
  core::IcgmmSystem system(cfg);
  system.train(t);
  const auto strategy = cache::GmmStrategy::kCachingEviction;
  const double threshold = system.pick_threshold(t, strategy);

  runtime::RuntimeConfig rcfg{.cache = cfg.engine.cache, .shards = 1};
  const cache::GmmPolicyConfig shadow_cfg{.strategy = strategy,
                                          .threshold = threshold};
  rcfg.shadow = {.enabled = true,
                 .policy_factory =
                     [&system, shadow_cfg](std::uint32_t) {
                       return system.engine().make_policy(shadow_cfg);
                     },
                 .policy_name = "gmm-both",
                 .ring_capacity = 1u << 15};
  const auto rt = system.make_runtime(rcfg, strategy, threshold);

  runtime::ReplayConfig replay_cfg;
  replay_cfg.threads = 1;
  replay_cfg.warmup_fraction = 0.0;
  runtime::replay_trace(*rt, t, replay_cfg);
  rt->drain_deferred();

  const runtime::RuntimeSnapshot snap = rt->snapshot();
  const cache::CacheStats merged = rt->cache().merged_stats();
  ASSERT_EQ(snap.shadow_dropped, 0u);
  EXPECT_EQ(snap.shadow_accesses, merged.accesses);
  EXPECT_EQ(snap.shadow_divergence, 0u);
  EXPECT_EQ(snap.shadow_hits, merged.hits);
  // Not vacuous: the stream drives both GMM decisions.
  EXPECT_GT(merged.evictions, 0u);
  EXPECT_GT(merged.bypasses, 0u);
}

TEST(Shadow, ClearStatsDrainsButKeepsCumulativeCounters) {
  // clear_stats() zeroes serving counters but shadow counters are
  // cumulative (the clear scopes serving stats, not background engines):
  // the drain it runs makes them exact, it does not reset them.
  runtime::RuntimeConfig rcfg{.cache = test_util::tiny_cache(16, 4),
                              .shards = 1};
  rcfg.shadow = {.enabled = true,
                 .policy_factory = lru_factory(),
                 .ring_capacity = 1u << 12};
  runtime::Runtime rt(rcfg, cache::LruPolicy());
  for (PageIndex p = 0; p < 500; ++p) rt.access(p % 128, p);
  rt.clear_stats();
  const runtime::RuntimeSnapshot snap = rt.snapshot();
  EXPECT_EQ(rt.cache().merged_stats().accesses, 0u);
  EXPECT_EQ(snap.shadow_accesses, 500u);  // exact: clear_stats drained
}

TEST(Shadow, ConcurrentProducersHammer) {
  // TSan target: several threads hammer access() while the shadow thread
  // replays and the main thread runs drain barriers. Ring is deliberately
  // small so the overflow path (drop + counter) is exercised under
  // contention; the only invariant checkable with drops is conservation.
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;
  runtime::RuntimeConfig rcfg{.cache = test_util::tiny_cache(32, 4),
                              .shards = 2};
  rcfg.shadow = {.enabled = true,
                 .policy_factory = lru_factory(),
                 .ring_capacity = 256};
  runtime::Runtime rt(rcfg, cache::LruPolicy());

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::uint32_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&rt, w] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        rt.access((w * 977 + i * 13) % 512, i, (i % 7) == 0);
      }
    });
  }
  rt.drain_deferred();  // barrier racing live producers must be safe
  for (std::thread& th : workers) th.join();
  rt.drain_deferred();

  const runtime::RuntimeSnapshot snap = rt.snapshot();
  EXPECT_EQ(snap.shadow_accesses + snap.shadow_dropped,
            kThreads * kPerThread);
  EXPECT_EQ(snap.shadow_hits + snap.shadow_misses, snap.shadow_accesses);
}

}  // namespace
}  // namespace icgmm

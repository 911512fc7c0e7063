// ModelSlot snapshot-swap semantics and the background ModelRefresher:
// publish-on-update, bounded-queue drop accounting, drain-on-stop, drift
// adaptation through the slot, served drift adaptation closing a miss-rate
// gap, and race-freedom of concurrent submit/load/score (the TSan target
// for the swap path).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "cache/policies/classic.hpp"
#include "core/icgmm.hpp"
#include "gmm/kernel.hpp"
#include "gmm/online.hpp"
#include "runtime/inference_batcher.hpp"
#include "runtime/model_refresher.hpp"
#include "runtime/model_slot.hpp"
#include "runtime/runtime.hpp"
#include "trace/generators/hashmap.hpp"
#include "trace/preprocess.hpp"
#include "trace/timestamp_transform.hpp"

namespace icgmm {
namespace {

using runtime::ModelRefresher;
using runtime::ModelRefresherConfig;
using runtime::ModelSlot;

/// Two well-separated components on the normalized unit box; pages map
/// through a /1000 normalizer so raw page 200 ~ (0.2), page 800 ~ (0.8).
gmm::GaussianMixture two_blob_model() {
  const gmm::Normalizer norm{
      .p_offset = 0.0, .p_scale = 1e-3, .t_offset = 0.0, .t_scale = 1e-3};
  std::vector<gmm::Gaussian2D> comps;
  comps.emplace_back(gmm::Vec2{0.2, 0.2}, gmm::Cov2{0.01, 0.0, 0.01});
  comps.emplace_back(gmm::Vec2{0.3, 0.3}, gmm::Cov2{0.01, 0.0, 0.01});
  return {{0.5, 0.5}, std::move(comps), norm};
}

std::vector<trace::GmmSample> samples_at(double page, double time,
                                         std::size_t n) {
  return std::vector<trace::GmmSample>(n, {.page = page, .time = time});
}

TEST(RuntimeRefresher, SlotPublishBumpsVersionAndSwapsModel) {
  ModelSlot slot(std::make_shared<const gmm::GaussianMixture>(two_blob_model()));
  EXPECT_EQ(slot.version(), 0u);
  const auto before = slot.load();
  ASSERT_NE(before, nullptr);

  slot.store(std::make_shared<const gmm::GaussianMixture>(two_blob_model()));
  EXPECT_EQ(slot.version(), 1u);
  EXPECT_NE(slot.load(), before);  // new snapshot object
  slot.store(nullptr);             // null publishes are ignored
  EXPECT_EQ(slot.version(), 1u);
  EXPECT_NE(slot.load(), nullptr);
}

TEST(RuntimeRefresher, BracketedDecisionScoresOnTheSnapshotThatBracketedIt) {
  // A publish landing between a decision's brackets and the score they
  // gate does not split the decision: the gated score runs on the kernel
  // that bracketed, and the next score picks the new model up.
  const gmm::GaussianMixture first = two_blob_model();
  std::vector<gmm::Gaussian2D> comps;
  comps.emplace_back(gmm::Vec2{0.6, 0.6}, gmm::Cov2{0.01, 0.0, 0.01});
  comps.emplace_back(gmm::Vec2{0.7, 0.7}, gmm::Cov2{0.01, 0.0, 0.01});
  const gmm::GaussianMixture second({0.5, 0.5}, std::move(comps),
                                    first.normalizer());
  ASSERT_NE(first.log_score(200, 200), second.log_score(200, 200));

  ModelSlot slot(std::make_shared<const gmm::GaussianMixture>(first));
  runtime::InferenceBatcher batcher(slot);
  const PageIndex page = 200;
  ScoreBracket bracket;
  batcher.bracket_span({&page, 1}, 200, {&bracket, 1});
  slot.store(std::make_shared<const gmm::GaussianMixture>(second));
  EXPECT_EQ(batcher.score_one(page, 200), first.log_score(200, 200));
  EXPECT_EQ(batcher.score_one(page, 200), second.log_score(200, 200));
}

TEST(RuntimeRefresher, PublishesAfterEnoughSamples) {
  ModelSlot slot(std::make_shared<const gmm::GaussianMixture>(two_blob_model()));
  ModelRefresherConfig cfg;
  cfg.online.batch = 64;
  ModelRefresher refresher(slot, cfg);

  const auto batch = samples_at(250.0, 250.0, 256);
  EXPECT_EQ(refresher.submit(batch), batch.size());  // queued pre-start
  refresher.start();
  EXPECT_TRUE(refresher.running());
  refresher.stop();  // drains the queue before exiting
  EXPECT_FALSE(refresher.running());

  EXPECT_EQ(refresher.observed(), batch.size());
  EXPECT_EQ(refresher.dropped(), 0u);
  EXPECT_GE(refresher.updates(), batch.size() / cfg.online.batch);
  EXPECT_GE(refresher.published(), 1u);
  EXPECT_EQ(slot.version(), refresher.published());
}

TEST(RuntimeRefresher, PublishesModelsWithTheirPruningGrid) {
  // Above the fixed-K limit, online-EM steps build their models without a
  // pruning grid; the refresher builds it on its own thread before it
  // publishes, so a shard adopting the model only copies pointers.
  const gmm::Normalizer norm{
      .p_offset = 0.0, .p_scale = 1e-3, .t_offset = 0.0, .t_scale = 1e-3};
  std::vector<double> weights;
  std::vector<gmm::Gaussian2D> comps;
  for (int i = 0; i < 64; ++i) {
    weights.push_back(1.0);
    comps.emplace_back(gmm::Vec2{(i % 8 + 0.5) / 8.0, (i / 8 + 0.5) / 8.0},
                       gmm::Cov2{4e-4, 0.0, 4e-4});
  }
  ModelSlot slot(std::make_shared<const gmm::GaussianMixture>(
      std::move(weights), std::move(comps), norm));
  ASSERT_TRUE(slot.load()->kernel().pruned());
  ModelRefresherConfig cfg;
  cfg.online.batch = 64;
  ModelRefresher refresher(slot, cfg);
  refresher.submit(samples_at(250.0, 250.0, 256));
  refresher.start();
  refresher.stop();
  ASSERT_GE(refresher.published(), 1u);
  const auto published = slot.load();
  EXPECT_TRUE(published->kernel().pruned());
  EXPECT_TRUE(published->make_kernel().pruned());
}

TEST(RuntimeRefresher, BoundedQueueDropsOverflowAndStopRejectsLate) {
  ModelSlot slot(std::make_shared<const gmm::GaussianMixture>(two_blob_model()));
  ModelRefresherConfig cfg;
  cfg.queue_capacity = 100;
  ModelRefresher refresher(slot, cfg);

  // Worker not started: the queue fills to capacity, the rest drops.
  const auto batch = samples_at(250.0, 250.0, 150);
  EXPECT_EQ(refresher.submit(batch), cfg.queue_capacity);
  EXPECT_EQ(refresher.dropped(), batch.size() - cfg.queue_capacity);

  refresher.start();
  refresher.stop();
  EXPECT_EQ(refresher.observed(), cfg.queue_capacity);  // drain consumed all
  EXPECT_EQ(refresher.submit(batch), 0u);  // post-stop submits drop entirely
  EXPECT_EQ(refresher.observed(), cfg.queue_capacity);
}

TEST(RuntimeRefresher, AdaptsScoresTowardDriftedTraffic) {
  const gmm::GaussianMixture initial = two_blob_model();
  ModelSlot slot(std::make_shared<const gmm::GaussianMixture>(initial));
  ModelRefresherConfig cfg;
  cfg.online.batch = 128;
  ModelRefresher refresher(slot, cfg);
  refresher.start();

  // Traffic moved to raw (800, 500) — far from both trained blobs.
  for (int round = 0; round < 40; ++round) {
    const auto batch = samples_at(800.0, 500.0, 128);
    while (refresher.submit(batch) < batch.size()) {
      std::this_thread::yield();  // bounded queue: wait for the worker
    }
  }
  refresher.stop();

  ASSERT_GE(refresher.published(), 1u);
  const auto adapted = slot.load();
  const double stale_score = initial.log_score(800.0, 500.0);
  const double adapted_score = adapted->log_score(800.0, 500.0);
  EXPECT_GT(adapted_score, stale_score)
      << "published model did not move toward the drifted hotspot";
}

TEST(RuntimeRefresher, RestartAdaptsFromCurrentlyPublishedModel) {
  ModelSlot slot(std::make_shared<const gmm::GaussianMixture>(two_blob_model()));
  ModelRefresherConfig cfg;
  cfg.online.batch = 64;
  ModelRefresher refresher(slot, cfg);

  // First run: consume a batch and stop.
  const auto first_batch = samples_at(250.0, 250.0, 256);
  refresher.submit(first_batch);
  refresher.start();
  refresher.stop();
  const std::uint64_t first_observed = refresher.observed();
  const std::uint64_t first_published = refresher.published();
  EXPECT_EQ(first_observed, first_batch.size());
  ASSERT_GE(first_published, 1u);

  // Externally publish a model whose mass sits at normalized (0.9, 0.9)
  // — far from anything the first run adapted toward. A restarted
  // refresher must seed from THIS model, not from its stale first-run EM
  // state.
  const gmm::Normalizer norm{
      .p_offset = 0.0, .p_scale = 1e-3, .t_offset = 0.0, .t_scale = 1e-3};
  std::vector<gmm::Gaussian2D> comps;
  comps.emplace_back(gmm::Vec2{0.9, 0.9}, gmm::Cov2{0.01, 0.0, 0.01});
  const gmm::GaussianMixture external({1.0}, std::move(comps), norm);
  slot.store(std::make_shared<const gmm::GaussianMixture>(external));

  // Second run: a genuine restart — the worker spawns again, consumes,
  // and publishes; counters accumulate across runs.
  refresher.start();
  EXPECT_TRUE(refresher.running());
  const auto second_batch = samples_at(900.0, 900.0, 256);
  refresher.submit(second_batch);
  refresher.stop();

  EXPECT_EQ(refresher.observed(), first_observed + second_batch.size());
  EXPECT_GE(refresher.published(), first_published + 1);

  // The second run adapted around (0.9, 0.9): its published model must
  // score the hotspot like the external anchor does, not like the
  // first run's (0.2–0.3)-centered state would.
  const auto adapted = slot.load();
  const double anchored = adapted->log_score(900.0, 900.0);
  const double stale = two_blob_model().log_score(900.0, 900.0);
  EXPECT_GT(anchored, stale + 10.0)
      << "restart did not re-seed from the slot's published model";
}

/// Serves `t` through `rt` on this thread in 256-request spans with
/// Algorithm-1 timestamps, clears the stats after the first 20 %, and
/// stops and restarts the runtime every 16 384 requests: stop() drains
/// the sampled accesses into the adapter and publishes, start() re-seeds
/// it from the published model. Returns the miss rate after the clear.
double serve_in_restarted_chunks(runtime::Runtime& rt, const trace::Trace& t,
                                 const trace::TransformConfig& transform_cfg) {
  constexpr std::size_t kSpan = 256;
  constexpr std::size_t kRestartEvery = 16384;
  const std::size_t clear_at = t.size() / 5;
  trace::TimestampTransform transform(transform_cfg);
  std::vector<runtime::Access> span;
  rt.start();
  for (std::size_t i = 0; i < t.size();) {
    std::size_t end = std::min({t.size(), i + kSpan,
                                (i / kRestartEvery + 1) * kRestartEvery});
    if (i < clear_at) end = std::min(end, clear_at);
    span.clear();
    for (; i < end; ++i) {
      span.push_back({.page = t[i].page(),
                      .timestamp = transform.next(),
                      .is_write = t[i].is_write()});
    }
    rt.apply_batch(span);
    if (i == clear_at) rt.clear_stats();
    if (i % kRestartEvery == 0) {
      rt.stop();
      rt.start();
    }
  }
  rt.stop();
  return rt.snapshot().merged.miss_rate();
}

TEST(RuntimeRefresher, ServedAdaptationClosesTheDriftGap) {
  // examples/drift_adaptation's scenario, served: a model trained on
  // phase A serves phase B, whose hot buckets a rehash moved, through a
  // 1-shard runtime with the drift adapter at its defaults. The restarts
  // fix every publish point but those the refresher thread makes inside
  // a chunk, and the 1-in-64 sampling phase carries over from earlier
  // runtimes on this thread, so the test asserts a margin, not counts:
  // served adaptation closes more than half the gap between the stale
  // model and the offline-adapted one, and beats LRU.
  constexpr std::size_t kRequests = 100000;
  trace::HashmapParams phase_a;
  trace::HashmapParams phase_b = phase_a;
  phase_b.hot_base_fraction = 2.0 / 3;
  const trace::Trace trace_a =
      trace::HashmapGenerator(phase_a).generate(kRequests, 11);
  const trace::Trace trace_b =
      trace::HashmapGenerator(phase_b).generate(kRequests, 11);

  core::IcgmmConfig cfg;
  cfg.policy.em.components = 32;
  core::IcgmmSystem system(cfg);
  system.train(trace_a);
  const gmm::GaussianMixture& trained = system.policy_engine().model();
  gmm::OnlineEm offline(trained, {.step_power = 0.6, .batch = 512});
  offline.observe(trace::stride_subsample(
      trace::to_gmm_samples(trace_b, cfg.policy.transform), 60000));

  runtime::RuntimeConfig rcfg{.cache = cfg.engine.cache, .shards = 1};
  const cache::GmmPolicyConfig eviction{
      .strategy = cache::GmmStrategy::kEvictionOnly};
  const auto serve = [&](runtime::Runtime& rt) {
    return serve_in_restarted_chunks(rt, trace_b, cfg.policy.transform);
  };
  runtime::Runtime lru_rt(rcfg, cache::LruPolicy());
  runtime::Runtime stale_rt(rcfg, trained, eviction);
  runtime::Runtime offline_rt(rcfg, offline.model(), eviction);
  const double lru = serve(lru_rt);
  const double stale = serve(stale_rt);
  const double adapted_offline = serve(offline_rt);
  ASSERT_LT(adapted_offline, stale) << "the drift opened no gap to close";

  rcfg.adapt = true;
  runtime::Runtime rt(rcfg, trained, eviction);
  const double served = serve(rt);
  EXPECT_GE(rt.refresher()->published(), 1u);
  EXPECT_LT(served, (stale + adapted_offline) / 2)
      << "stale " << stale << ", offline-adapted " << adapted_offline;
  EXPECT_LT(served, lru);
}

TEST(RuntimeRefresher, ConcurrentSubmitAndSnapshotScoringIsRaceFree) {
  ModelSlot slot(std::make_shared<const gmm::GaussianMixture>(two_blob_model()));
  ModelRefresherConfig cfg;
  cfg.online.batch = 64;
  cfg.queue_capacity = 1024;
  ModelRefresher refresher(slot, cfg);
  refresher.start();

  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> accepted{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&refresher, &submitted, &accepted, w] {
      for (int i = 0; i < 1500; ++i) {
        const auto span = samples_at(200.0 + 10.0 * w, 300.0 + i % 50, 16);
        submitted += span.size();
        accepted += refresher.submit(span);
      }
    });
  }
  // Reader thread: keep taking snapshots and scoring while models swap
  // underneath — this is the path TSan must find clean.
  std::thread reader([&slot] {
    double sink = 0.0;
    for (int i = 0; i < 20000; ++i) {
      sink += slot.load()->log_score(250.0, 250.0);
    }
    EXPECT_TRUE(sink == sink);  // not NaN, and keeps the loop alive
  });
  for (auto& w : writers) w.join();
  reader.join();
  refresher.stop();

  EXPECT_EQ(refresher.observed() + refresher.dropped(), submitted.load());
  EXPECT_EQ(refresher.observed(), accepted.load());
}

}  // namespace
}  // namespace icgmm

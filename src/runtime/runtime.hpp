// The embeddable serving runtime: the thread-safe facade wrapping the
// single-threaded ICGMM pieces for concurrent traffic.
//
//   span --> ShardRouter: route once, group by shard
//              |
//              v (per shard group, in span order, under one lock hold)
//            per-shard {mutex, SetAssociativeCache, ReplacementPolicy
//                       clone, InferenceBatcher}
//              |                                     ^
//              v (sampled accesses)                  | (snapshots)
//            ModelRefresher --- publishes -------> ModelSlot
//
// Two construction modes:
//  * prototype mode — any ReplacementPolicy, cloned once per shard
//    (classic policies, ARC/SRRIP, or an externally-wired GmmPolicy);
//  * GMM mode — a trained GaussianMixture plus a GmmPolicyConfig; every
//    shard gets its own GmmPolicy scored through a per-shard
//    InferenceBatcher against the shared ModelSlot, and (optionally) a
//    background ModelRefresher adapts the model to drift from sampled
//    traffic.
//
// Serving is shard-grouped: apply_batch() routes its span once and serves
// each shard's requests under one hold of that shard's mutex, visiting the
// shards in index order (ShardedCache::serve_grouped); access() is the
// one-request span. Every shard sees its requests in span order, so a
// span serves bit-identically to per-element access() at any chunking.
//
// access() and apply_batch() are safe from any number of threads.
// start()/stop() bracket the background adaptation thread; a runtime
// without adaptation needs neither.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cache/policies/gmm_policy.hpp"
#include "obs/event_ring.hpp"
#include "obs/registry.hpp"
#include "record/recorder.hpp"
#include "runtime/inference_batcher.hpp"
#include "runtime/model_refresher.hpp"
#include "runtime/shadow_evaluator.hpp"
#include "runtime/sharded_cache.hpp"

namespace icgmm::runtime {

/// Shadow policy evaluation (both construction modes): a second policy
/// observes every access from a bounded per-shard ring and maintains its
/// own tag-only directories off the serving path. Default off = no rings,
/// no thread, no per-access overhead — serving is bit-identical to a
/// runtime without the feature (invariant #9, pinned by the shadow-off
/// golden test).
struct ShadowConfig {
  bool enabled = false;
  /// Builds the shadow policy for shadow shard `i`. Required when
  /// enabled. May capture anything with runtime lifetime (e.g. a scorer
  /// over a trained model) — it runs on the shadow thread only.
  ShadowEvaluator::PolicyFactory policy_factory;
  /// Reporting-only label for logs and tool output.
  std::string policy_name = "shadow";
  /// Per-shard ShadowRing capacity (rounded up to a power of two). A
  /// full ring drops accesses (counted) rather than stalling serving.
  std::uint32_t ring_capacity = 8192;
  /// Max ring entries the shadow thread replays per pop.
  std::uint32_t drain_batch = 64;
};

struct RuntimeConfig {
  /// TOTAL cache geometry, split evenly across shards.
  cache::CacheConfig cache;
  std::uint32_t shards = 4;
  /// GMM mode only: run the background ModelRefresher (start()/stop()).
  bool adapt = false;
  /// 1-in-N access sampling into the refresher (1 = every request).
  std::uint32_t sample_every = 64;
  ModelRefresherConfig refresher;
  /// Shadow policy evaluation (off by default; either constructor).
  ShadowConfig shadow;
  /// Production traffic capture (off while record.path is empty): every
  /// accepted access is try-pushed into a TraceRecorder ring before
  /// serving, a clear_stats() lands a FLUSH marker in the stream, and
  /// the writer thread persists chunks off the critical path. Never
  /// blocks serving; overflow drops are counted in the snapshot.
  record::RecorderConfig record;
  /// Optional flight recorder (not owned; must outlive the runtime): it
  /// sees model publishes, drain barriers, stats clears, and shadow-ring
  /// drops.
  obs::EventRing* events = nullptr;
};

/// One serving request — the unit both the trace replayer and the network
/// frontend hand to the runtime, so the two drivers share one code path.
struct Access {
  PageIndex page = 0;
  Timestamp timestamp = 0;
  bool is_write = false;
};

/// Per-batch completion aggregate — the shape of a wire ACCESS_REPLY.
/// Produced by the aggregating apply_batch overload so a frontend that
/// only reports totals never stages per-request results.
struct BatchOutcome {
  std::uint32_t count = 0;
  std::uint32_t hits = 0;
  std::uint32_t admitted = 0;
  std::uint32_t evictions = 0;
  std::uint32_t dirty_evictions = 0;
};

/// Coherent observability snapshot (merged lock-free; per-shard locked).
struct RuntimeSnapshot {
  /// The shards' lock-free merged counters; at quiescence they equal the
  /// sum of per_shard.
  cache::CacheStats merged;
  /// Shard-authoritative stats.
  std::vector<cache::CacheStats> per_shard;
  std::uint64_t inferences = 0;       ///< GMM scorings across shards
  std::uint64_t score_batches = 0;    ///< batched span scorings
  // Pages the shards' batchers scored (admissions plus rescored ways:
  // inferences + ways x score_batches), and those whose pruned score fell
  // back to the full K-term sum.
  std::uint64_t pages_scored = 0;
  std::uint64_t score_fallbacks = 0;
  std::uint64_t model_version = 0;    ///< ModelSlot publishes (GMM mode)
  std::uint64_t models_published = 0; ///< refresher publishes
  std::uint64_t samples_observed = 0;
  std::uint64_t samples_dropped = 0;
  // Traffic recorder (all 0 when recording is off). records_written
  // trails the serving path by the writer thread's lag; records_dropped
  // counts accesses lost to a full recorder ring (the never-stall cost);
  // record_write_errors counts accepted records that never reached the
  // file (a failed write, e.g. a full disk).
  std::uint64_t records_written = 0;
  std::uint64_t records_dropped = 0;
  std::uint64_t record_chunks = 0;
  std::uint64_t record_write_errors = 0;
  // Shadow policy evaluation (all 0 when shadow is off). After a
  // drain_deferred(): shadow_accesses + shadow_dropped == merged.accesses
  // counted since the shadow started, and shadow_hits + shadow_misses ==
  // shadow_accesses always.
  std::uint64_t shadow_accesses = 0;   ///< accesses replayed by the shadow
  std::uint64_t shadow_hits = 0;       ///< would-have-hit under the shadow
  std::uint64_t shadow_misses = 0;     ///< would-have-missed
  std::uint64_t shadow_divergence = 0; ///< shadow verdict != serving verdict
  std::uint64_t shadow_dropped = 0;    ///< accesses lost to full shadow rings
  /// Serving shard-lock acquisitions that found the mutex held by another
  /// thread (one per contended group, not per request). Lifetime total.
  std::uint64_t shard_lock_waits = 0;
};

class Runtime {
 public:
  /// Prototype mode: every shard serves with prototype.clone(). The clone
  /// contract requires independent per-shard state, so a GmmPolicy
  /// prototype is only safe here when its scorer closures capture
  /// immutable state (a model by value); scorers that capture shared
  /// mutable state (an InferenceBatcher, a live model cache) would be
  /// raced by the shards — use the GMM-mode constructor below, which
  /// builds that plumbing per shard.
  Runtime(RuntimeConfig cfg, const cache::ReplacementPolicy& prototype);

  /// GMM mode: per-shard GmmPolicy scoring against a shared snapshot of
  /// `model` (with batched eviction-time rescoring), plus the optional
  /// drift adapter when cfg.adapt is set.
  Runtime(RuntimeConfig cfg, gmm::GaussianMixture model,
          cache::GmmPolicyConfig policy_cfg);

  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  const RuntimeConfig& config() const noexcept { return cfg_; }
  const std::string& policy_name() const noexcept { return policy_name_; }

  /// The one metrics registry of this runtime and everything serving it.
  /// The runtime registers a provider exporting every RuntimeSnapshot
  /// counter (icgmm_cache_*, icgmm_gmm_*, icgmm_record_*, icgmm_shadow_*,
  /// icgmm_shard_lock_waits) — it wraps the existing atomics, it does not
  /// fork them; a net::Server over the runtime adds its own counters and
  /// stage histograms, and the METRICS verb and an HTTP exporter render
  /// from it. Anything registering here must go before the runtime does.
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }

  /// Starts background adaptation (no-op without a refresher). Serving
  /// does not require start(); it only enables drift adaptation.
  void start();

  /// Stops background adaptation, draining queued samples. Idempotent.
  void stop();

  /// Serves one request from any thread: a one-element apply_batch().
  cache::AccessResult access(PageIndex page, Timestamp ts,
                             bool is_write = false);

  /// Serves a span of requests from any thread — the entry point
  /// replay_trace and the net server share (one wire batch becomes one
  /// span). The span is served in shard-major order: each shard's requests
  /// in span order, under one hold of that shard's lock, shards in index
  /// order. When `results` is non-empty it must hold at least
  /// batch.size() elements and receives each outcome at its request's
  /// index. This is bit-identical to access() per element at any
  /// chunking (the apply-batch tests assert it).
  void apply_batch(std::span<const Access> batch,
                   std::span<cache::AccessResult> results = {});

  /// Same serving as above, but folds the per-request outcomes into
  /// `outcome` as they complete instead of staging a results array — the
  /// net server's completion path, where any worker may run any batch and
  /// only the aggregate goes back on the wire. `outcome` is overwritten,
  /// not accumulated into.
  void apply_batch(std::span<const Access> batch, BatchOutcome& outcome);

  /// Merged + per-shard statistics and model/refresher counters.
  RuntimeSnapshot snapshot() const;

  /// Merged CacheStats over the whole runtime: the shards' lock-free
  /// merged counters (cache().merged_stats()).
  cache::CacheStats merged_stats() const noexcept;

  /// Total GMM inferences across shard policies (0 in prototype mode
  /// unless the prototype was a GmmPolicy).
  std::uint64_t inferences() const;

  /// The bounded-staleness barrier for the last background consumer of
  /// served accesses, the shadow evaluator: blocks until every access
  /// served before this call has been replayed into the shadow
  /// directories, so the shadow counters are exact for that prefix, then
  /// emits kDrainBarrier. No-op with shadow off. clear_stats() (and so
  /// FLUSH) runs it implicitly.
  void drain_deferred();

  /// Zeroes all statistics counters (cache contents stay warm). Runs the
  /// drain barrier first; the shadow counters are lifetime totals and
  /// are NOT zeroed (the clear scopes serving stats, not background
  /// engines).
  void clear_stats();

  ShardedCache& cache() noexcept { return *sharded_; }
  const ShardedCache& cache() const noexcept { return *sharded_; }

  /// Null in prototype mode.
  const ModelSlot* model_slot() const noexcept { return slot_.get(); }
  /// Null unless GMM mode with cfg.adapt.
  ModelRefresher* refresher() noexcept { return refresher_.get(); }
  /// Null unless cfg.record.path was set.
  record::TraceRecorder* recorder() noexcept { return recorder_.get(); }
  /// Null unless cfg.shadow.enabled.
  const ShadowEvaluator* shadow() const noexcept { return shadow_.get(); }

 private:
  /// One request inside its shard group: recorder tap, the shard access,
  /// and the refresher sample.
  cache::AccessResult serve_one(const Access& a, ShardedCache::Hold& hold);
  void maybe_sample(PageIndex page, Timestamp ts);
  void register_metrics();

  RuntimeConfig cfg_;
  obs::MetricsRegistry metrics_;
  std::uint64_t provider_id_ = 0;
  std::string policy_name_;
  std::unique_ptr<ModelSlot> slot_;                       // GMM mode only
  std::vector<std::unique_ptr<InferenceBatcher>> batchers_;  // one per shard
  std::unique_ptr<ShardedCache> sharded_;
  std::unique_ptr<ModelRefresher> refresher_;
  std::unique_ptr<record::TraceRecorder> recorder_;       // cfg.record.path
  // Declared last (destroyed first): the worker references sharded_, so
  // it must be gone before that is. ~Runtime also stops it explicitly for
  // clarity.
  std::unique_ptr<ShadowEvaluator> shadow_;  // cfg.shadow.enabled
};

}  // namespace icgmm::runtime

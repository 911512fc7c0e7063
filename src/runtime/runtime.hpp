// The embeddable serving runtime: the thread-safe facade wrapping the
// single-threaded ICGMM pieces for concurrent traffic.
//
//   span --> ShardRouter: route once, group by shard
//              |
//              v (per shard group, in span order)
//            FrontCache (optional hot-page read replicas)
//              |
//              v (front miss / write; lock taken once per group)
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
// one-request span. With the front cache off every shard sees its requests
// in span order, so a span serves bit-identically to per-element access()
// at any chunking.
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
#include "runtime/decision_thread.hpp"
#include "runtime/front_cache.hpp"
#include "runtime/inference_batcher.hpp"
#include "runtime/model_refresher.hpp"
#include "runtime/shadow_evaluator.hpp"
#include "runtime/sharded_cache.hpp"

namespace icgmm::runtime {

/// The async miss pipeline (GMM mode only): misses return immediately
/// with a provisional admission and the GMM rescore + eviction decision
/// drains through per-shard bounded rings to a background decision
/// thread. Default off = the synchronous mode, which stays the
/// bit-identity anchor (every golden test pins it); on = eventual-policy
/// consistency, where the score tables trail the stream by a bounded,
/// drain()-able amount.
struct AsyncMissConfig {
  bool enabled = false;
  /// Per-shard MissRing capacity (rounded up to a power of two). A full
  /// ring drops rescores (counted) rather than stalling the serving path.
  std::uint32_t ring_capacity = 4096;
  /// Max ring entries the decision thread applies per shard-lock hold.
  std::uint32_t drain_batch = 32;
};

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
  /// Replicated hot-page read-front (default off = bit-identical serving
  /// to a runtime without one; see front_cache.hpp).
  FrontCacheConfig front;
  /// Asynchronous miss pipeline (GMM-mode constructor only; the prototype
  /// constructor rejects it — it has no scoring plumbing to defer to).
  AsyncMissConfig async_miss;
  /// Shadow policy evaluation (off by default; either constructor).
  ShadowConfig shadow;
  /// Production traffic capture (off while record.path is empty): every
  /// accepted access is try-pushed into a TraceRecorder ring before
  /// serving, a clear_stats() lands a FLUSH marker in the stream, and
  /// the writer thread persists chunks off the critical path. Never
  /// blocks serving; overflow drops are counted in the snapshot.
  record::RecorderConfig record;
  /// Optional observability sinks (not owned; must outlive the runtime).
  /// With `metrics` set the runtime registers a provider exporting every
  /// RuntimeSnapshot counter (icgmm_cache_*, icgmm_gmm_*, icgmm_front_*,
  /// icgmm_deferred_*, icgmm_record_*, icgmm_shadow_*,
  /// icgmm_shard_lock_waits) — the registry wraps the existing
  /// atomics, it does not fork them. With `events` set the flight
  /// recorder sees model publishes, drain barriers, stats clears, and
  /// miss-ring drops.
  obs::MetricsRegistry* metrics = nullptr;
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
  /// Includes front-cache hits (in both accesses and hits), so the
  /// hits + misses == accesses identity holds over the whole runtime.
  cache::CacheStats merged;
  /// Shard-authoritative stats; front hits never reach a shard, so
  /// sum(per_shard.accesses) + front_hits == merged.accesses.
  std::vector<cache::CacheStats> per_shard;
  std::uint64_t inferences = 0;       ///< GMM scorings across shards
  std::uint64_t score_batches = 0;    ///< batched span scorings
  std::uint64_t model_version = 0;    ///< ModelSlot publishes (GMM mode)
  std::uint64_t models_published = 0; ///< refresher publishes
  std::uint64_t samples_observed = 0;
  std::uint64_t samples_dropped = 0;
  std::uint64_t front_hits = 0;           ///< reads served by the front cache
  std::uint64_t front_fills = 0;          ///< front-cache promotions
  std::uint64_t front_invalidations = 0;  ///< stale front entries dropped
  // Async miss pipeline (all 0 when async_miss is off). At a drain
  // barrier: deferred_enqueued == deferred_applied, and every miss that
  // offered a rescore is accounted enqueued or dropped.
  std::uint64_t deferred_enqueued = 0;   ///< misses accepted into the rings
  std::uint64_t deferred_applied = 0;    ///< entries the decision thread ran
  std::uint64_t deferred_dropped = 0;    ///< rescores lost to full rings
  std::uint64_t deferred_demotions = 0;  ///< provisional admissions undone
  // Traffic recorder (all 0 when recording is off). records_written
  // trails the serving path by the writer thread's lag; records_dropped
  // counts accesses lost to a full recorder ring (the never-stall cost).
  std::uint64_t records_written = 0;
  std::uint64_t records_dropped = 0;
  std::uint64_t record_chunks = 0;
  // Shadow policy evaluation (all 0 when shadow is off). After a
  // drain_shadow(): shadow_accesses + shadow_dropped == merged.accesses
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
  /// index. With the front cache off this is bit-identical to access()
  /// per element at any chunking; with it on, to access() per element
  /// over the span's stable shard-major permutation (the apply-batch
  /// tests assert both).
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
  /// merged counters plus front-cache hits (counted as accesses + hits).
  /// With the front cache off this is exactly cache().merged_stats().
  cache::CacheStats merged_stats() const noexcept;

  /// Total GMM inferences across shard policies (0 in prototype mode
  /// unless the prototype was a GmmPolicy).
  std::uint64_t inferences() const;

  /// Async mode: blocks until every miss enqueued before this call has
  /// its deferred decision applied (or already counted dropped) — the
  /// bounded-staleness barrier. No-op in synchronous mode. FLUSH and
  /// clear_stats() run it implicitly so post-barrier statistics are
  /// exact.
  void drain_deferred();

  /// Zeroes all statistics counters (cache contents stay warm). In async
  /// mode this drains the deferred pipeline first, so the cleared state
  /// starts from a policy-consistent cache.
  void clear_stats();

  ShardedCache& cache() noexcept { return *sharded_; }
  const ShardedCache& cache() const noexcept { return *sharded_; }

  /// Null in prototype mode.
  const ModelSlot* model_slot() const noexcept { return slot_.get(); }
  /// Null unless GMM mode with cfg.adapt.
  ModelRefresher* refresher() noexcept { return refresher_.get(); }
  /// Null unless cfg.front.enabled.
  const FrontCache* front_cache() const noexcept { return front_.get(); }
  /// Null unless GMM mode with cfg.async_miss.enabled.
  const DecisionThread* decision_thread() const noexcept {
    return decision_.get();
  }
  /// Null unless cfg.record.path was set.
  record::TraceRecorder* recorder() noexcept { return recorder_.get(); }
  /// Null unless cfg.shadow.enabled.
  const ShadowEvaluator* shadow() const noexcept { return shadow_.get(); }

  /// Shadow bounded-staleness barrier: blocks until every access served
  /// before this call has been replayed into the shadow directories, so
  /// the shadow counters are exact for that prefix. No-op with shadow
  /// off. clear_stats() runs it implicitly (shadow counters themselves
  /// are lifetime totals and are NOT zeroed — same contract as the
  /// deferred counters).
  void drain_shadow();

 private:
  /// One request inside its shard group: recorder tap, front-cache probe,
  /// promote and write guard, the shard access, and the refresher sample.
  cache::AccessResult serve_one(const Access& a, ShardedCache::Hold& hold);
  /// The shard-bound part of serve_one: lock, recorder tap, access.
  cache::AccessResult serve_shard(const Access& a, ShardedCache::Hold& hold);
  void maybe_sample(PageIndex page, Timestamp ts);
  void register_metrics();

  RuntimeConfig cfg_;
  std::uint64_t provider_id_ = 0;  ///< 0 = no provider registered
  std::string policy_name_;
  std::unique_ptr<ModelSlot> slot_;                       // GMM mode only
  std::vector<std::unique_ptr<InferenceBatcher>> batchers_;  // one per shard
  std::unique_ptr<ShardedCache> sharded_;
  std::unique_ptr<FrontCache> front_;                     // cfg.front.enabled
  std::unique_ptr<ModelRefresher> refresher_;
  std::unique_ptr<record::TraceRecorder> recorder_;       // cfg.record.path
  // Declared last (destroyed first): the workers reference sharded_ (and
  // the decision thread also batchers_), so they must be gone before
  // those are. ~Runtime also stops them explicitly for clarity.
  std::unique_ptr<DecisionThread> decision_;  // cfg.async_miss.enabled
  std::unique_ptr<ShadowEvaluator> shadow_;   // cfg.shadow.enabled
};

}  // namespace icgmm::runtime

#include "runtime/runtime.hpp"

#include <cassert>
#include <utility>

namespace icgmm::runtime {

Runtime::Runtime(RuntimeConfig cfg, const cache::ReplacementPolicy& prototype)
    : cfg_(cfg), policy_name_(prototype.name()) {
  sharded_ = std::make_unique<ShardedCache>(
      ShardedCacheConfig{.cache = cfg_.cache, .shards = cfg_.shards,
                         .shadow_ring_capacity = cfg_.shadow.enabled
                                                     ? cfg_.shadow.ring_capacity
                                                     : 0,
                         .events = cfg_.events},
      prototype);
  if (!cfg_.record.path.empty()) {
    recorder_ = std::make_unique<record::TraceRecorder>(cfg_.record);
  }
  if (cfg_.shadow.enabled) {
    shadow_ = std::make_unique<ShadowEvaluator>(
        *sharded_, cfg_.shadow.policy_factory,
        ShadowEvaluatorConfig{.drain_batch = cfg_.shadow.drain_batch});
  }
  register_metrics();
}

Runtime::Runtime(RuntimeConfig cfg, gmm::GaussianMixture model,
                 cache::GmmPolicyConfig policy_cfg)
    : cfg_(cfg), policy_name_(cache::to_string(policy_cfg.strategy)) {
  slot_ = std::make_unique<ModelSlot>(
      std::make_shared<const gmm::GaussianMixture>(std::move(model)));
  slot_->set_event_ring(cfg_.events);  // before the refresher can publish
  batchers_.reserve(cfg_.shards);
  sharded_ = std::make_unique<ShardedCache>(
      ShardedCacheConfig{.cache = cfg_.cache, .shards = cfg_.shards,
                         .shadow_ring_capacity = cfg_.shadow.enabled
                                                     ? cfg_.shadow.ring_capacity
                                                     : 0,
                         .events = cfg_.events},
      [this, &policy_cfg](std::uint32_t) {
        auto batcher = std::make_unique<InferenceBatcher>(*slot_);
        InferenceBatcher* b = batcher.get();  // owned below; shard-lifetime
        auto policy = std::make_unique<cache::GmmPolicy>(
            [b](PageIndex page, Timestamp ts) { return b->score_one(page, ts); },
            policy_cfg);
        policy->set_batch_scorer(
            [b](std::span<const PageIndex> pages, Timestamp ts,
                std::span<double> out) { b->score_span(pages, ts, out); });
        policy->set_bracket_scorer(
            [b](std::span<const PageIndex> pages, Timestamp ts,
                std::span<ScoreBracket> out) {
              return b->bracket_span(pages, ts, out);
            });
        batchers_.push_back(std::move(batcher));
        return policy;
      });
  if (!cfg_.record.path.empty()) {
    recorder_ = std::make_unique<record::TraceRecorder>(cfg_.record);
  }
  if (cfg_.adapt) {
    refresher_ = std::make_unique<ModelRefresher>(*slot_, cfg_.refresher);
  }
  if (cfg_.shadow.enabled) {
    shadow_ = std::make_unique<ShadowEvaluator>(
        *sharded_, cfg_.shadow.policy_factory,
        ShadowEvaluatorConfig{.drain_batch = cfg_.shadow.drain_batch});
  }
  register_metrics();
}

void Runtime::register_metrics() {
  provider_id_ = metrics_.add_provider(
      [this](std::vector<obs::MetricsRegistry::Sample>& out) {
        const RuntimeSnapshot s = snapshot();
        out.push_back({"icgmm_cache_accesses", s.merged.accesses});
        out.push_back({"icgmm_cache_hits", s.merged.hits});
        out.push_back({"icgmm_cache_read_misses", s.merged.read_misses});
        out.push_back({"icgmm_cache_write_misses", s.merged.write_misses});
        out.push_back({"icgmm_cache_fills", s.merged.fills});
        out.push_back({"icgmm_cache_bypasses", s.merged.bypasses});
        out.push_back({"icgmm_cache_evictions", s.merged.evictions});
        out.push_back(
            {"icgmm_cache_dirty_evictions", s.merged.dirty_evictions});
        out.push_back({"icgmm_gmm_inferences", s.inferences});
        out.push_back({"icgmm_gmm_score_batches", s.score_batches});
        out.push_back({"icgmm_gmm_pages_scored", s.pages_scored});
        out.push_back({"icgmm_gmm_score_fallbacks", s.score_fallbacks});
        out.push_back({"icgmm_gmm_model_version", s.model_version});
        out.push_back({"icgmm_gmm_models_published", s.models_published});
        out.push_back({"icgmm_gmm_samples_observed", s.samples_observed});
        out.push_back({"icgmm_gmm_samples_dropped", s.samples_dropped});
        out.push_back({"icgmm_record_written", s.records_written});
        out.push_back({"icgmm_record_dropped", s.records_dropped});
        out.push_back({"icgmm_record_chunks", s.record_chunks});
        out.push_back({"icgmm_record_write_errors", s.record_write_errors});
        out.push_back({"icgmm_shadow_accesses", s.shadow_accesses});
        out.push_back({"icgmm_shadow_hits", s.shadow_hits});
        out.push_back({"icgmm_shadow_misses", s.shadow_misses});
        out.push_back({"icgmm_shadow_divergence", s.shadow_divergence});
        out.push_back({"icgmm_shadow_dropped", s.shadow_dropped});
        out.push_back({"icgmm_shard_lock_waits", s.shard_lock_waits});
      });
}

Runtime::~Runtime() {
  // Drop the provider first: a concurrent scrape calls snapshot() on this
  // object, so it must be unreachable before members start dying.
  metrics_.remove_provider(provider_id_);
  // Stop-drain the shadow thread while the cache it reads is still alive
  // (it would also happen via member destruction order; explicit is
  // clearer and keeps the invariant independent of declaration order).
  if (shadow_) shadow_->stop();
  stop();
}

void Runtime::start() {
  if (refresher_) refresher_->start();
}

void Runtime::stop() {
  if (refresher_) refresher_->stop();
  // Drain the recorder ring and flush the capture file so the on-disk
  // record is complete when the runtime shuts down.
  if (recorder_) recorder_->stop();
}

cache::AccessResult Runtime::access(PageIndex page, Timestamp ts,
                                    bool is_write) {
  const Access a{.page = page, .timestamp = ts, .is_write = is_write};
  cache::AccessResult result;
  apply_batch({&a, 1}, {&result, 1});
  return result;
}

cache::AccessResult Runtime::serve_one(const Access& a,
                                       ShardedCache::Hold& hold) {
  // Captured under the shard lock, before serving: each shard's capture
  // order is exactly its serving order, which is what lets a capture
  // taken under many connections replay exactly on one (try-push only —
  // a full ring drops and counts, it never stalls this path).
  if (recorder_) recorder_->record(a.page, a.timestamp, a.is_write);
  const cache::AccessResult result = hold.access(
      {.page = a.page, .timestamp = a.timestamp, .is_write = a.is_write});
  maybe_sample(a.page, a.timestamp);
  return result;
}

void Runtime::maybe_sample(PageIndex page, Timestamp ts) {
  if (refresher_ && refresher_->running()) {
    // 1-in-N systematic sampling keeps the adapter fed with an unbiased
    // thinning of the live access stream. The clock is thread-local: a
    // shared atomic here would put one contended cache line back on the
    // hot path the sharding exists to keep core-private. (Threads share
    // the counter across Runtime instances, which only phase-shifts each
    // thread's 1-in-N pick — the sampling rate is unchanged.)
    thread_local std::uint64_t sample_clock = 0;
    const std::uint64_t n = sample_clock++;
    if (cfg_.sample_every <= 1 || n % cfg_.sample_every == 0) {
      const trace::GmmSample sample{.page = static_cast<double>(page),
                                    .time = static_cast<double>(ts)};
      refresher_->submit({&sample, 1});
    }
  }
}

void Runtime::apply_batch(std::span<const Access> batch,
                          std::span<cache::AccessResult> results) {
  assert(results.empty() || results.size() >= batch.size());
  sharded_->serve_grouped(
      batch.size(), [batch](std::size_t i) { return batch[i].page; },
      [&](std::size_t i, ShardedCache::Hold& hold) {
        const cache::AccessResult r = serve_one(batch[i], hold);
        if (!results.empty()) results[i] = r;
      });
}

void Runtime::apply_batch(std::span<const Access> batch,
                          BatchOutcome& outcome) {
  outcome = {};
  outcome.count = static_cast<std::uint32_t>(batch.size());
  sharded_->serve_grouped(
      batch.size(), [batch](std::size_t i) { return batch[i].page; },
      [&](std::size_t i, ShardedCache::Hold& hold) {
        const cache::AccessResult r = serve_one(batch[i], hold);
        outcome.hits += r.hit ? 1 : 0;
        outcome.admitted += r.admitted ? 1 : 0;
        outcome.evictions += r.evicted ? 1 : 0;
        outcome.dirty_evictions += r.evicted_dirty ? 1 : 0;
      });
}

std::uint64_t Runtime::inferences() const {
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < sharded_->shards(); ++i) {
    sharded_->with_policy(i, [&total](const cache::ReplacementPolicy& p) {
      if (const auto* gmm = dynamic_cast<const cache::GmmPolicy*>(&p)) {
        total += gmm->inferences();
      }
    });
  }
  return total;
}

cache::CacheStats Runtime::merged_stats() const noexcept {
  return sharded_->merged_stats();
}

RuntimeSnapshot Runtime::snapshot() const {
  RuntimeSnapshot snap;
  snap.merged = merged_stats();
  snap.per_shard.reserve(sharded_->shards());
  for (std::uint32_t i = 0; i < sharded_->shards(); ++i) {
    snap.per_shard.push_back(sharded_->shard_stats(i));
  }
  snap.shard_lock_waits = sharded_->lock_waits();
  snap.inferences = inferences();
  for (const auto& batcher : batchers_) {
    // Batcher counters are written under the shard lock; reading here is a
    // monitoring-grade snapshot (exact at quiescence).
    snap.score_batches += batcher->batches();
    snap.pages_scored += batcher->scored();
    snap.score_fallbacks += batcher->fallbacks();
  }
  if (slot_) snap.model_version = slot_->version();
  if (refresher_) {
    snap.models_published = refresher_->published();
    snap.samples_observed = refresher_->observed();
    snap.samples_dropped = refresher_->dropped();
  }
  if (recorder_) {
    const record::RecorderStats rs = recorder_->stats();
    snap.records_written = rs.records_written;
    snap.records_dropped = rs.records_dropped;
    snap.record_chunks = rs.chunks_written;
    snap.record_write_errors = rs.write_errors;
  }
  if (shadow_) {
    const ShadowStats ss = shadow_->stats();
    snap.shadow_accesses = ss.accesses;
    snap.shadow_hits = ss.hits;
    snap.shadow_misses = ss.misses;
    snap.shadow_divergence = ss.divergence;
    snap.shadow_dropped = sharded_->shadow_ring_dropped();
  }
  return snap;
}

void Runtime::drain_deferred() {
  if (shadow_) {
    shadow_->drain();
    if (cfg_.events != nullptr) {
      cfg_.events->emit(obs::EventType::kDrainBarrier,
                        shadow_->stats().accesses);
    }
  }
}

void Runtime::clear_stats() {
  if (cfg_.events != nullptr) {
    // Record the access count being discarded — the one number that lets
    // a postmortem line up pre- and post-clear windows.
    cfg_.events->emit(obs::EventType::kClearStats, merged_stats().accesses);
  }
  // The marker goes into the record stream first: with the serving
  // quiesced around a FLUSH (the admin contract), every access recorded
  // before this point belongs to the pre-clear window.
  if (recorder_) recorder_->mark_flush();
  // Settle the shadow so its lifetime totals are exact at the clear point
  // (they are NOT zeroed: the clear scopes serving stats, not background
  // engines).
  drain_deferred();
  sharded_->clear_stats();
}

}  // namespace icgmm::runtime

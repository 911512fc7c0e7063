#include "runtime/shadow_evaluator.hpp"

#include <stdexcept>

namespace icgmm::runtime {

ShadowEvaluator::ShadowEvaluator(ShardedCache& cache,
                                 const PolicyFactory& factory,
                                 ShadowEvaluatorConfig cfg)
    : cache_(cache), cfg_(cfg) {
  if (!factory) {
    throw std::invalid_argument("ShadowEvaluator: null policy factory");
  }
  if (cache_.shadow_ring(0) == nullptr) {
    throw std::invalid_argument(
        "ShadowEvaluator: cache has no shadow rings (set "
        "shadow_ring_capacity)");
  }
  if (cfg_.drain_batch == 0) cfg_.drain_batch = 1;
  directories_.reserve(cache_.shards());
  for (std::uint32_t i = 0; i < cache_.shards(); ++i) {
    directories_.push_back(std::make_unique<cache::SetAssociativeCache>(
        cache_.shard_config(), factory(i)));
  }
  running_ = true;
  worker_ = std::thread([this] { run(); });
}

ShadowEvaluator::~ShadowEvaluator() { stop(); }

void ShadowEvaluator::stop() {
  stop_.store(true, std::memory_order_release);
  wake_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    running_ = false;
  }
  sweep_cv_.notify_all();
}

void ShadowEvaluator::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!running_) return;  // stop-drain already emptied the rings
  // Two-sweep barrier: the sweep in flight at entry may predate the
  // caller's last push; the next one starts strictly after it.
  const std::uint64_t target = sweeps_done_ + 2;
  wake_cv_.notify_all();
  sweep_cv_.wait(lock,
                 [&] { return sweeps_done_ >= target || !running_; });
}

void ShadowEvaluator::run() {
  std::vector<ShadowAccessEntry> batch(cfg_.drain_batch);
  for (;;) {
    // Read the stop flag BEFORE sweeping: if it was set, this sweep runs
    // after every producer went quiet, so an empty result proves the
    // rings are drained for good.
    const bool stopping = stop_.load(std::memory_order_acquire);
    const bool did_work = sweep_once(batch);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++sweeps_done_;
    }
    sweep_cv_.notify_all();
    if (stopping && !did_work) return;
    if (!did_work && !stopping) {
      std::unique_lock<std::mutex> lock(mu_);
      wake_cv_.wait_for(lock, cfg_.idle_wait);
    }
  }
}

bool ShadowEvaluator::sweep_once(std::vector<ShadowAccessEntry>& batch) {
  bool did_work = false;
  for (std::uint32_t shard = 0; shard < cache_.shards(); ++shard) {
    ShadowRing* ring = cache_.shadow_ring(shard);
    if (ring == nullptr) continue;
    cache::SetAssociativeCache& dir = *directories_[shard];
    // Drain this shard's ring completely before moving on. There is no
    // shard lock to hold: the directory is worker-private, so the batch
    // bound only limits working set.
    for (;;) {
      const std::size_t n = ring->pop_batch({batch.data(), batch.size()});
      if (n == 0) break;
      did_work = true;
      for (std::size_t i = 0; i < n; ++i) {
        const ShadowAccessEntry& e = batch[i];
        const cache::AccessResult r = dir.access(
            {.page = e.page, .timestamp = e.timestamp, .is_write = e.is_write});
        accesses_.fetch_add(1, std::memory_order_relaxed);
        (r.hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
        if (r.hit != e.serving_hit) {
          divergence_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  }
  return did_work;
}

}  // namespace icgmm::runtime

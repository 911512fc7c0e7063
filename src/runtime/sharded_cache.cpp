#include "runtime/sharded_cache.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace icgmm::runtime {

cache::CacheConfig ShardedCache::split_config(const ShardedCacheConfig& cfg) {
  if (cfg.shards == 0) {
    throw std::invalid_argument("ShardedCache: shards must be positive");
  }
  if (cfg.cache.capacity_bytes % cfg.shards != 0) {
    throw std::invalid_argument(
        "ShardedCache: capacity not divisible by shard count");
  }
  cache::CacheConfig per_shard = cfg.cache;
  per_shard.capacity_bytes = cfg.cache.capacity_bytes / cfg.shards;
  per_shard.validate();  // throws when the split breaks set geometry
  return per_shard;
}

ShardedCache::ShardedCache(ShardedCacheConfig cfg, const PolicyFactory& factory)
    : router_(cfg.shards), shard_cfg_(split_config(cfg)), events_(cfg.events) {
  if (!factory) throw std::invalid_argument("ShardedCache: null policy factory");
  shards_.reserve(cfg.shards);
  for (std::uint32_t i = 0; i < cfg.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->cache =
        std::make_unique<cache::SetAssociativeCache>(shard_cfg_, factory(i));
    if (cfg.shadow_ring_capacity > 0) {
      shard->shadow = std::make_unique<ShadowRing>(cfg.shadow_ring_capacity);
    }
    shards_.push_back(std::move(shard));
  }
}

ShardedCache::ShardedCache(ShardedCacheConfig cfg,
                           const cache::ReplacementPolicy& prototype)
    : ShardedCache(cfg, [&prototype](std::uint32_t) {
        return prototype.clone();
      }) {}

cache::AccessResult ShardedCache::access(const cache::AccessContext& ctx) {
  Hold hold(*this, router_.route(ctx.page));
  return hold.access(ctx);
}

ShardedCache::GroupScratch& ShardedCache::group_scratch(std::size_t n) const {
  assert(n <= std::numeric_limits<std::uint32_t>::max());
  thread_local GroupScratch scratch;
  if (scratch.shard.size() < n) {
    scratch.shard.resize(n);
    scratch.order.resize(n);
  }
  if (scratch.start.size() < std::size_t{shards()} + 1) {
    scratch.start.resize(std::size_t{shards()} + 1);
  }
  return scratch;
}

void ShardedCache::partition(GroupScratch& s, std::size_t n) const noexcept {
  // Counting sort: start[i + 1] counts shard i, the prefix sum turns the
  // counts into group bounds, and a forward scatter keeps span order
  // within each group (stable).
  std::uint32_t* start = s.start.data();
  std::fill(start, start + shards() + 1, 0u);
  for (std::size_t i = 0; i < n; ++i) ++start[s.shard[i] + 1];
  for (std::uint32_t i = 0; i < shards(); ++i) start[i + 1] += start[i];
  // start[i] now doubles as group i's write cursor; the scatter advances
  // each cursor to the next group's bound, so shifting back restores it.
  for (std::size_t i = 0; i < n; ++i) {
    s.order[start[s.shard[i]]++] = static_cast<std::uint32_t>(i);
  }
  for (std::uint32_t i = shards(); i > 0; --i) start[i] = start[i - 1];
  start[0] = 0;
}

ShardedCache::Hold::Hold(ShardedCache& owner, std::uint32_t shard)
    : owner_(owner), shard_(*owner.shards_[shard]), index_(shard) {
  if (!shard_.mu.try_lock()) {
    shard_.lock_waits.fetch_add(1, std::memory_order_relaxed);
    shard_.mu.lock();
  }
}

ShardedCache::Hold::~Hold() {
  // Publish the group's tally before unlocking: a clear_stats() racing an
  // unlocked mirror update would leave the mirrors permanently ahead of
  // the authoritative per-shard stats.
  Counters& c = shard_.counters;
  const auto publish = [](std::atomic<std::uint64_t>& mirror,
                          std::uint64_t n) {
    if (n != 0) mirror.fetch_add(n, std::memory_order_relaxed);
  };
  publish(c.accesses, tally_.accesses);
  publish(c.hits, tally_.hits);
  publish(c.read_misses, tally_.read_misses);
  publish(c.write_misses, tally_.write_misses);
  publish(c.fills, tally_.fills);
  publish(c.bypasses, tally_.bypasses);
  publish(c.evictions, tally_.evictions);
  publish(c.dirty_evictions, tally_.dirty_evictions);
  shard_.mu.unlock();
}

cache::AccessResult ShardedCache::Hold::access(
    const cache::AccessContext& ctx) {
  assert(owner_.router_.route(ctx.page) == index_);
  const cache::AccessResult result = shard_.cache->access(ctx);
  // Shadow evaluation: every access (hit or miss) flows to the shadow
  // policy with the serving verdict attached. Pushed under the shard
  // lock, so all producers are serialized — the ring's single-producer
  // contract; a full ring drops (and counts) rather than stalling
  // serving. The shadow never reads serving state; this push is the
  // entire coupling surface.
  if (shard_.shadow) {
    if (!shard_.shadow->try_push({.page = ctx.page,
                                  .timestamp = ctx.timestamp,
                                  .is_write = ctx.is_write,
                                  .serving_hit = result.hit}) &&
        owner_.events_ != nullptr) {
      owner_.events_->emit(obs::EventType::kShadowRingDrop, index_);
    }
  }
  // Tally the outcome for the counter mirrors (same derivation the cache
  // applies internally, see SetAssociativeCache::access).
  ++tally_.accesses;
  if (result.hit) {
    ++tally_.hits;
  } else {
    ++(ctx.is_write ? tally_.write_misses : tally_.read_misses);
    ++(result.admitted ? tally_.fills : tally_.bypasses);
    if (result.evicted) {
      ++tally_.evictions;
      if (result.evicted_dirty) ++tally_.dirty_evictions;
    }
  }
  return result;
}

cache::CacheStats ShardedCache::merged_stats() const noexcept {
  cache::CacheStats merged;
  for (const auto& shard : shards_) {
    const Counters& c = shard->counters;
    merged.accesses += c.accesses.load(std::memory_order_relaxed);
    merged.hits += c.hits.load(std::memory_order_relaxed);
    merged.read_misses += c.read_misses.load(std::memory_order_relaxed);
    merged.write_misses += c.write_misses.load(std::memory_order_relaxed);
    merged.fills += c.fills.load(std::memory_order_relaxed);
    merged.bypasses += c.bypasses.load(std::memory_order_relaxed);
    merged.evictions += c.evictions.load(std::memory_order_relaxed);
    merged.dirty_evictions += c.dirty_evictions.load(std::memory_order_relaxed);
  }
  return merged;
}

cache::CacheStats ShardedCache::shard_stats(std::uint32_t shard) const {
  const Shard& s = *shards_.at(shard);
  std::lock_guard<std::mutex> lock(s.mu);
  return s.cache->stats();
}

void ShardedCache::with_policy(
    std::uint32_t shard,
    const std::function<void(const cache::ReplacementPolicy&)>& fn) const {
  const Shard& s = *shards_.at(shard);
  std::lock_guard<std::mutex> lock(s.mu);
  fn(s.cache->policy());
}

std::uint64_t ShardedCache::shadow_ring_pushed() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    if (shard->shadow) total += shard->shadow->pushed();
  }
  return total;
}

std::uint64_t ShardedCache::shadow_ring_dropped() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    if (shard->shadow) total += shard->shadow->dropped();
  }
  return total;
}

bool ShardedCache::contains(PageIndex page) const {
  const Shard& s = *shards_[router_.route(page)];
  std::lock_guard<std::mutex> lock(s.mu);
  return s.cache->contains(page);
}

std::uint64_t ShardedCache::valid_blocks() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->cache->valid_blocks();
  }
  return total;
}

std::uint64_t ShardedCache::lock_waits() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->lock_waits.load(std::memory_order_relaxed);
  }
  return total;
}

void ShardedCache::clear_stats() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->cache->clear_stats();
    Counters& c = shard->counters;
    c.accesses.store(0, std::memory_order_relaxed);
    c.hits.store(0, std::memory_order_relaxed);
    c.read_misses.store(0, std::memory_order_relaxed);
    c.write_misses.store(0, std::memory_order_relaxed);
    c.fills.store(0, std::memory_order_relaxed);
    c.bypasses.store(0, std::memory_order_relaxed);
    c.evictions.store(0, std::memory_order_relaxed);
    c.dirty_evictions.store(0, std::memory_order_relaxed);
  }
}

}  // namespace icgmm::runtime

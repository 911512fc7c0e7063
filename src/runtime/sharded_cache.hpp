// N independent SetAssociativeCache shards behind per-shard mutexes.
//
// The single-threaded cache model is kept untouched; concurrency comes
// from partitioning the page space across shards with the splitmix router
// so threads serving different pages rarely contend. Each shard owns its
// own ReplacementPolicy (cloned from one prototype or built per shard by
// a factory), its own tag array, and a cache-line-padded block of atomic
// counters mirroring CacheStats — so merged statistics are readable
// lock-free while a request storm is in flight.
//
// Serving is grouped: serve_grouped() routes a span of requests once,
// stable-partitions it by shard, and serves each shard's group under one
// Hold — a single hold of that shard's mutex — visiting the shards in
// index order. Per-shard request order is the span order, so a
// shard sees exactly the sequence per-element access() calls would have
// given it; access() itself is the one-request Hold.
//
// Consistency: a Hold tallies its group's outcomes and publishes them into
// the atomic counters (relaxed) while the shard lock is still held, so
// the mirrors never drift from the authoritative per-shard stats — even
// against a concurrent clear_stats(). Readers of merged_stats() take no
// locks; a mid-flight snapshot is per-counter coherent, while identities
// like hits + misses == accesses are guaranteed only at quiescence (e.g.
// after worker joins).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "cache/cache.hpp"
#include "obs/event_ring.hpp"
#include "runtime/shard_router.hpp"
#include "runtime/spsc_ring.hpp"

namespace icgmm::runtime {

struct ShardedCacheConfig {
  /// TOTAL geometry; capacity is split evenly across shards (each shard is
  /// a CacheConfig with capacity_bytes / shards). Must divide cleanly.
  cache::CacheConfig cache;
  std::uint32_t shards = 4;
  /// When non-zero, each shard carries a bounded ShadowRing of this
  /// capacity and access() enqueues EVERY access (hit or miss, with the
  /// serving verdict) into the owning shard's ring — the feed for the
  /// shadow policy evaluator. Pushed under that shard's lock, which is
  /// what makes the ring's single-producer contract hold; a full ring
  /// drops (and counts) instead of blocking. Zero = no rings, no
  /// per-access overhead — the default. Set by Runtime's shadow
  /// evaluation.
  std::uint32_t shadow_ring_capacity = 0;
  /// Optional flight recorder (not owned; must outlive the cache): a
  /// shadow ring dropping an access emits kShadowRingDrop with the shard
  /// index.
  obs::EventRing* events = nullptr;
};

class ShardedCache {
 public:
  /// Builds shard `i`'s policy. Called once per shard at construction.
  using PolicyFactory =
      std::function<std::unique_ptr<cache::ReplacementPolicy>(std::uint32_t)>;

  /// Throws std::invalid_argument when the total geometry does not split
  /// evenly into `shards` valid per-shard geometries.
  ShardedCache(ShardedCacheConfig cfg, const PolicyFactory& factory);

  /// Convenience: every shard gets prototype.clone().
  ShardedCache(ShardedCacheConfig cfg, const cache::ReplacementPolicy& prototype);

  std::uint32_t shards() const noexcept { return router_.shards(); }
  const cache::CacheConfig& shard_config() const noexcept { return shard_cfg_; }
  const ShardRouter& router() const noexcept { return router_; }

  class Hold;

  /// Serves one request: the one-request case of serve_grouped().
  cache::AccessResult access(const cache::AccessContext& ctx);

  /// Serves requests [0, n) in shard-major order: routes each request once
  /// (`page_of(i)` gives its page), stable-partitions the indices by shard
  /// in thread-local scratch, then visits the shards in index order and
  /// calls `fn(i, hold)` for each of a shard's requests in span order, all
  /// under one Hold of that shard. Not reentrant on one thread: `fn` must
  /// not start another serve_grouped().
  template <class PageOf, class Fn>
  void serve_grouped(std::size_t n, const PageOf& page_of, const Fn& fn);

  /// Lock-free merged statistics (relaxed sums of the per-shard atomics).
  cache::CacheStats merged_stats() const noexcept;

  /// One shard's authoritative CacheStats (takes that shard's lock).
  cache::CacheStats shard_stats(std::uint32_t shard) const;

  /// Runs `fn` on shard `i`'s policy under that shard's lock — read-only
  /// introspection (e.g. per-shard inference counters).
  void with_policy(
      std::uint32_t shard,
      const std::function<void(const cache::ReplacementPolicy&)>& fn) const;

  /// True if `page` is resident in its owning shard (locks that shard).
  bool contains(PageIndex page) const;

  /// Total valid blocks across shards (locks each shard in turn).
  std::uint64_t valid_blocks() const;

  /// Zeroes every shard's counters and the atomic mirrors; cached blocks
  /// and policy state are kept (warm-up discipline, as clear_stats()).
  void clear_stats();

  /// Serving lock acquisitions (one per Hold) that found the shard mutex
  /// held by another thread, summed over shards. A lifetime total:
  /// clear_stats() does not zero it.
  std::uint64_t lock_waits() const noexcept;

 private:
  // Padded so two shards' hot state never share a cache line.
  struct alignas(64) Counters {
    std::atomic<std::uint64_t> accesses{0};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> read_misses{0};
    std::atomic<std::uint64_t> write_misses{0};
    std::atomic<std::uint64_t> fills{0};
    std::atomic<std::uint64_t> bypasses{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> dirty_evictions{0};
  };

  struct alignas(64) Shard {
    mutable std::mutex mu;
    /// Bumped only by a Hold whose try_lock failed — on a line that is
    /// already bouncing between the contending threads.
    std::atomic<std::uint64_t> lock_waits{0};
    std::unique_ptr<cache::SetAssociativeCache> cache;
    Counters counters;
    std::unique_ptr<ShadowRing> shadow;  ///< null unless shadow_ring_capacity > 0
  };

 public:
  /// One hold of a shard's lock, serving a group of requests bound for
  /// that shard. Construction takes the lock (a lock found held by another
  /// thread counts one lock wait); destruction publishes the group's
  /// counter tally and unlocks.
  class Hold {
   public:
    ~Hold();

    Hold(const Hold&) = delete;
    Hold& operator=(const Hold&) = delete;

    /// Serves one request bound for this shard under the hold: the cache
    /// access, then the shadow-ring push. `ctx.page` must route to this
    /// shard.
    cache::AccessResult access(const cache::AccessContext& ctx);

   private:
    friend class ShardedCache;  // only routing code binds a hold to a shard
    Hold(ShardedCache& owner, std::uint32_t shard);

    ShardedCache& owner_;
    Shard& shard_;
    std::uint32_t index_;
    /// The group's outcomes, published into Shard::counters at unlock.
    cache::CacheStats tally_;
  };

  /// Shard `i`'s shadow access ring, or nullptr when shadow_ring_capacity
  /// was 0. The ShadowEvaluator is the only consumer; producers are
  /// access() calls serialized by the shard lock.
  ShadowRing* shadow_ring(std::uint32_t shard) noexcept {
    return shards_[shard]->shadow.get();
  }

  /// Sums of the per-shard shadow ring counters (0 when shadow rings are
  /// disabled). Exact once the pushing side is quiescent.
  std::uint64_t shadow_ring_pushed() const noexcept;
  std::uint64_t shadow_ring_dropped() const noexcept;

 private:
  /// Thread-local partition scratch for serve_grouped(): grown to the
  /// largest span a thread has served, never shrunk, so steady-state
  /// serving allocates nothing.
  struct GroupScratch {
    std::vector<std::uint32_t> shard;  ///< route of request i
    std::vector<std::uint32_t> order;  ///< request indices, shard-major
    std::vector<std::uint32_t> start;  ///< group bounds into order (shards+1)
  };
  GroupScratch& group_scratch(std::size_t n) const;
  /// Counting sort of scratch.shard[0, n) into scratch.order/start.
  void partition(GroupScratch& scratch, std::size_t n) const noexcept;

  static cache::CacheConfig split_config(const ShardedCacheConfig& cfg);

  ShardRouter router_;
  cache::CacheConfig shard_cfg_;
  obs::EventRing* events_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
};

template <class PageOf, class Fn>
void ShardedCache::serve_grouped(std::size_t n, const PageOf& page_of,
                                 const Fn& fn) {
  if (n == 0) return;
  if (n == 1 || shards() == 1) {  // one group, already in span order
    Hold hold(*this, router_.route(page_of(std::size_t{0})));
    for (std::size_t i = 0; i < n; ++i) fn(i, hold);
    return;
  }
  GroupScratch& s = group_scratch(n);
  for (std::size_t i = 0; i < n; ++i) s.shard[i] = router_.route(page_of(i));
  partition(s, n);
  for (std::uint32_t shard = 0; shard < shards(); ++shard) {
    if (s.start[shard] == s.start[shard + 1]) continue;
    Hold hold(*this, shard);
    for (std::uint32_t k = s.start[shard]; k < s.start[shard + 1]; ++k) {
      fn(std::size_t{s.order[k]}, hold);
    }
  }
}

}  // namespace icgmm::runtime

// Shadow policy evaluation: a second ReplacementPolicy runs against the
// live production stream without ever touching serving state — the
// online what-if experiment behind safe policy rollouts ("would ARC (or
// a GMM at another threshold) have done better on *this* traffic?").
//
// The serving path pushes every access (hit or miss, with the serving
// verdict attached) into a per-shard bounded ShadowRing under the shard
// lock, which makes any number of serving threads a single producer; a
// full ring drops (and counts) instead of blocking. This one push is the
// entire coupling surface: the shadow side owns its own tag-only
// SetAssociativeCache directories (one per shard, same split geometry as
// the serving shards) and replays the stream through them on a single
// background thread. No shadow code ever runs under a shard lock, and
// nothing the shadow computes flows back into serving.
//
// Fidelity contract: per shard the shadow sees the exact serving access
// order (the shard mutex serializes producers; the ring preserves FIFO),
// so a shadow configured identically to the serving policy reproduces
// the serving hit/miss sequence exactly — divergence() == 0 is a
// checkable identity, and the shadow-identity test pins it. A full ring
// drops (and counts) the access instead of stalling serving; dropped
// accesses skew the shadow directory from that point on, so dropped()
// must be 0 for the identity to be exact.
//
// Lifecycle: the worker runs from construction to stop() (stop-drain:
// keeps sweeping until a full sweep finds nothing, then exits), and
// drain() is the two-sweep bounded-staleness barrier.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache.hpp"
#include "runtime/sharded_cache.hpp"

namespace icgmm::runtime {

struct ShadowEvaluatorConfig {
  /// Max entries popped from one ring per apply step. The shadow takes no
  /// shard locks, so this only bounds batch working-set, not serving
  /// latency.
  std::uint32_t drain_batch = 64;
  /// Idle poll cadence when every ring came up empty (producers never
  /// signal — that would put a wakeup on the serving hot path).
  std::chrono::microseconds idle_wait{100};
};

/// Aggregate shadow counters, exact at quiescence (post-drain).
struct ShadowStats {
  std::uint64_t accesses = 0;    ///< entries replayed into the directories
  std::uint64_t hits = 0;        ///< would-have-hit under the shadow policy
  std::uint64_t misses = 0;      ///< would-have-missed
  std::uint64_t divergence = 0;  ///< shadow verdict != serving verdict
};

class ShadowEvaluator {
 public:
  /// Builds shadow shard `i`'s policy. Called once per shard.
  using PolicyFactory =
      std::function<std::unique_ptr<cache::ReplacementPolicy>(std::uint32_t)>;

  /// `cache` must have shadow rings enabled (shadow_ring_capacity > 0)
  /// and must outlive this evaluator. Builds one tag-only directory per
  /// serving shard with the serving shard geometry and factory(i)'s
  /// policy, then spawns the worker. Throws std::invalid_argument on a
  /// null factory or a cache without shadow rings.
  ShadowEvaluator(ShardedCache& cache, const PolicyFactory& factory,
                  ShadowEvaluatorConfig cfg = {});
  ~ShadowEvaluator();

  ShadowEvaluator(const ShadowEvaluator&) = delete;
  ShadowEvaluator& operator=(const ShadowEvaluator&) = delete;

  /// Stop-drain: sweeps until the rings are empty, then joins the worker.
  /// Producers must be quiescent. Idempotent.
  void stop();

  /// Blocks until every access enqueued before this call has been
  /// replayed into the shadow directories — after which stats() is exact
  /// for that prefix. Returns immediately after stop().
  void drain();

  ShadowStats stats() const noexcept {
    return {.accesses = accesses_.load(std::memory_order_relaxed),
            .hits = hits_.load(std::memory_order_relaxed),
            .misses = misses_.load(std::memory_order_relaxed),
            .divergence = divergence_.load(std::memory_order_relaxed)};
  }

  /// Read-only introspection of shadow shard `i`'s policy/directory.
  /// Only safe when the worker is quiescent (post-stop, or externally
  /// serialized) — the directories are worker-private and unlocked.
  const cache::SetAssociativeCache& directory(std::uint32_t shard) const {
    return *directories_.at(shard);
  }

 private:
  void run();
  bool sweep_once(std::vector<ShadowAccessEntry>& batch);

  ShardedCache& cache_;
  ShadowEvaluatorConfig cfg_;
  // Worker-private: only the shadow thread touches these after
  // construction (directory() requires external quiescence).
  std::vector<std::unique_ptr<cache::SetAssociativeCache>> directories_;

  std::atomic<std::uint64_t> accesses_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> divergence_{0};

  std::mutex mu_;
  std::condition_variable wake_cv_;   ///< worker wakeup (drain/stop nudge)
  std::condition_variable sweep_cv_;  ///< drain() waiters
  std::uint64_t sweeps_done_ = 0;     ///< guarded by mu_
  bool running_ = false;              ///< guarded by mu_
  std::atomic<bool> stop_{false};
  std::thread worker_;
};

}  // namespace icgmm::runtime

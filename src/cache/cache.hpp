// Set-associative DRAM cache model (the paper's cache control engine state:
// tag array + per-block metadata; data movement is implied, only tags and
// scores live on-chip, §4.2).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cache/config.hpp"
#include "cache/policy.hpp"
#include "cache/stats.hpp"

namespace icgmm::cache {

/// Outcome of one request, consumed by the latency model.
struct AccessResult {
  bool hit = false;
  bool admitted = false;        ///< miss was filled into the cache
  bool evicted = false;         ///< a valid block was displaced
  bool evicted_dirty = false;   ///< displaced block needs SSD writeback
  bool is_write = false;
  PageIndex victim_page = 0;    ///< valid when evicted
};

class SetAssociativeCache {
 public:
  /// Upper bound on associativity (sizes the on-stack tag buffer handed to
  /// the policy; real deployments use 8).
  static constexpr std::uint32_t kMaxWays = 64;
  /// Takes ownership of the policy. Throws on invalid geometry.
  SetAssociativeCache(CacheConfig cfg, std::unique_ptr<ReplacementPolicy> policy);

  const CacheConfig& config() const noexcept { return cfg_; }
  const CacheStats& stats() const noexcept { return stats_; }
  ReplacementPolicy& policy() noexcept { return *policy_; }
  const ReplacementPolicy& policy() const noexcept { return *policy_; }

  /// Processes one request; updates stats and policy state.
  AccessResult access(const AccessContext& ctx);

  /// True if `page` is currently resident (no state change).
  bool contains(PageIndex page) const noexcept;

  /// Number of valid blocks (for occupancy assertions in tests).
  std::uint64_t valid_blocks() const noexcept;

  /// Drops all blocks and statistics; policy metadata is re-attached.
  void reset();

  /// Zeroes the statistics counters but keeps all cached blocks and policy
  /// state — used to exclude the cold-start window from measurements, the
  /// same warm-up discipline the paper applies (§3.1).
  void clear_stats() noexcept { stats_ = CacheStats{}; }

  /// Set index of a page. Runs on every access, so when the set count is a
  /// power of two (every realistic geometry: capacity, block size and
  /// associativity are all powers of two) the constructor precomputes a
  /// mask and this is a single AND instead of a 64-bit modulo.
  std::uint64_t set_of(PageIndex page) const noexcept {
    return sets_pow2_ ? (page & set_mask_) : (page % sets_);
  }

 private:
  struct Block {
    PageIndex tag = 0;
    bool valid = false;
    bool dirty = false;
  };

  Block& block(std::uint64_t set, std::uint32_t way) noexcept {
    return blocks_[set * cfg_.associativity + way];
  }
  const Block& block(std::uint64_t set, std::uint32_t way) const noexcept {
    return blocks_[set * cfg_.associativity + way];
  }

  CacheConfig cfg_;
  std::uint64_t sets_;
  bool sets_pow2_ = false;
  std::uint64_t set_mask_ = 0;  ///< sets_ - 1, valid when sets_pow2_
  std::vector<Block> blocks_;
  std::unique_ptr<ReplacementPolicy> policy_;
  CacheStats stats_;
};

}  // namespace icgmm::cache

#include "cache/cache.hpp"

#include <stdexcept>

namespace icgmm::cache {

SetAssociativeCache::SetAssociativeCache(
    CacheConfig cfg, std::unique_ptr<ReplacementPolicy> policy)
    : cfg_(cfg), policy_(std::move(policy)) {
  cfg_.validate();
  if (!policy_) throw std::invalid_argument("SetAssociativeCache: null policy");
  if (cfg_.associativity > kMaxWays) {
    throw std::invalid_argument("SetAssociativeCache: associativity > kMaxWays");
  }
  sets_ = cfg_.sets();
  sets_pow2_ = (sets_ & (sets_ - 1)) == 0;
  set_mask_ = sets_ - 1;
  blocks_.resize(cfg_.blocks());
  policy_->attach(sets_, cfg_.associativity);
}

AccessResult SetAssociativeCache::access(const AccessContext& ctx) {
  ++stats_.accesses;
  AccessResult result;
  result.is_write = ctx.is_write;

  const std::uint64_t set = set_of(ctx.page);

  // Tag comparison — the FPGA does all ways in parallel; order is moot.
  for (std::uint32_t way = 0; way < cfg_.associativity; ++way) {
    Block& b = block(set, way);
    if (b.valid && b.tag == ctx.page) {
      ++stats_.hits;
      if (ctx.is_write) b.dirty = true;
      policy_->on_hit(set, way, ctx);
      result.hit = true;
      return result;
    }
  }

  // Miss.
  if (ctx.is_write) {
    ++stats_.write_misses;
  } else {
    ++stats_.read_misses;
  }

  if (!policy_->should_admit(ctx)) {
    ++stats_.bypasses;
    return result;  // page served SSD<->host directly, cache untouched
  }

  // Prefer an invalid way; otherwise ask the policy for a victim.
  std::uint32_t fill_way = cfg_.associativity;
  for (std::uint32_t way = 0; way < cfg_.associativity; ++way) {
    if (!block(set, way).valid) {
      fill_way = way;
      break;
    }
  }
  if (fill_way == cfg_.associativity) {
    // Hand the policy the set's tags (FPGA: the tag/score table buffer).
    PageIndex resident[kMaxWays];
    const std::uint32_t ways = std::min(cfg_.associativity, kMaxWays);
    for (std::uint32_t way = 0; way < ways; ++way) {
      resident[way] = block(set, way).tag;
    }
    fill_way = policy_->choose_victim(set, {resident, ways}, ctx);
    if (fill_way >= cfg_.associativity) {
      throw std::logic_error("policy returned out-of-range victim way");
    }
    Block& victim = block(set, fill_way);
    result.evicted = true;
    result.evicted_dirty = victim.dirty;
    result.victim_page = victim.tag;
    ++stats_.evictions;
    if (victim.dirty) ++stats_.dirty_evictions;
  }

  Block& b = block(set, fill_way);
  b.tag = ctx.page;
  b.valid = true;
  b.dirty = ctx.is_write;  // write-allocate: a write miss fills dirty
  ++stats_.fills;
  policy_->on_fill(set, fill_way, ctx);
  result.admitted = true;
  return result;
}

bool SetAssociativeCache::contains(PageIndex page) const noexcept {
  const std::uint64_t set = set_of(page);
  for (std::uint32_t way = 0; way < cfg_.associativity; ++way) {
    const Block& b = block(set, way);
    if (b.valid && b.tag == page) return true;
  }
  return false;
}

std::uint64_t SetAssociativeCache::valid_blocks() const noexcept {
  std::uint64_t count = 0;
  for (const Block& b : blocks_) count += b.valid ? 1 : 0;
  return count;
}

void SetAssociativeCache::reset() {
  for (Block& b : blocks_) b = Block{};
  stats_ = CacheStats{};
  policy_->attach(sets_, cfg_.associativity);
}

}  // namespace icgmm::cache

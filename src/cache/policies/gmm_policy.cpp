#include "cache/policies/gmm_policy.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

namespace icgmm::cache {

const char* to_string(GmmStrategy s) noexcept {
  switch (s) {
    case GmmStrategy::kCachingOnly: return "GMM-caching";
    case GmmStrategy::kEvictionOnly: return "GMM-eviction";
    case GmmStrategy::kCachingEviction: return "GMM-caching-eviction";
  }
  return "GMM-unknown";
}

GmmPolicy::GmmPolicy(ScoreFn scorer, GmmPolicyConfig cfg)
    : ReplacementPolicy(to_string(cfg.strategy)),
      scorer_(std::move(scorer)),
      cfg_(cfg) {
  if (!scorer_) throw std::invalid_argument("GmmPolicy: null scorer");
}

void GmmPolicy::set_batch_scorer(BatchScoreFn batch) {
  batch_scorer_ = std::move(batch);
}

std::unique_ptr<ReplacementPolicy> GmmPolicy::clone() const {
  // The batch scorer is deliberately NOT copied: it is wiring to external
  // scoring plumbing (typically a per-shard InferenceBatcher with mutable
  // snapshot state), and sharing one instance across clones serving from
  // different threads would race. The clone falls back to the per-page
  // scorer — numerically identical by the set_batch_scorer contract —
  // until its owner re-wires a batch scorer of its own.
  return std::make_unique<GmmPolicy>(scorer_, cfg_);
}

void GmmPolicy::attach(std::uint64_t sets, std::uint32_t ways) {
  ways_ = ways;
  tick_ = 0;
  score_.assign(sets * ways, 0.0);
  last_use_.assign(sets * ways, 0);
  inferences_ = 0;
  pending_valid_ = false;
}

double GmmPolicy::score_page(const AccessContext& ctx) {
  if (pending_valid_ && pending_page_ == ctx.page &&
      pending_time_ == ctx.timestamp) {
    return pending_score_;  // admission already scored this miss
  }
  ++inferences_;
  pending_score_ = scorer_(ctx.page, ctx.timestamp);
  pending_page_ = ctx.page;
  pending_time_ = ctx.timestamp;
  pending_valid_ = true;
  return pending_score_;
}

bool GmmPolicy::should_admit(const AccessContext& ctx) {
  if (cfg_.strategy == GmmStrategy::kEvictionOnly) return true;
  return score_page(ctx) >= cfg_.threshold;
}

std::uint32_t GmmPolicy::choose_victim(std::uint64_t set,
                                       std::span<const PageIndex> resident,
                                       const AccessContext& ctx) {
  const auto base = set * ways_;
  std::uint32_t victim = 0;
  if (cfg_.strategy == GmmStrategy::kCachingOnly) {
    // LRU fallback — smart caching changes admission only.
    std::uint64_t oldest = last_use_[base];
    for (std::uint32_t way = 1; way < ways_; ++way) {
      if (last_use_[base + way] < oldest) {
        victim = way;
        oldest = last_use_[base + way];
      }
    }
    return victim;
  }

  if (cfg_.rescore_set_on_evict) {
    // Refresh the set's scores at the current timestamp. The II=1 pipeline
    // streams all ways through the GMM in `assoc` extra cycles, so this
    // counts as part of the single per-miss engine invocation.
    const auto count = static_cast<std::uint32_t>(
        std::min<std::size_t>(resident.size(), ways_));
    if (batch_scorer_) {
      batch_scorer_(resident.first(count), ctx.timestamp,
                    std::span<double>(score_.data() + base, count));
    } else {
      for (std::uint32_t way = 0; way < count; ++way) {
        score_[base + way] = scorer_(resident[way], ctx.timestamp);
      }
    }
  }
  // Smart eviction: lowest GMM score leaves first (Fig. 4), with two
  // hardware-standard guards: ties break toward the least recently used,
  // and the MRU block is never the victim (a just-fetched page must
  // survive its burst even when the model scores it cold — without this,
  // streaming bursts thrash).
  std::uint32_t mru = 0;
  std::uint64_t newest = last_use_[base];
  for (std::uint32_t way = 1; way < ways_; ++way) {
    if (last_use_[base + way] > newest) {
      mru = way;
      newest = last_use_[base + way];
    }
  }
  victim = mru == 0 ? 1 : 0;
  // Best-so-far kept in locals: the victim's score/recency were re-read
  // from the tables on every iteration before.
  double best_score = score_[base + victim];
  std::uint64_t best_use = last_use_[base + victim];
  for (std::uint32_t way = 0; way < ways_; ++way) {
    if (way == mru) continue;
    const double s = score_[base + way];
    const std::uint64_t use = last_use_[base + way];
    if (s < best_score || (s == best_score && use < best_use)) {
      victim = way;
      best_score = s;
      best_use = use;
    }
  }
  return victim;
}

void GmmPolicy::touch(std::uint64_t set, std::uint32_t way) {
  last_use_[set * ways_ + way] = ++tick_;
}

void GmmPolicy::on_hit(std::uint64_t set, std::uint32_t way,
                       const AccessContext& ctx) {
  touch(set, way);
  if (cfg_.refresh_on_hit) {
    pending_valid_ = false;  // force a fresh inference
    score_[set * ways_ + way] = score_page(ctx);
    pending_valid_ = false;
  }
}

void GmmPolicy::on_fill(std::uint64_t set, std::uint32_t way,
                        const AccessContext& ctx) {
  // kEvictionOnly never scored during admission; score now so the block
  // carries its GMM score into future eviction decisions.
  score_[set * ways_ + way] = score_page(ctx);
  touch(set, way);
  pending_valid_ = false;  // the pending score is consumed by this fill
}

}  // namespace icgmm::cache

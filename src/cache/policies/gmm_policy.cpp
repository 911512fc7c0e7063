#include "cache/policies/gmm_policy.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "cache/cache.hpp"

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

void GmmPolicy::set_bracket_scorer(BracketFn bracket) {
  bracket_ = std::move(bracket);
}

std::unique_ptr<ReplacementPolicy> GmmPolicy::clone() const {
  // The batch and bracket scorers are deliberately NOT copied: they are
  // wiring to external scoring plumbing (typically a per-shard
  // InferenceBatcher with mutable snapshot state), and sharing one
  // instance across clones serving from different threads would race. The
  // clone scores every decision through the per-page scorer — the same
  // decisions, by the setters' contracts — until its owner re-wires
  // scorers of its own.
  return std::make_unique<GmmPolicy>(scorer_, cfg_);
}

void GmmPolicy::attach(std::uint64_t sets, std::uint32_t ways) {
  if (ways > SetAssociativeCache::kMaxWays) {
    throw std::invalid_argument("GmmPolicy: more ways than kMaxWays");
  }
  ways_ = ways;
  tick_ = 0;
  score_.assign(sets * ways, 0.0);
  last_use_.assign(sets * ways, 0);
  inferences_ = 0;
  settled_ = {};
  pending_valid_ = false;
}

bool GmmPolicy::pending_for(const AccessContext& ctx) const noexcept {
  return pending_valid_ && pending_page_ == ctx.page &&
         pending_time_ == ctx.timestamp;
}

double GmmPolicy::score_page(const AccessContext& ctx) {
  // Admission already decided this miss (or an identical one bypassed).
  if (pending_for(ctx)) return pending_score_;
  settle(ctx, scorer_(ctx.page, ctx.timestamp));
  return pending_score_;
}

void GmmPolicy::settle(const AccessContext& ctx, double value) {
  ++inferences_;
  pending_score_ = value;
  pending_page_ = ctx.page;
  pending_time_ = ctx.timestamp;
  pending_valid_ = true;
}

bool GmmPolicy::should_admit(const AccessContext& ctx) {
  if (cfg_.strategy == GmmStrategy::kEvictionOnly) return true;
  ScoreBracket b;
  if (bracket_ && !pending_for(ctx) &&
      bracket_({&ctx.page, 1}, ctx.timestamp, {&b, 1})) {
    // A bound stands in for the score: it decides the same way, and a
    // repeat of this miss at the same timestamp reuses it as a score
    // would be reused.
    if (b.hi < cfg_.threshold) {
      settle(ctx, b.hi);
      ++settled_.bypasses;
      return false;
    }
    // on_fill stores the stand-in, which only a fill-time score comparison
    // could read.
    if (b.lo >= cfg_.threshold && (cfg_.rescore_set_on_evict ||
                                   cfg_.strategy == GmmStrategy::kCachingOnly)) {
      settle(ctx, b.lo);
      ++settled_.admissions;
      return true;
    }
  }
  return score_page(ctx) >= cfg_.threshold;
}

void GmmPolicy::rescore(std::uint64_t base, std::uint32_t mru,
                        std::span<const PageIndex> resident, Timestamp t) {
  std::uint32_t open[SetAssociativeCache::kMaxWays];
  PageIndex pages[SetAssociativeCache::kMaxWays];
  std::size_t n = 0;
  const auto count = std::min<std::size_t>(resident.size(), ways_);
  for (std::uint32_t way = 0; way < count; ++way) {
    if (way == mru) continue;
    open[n] = way;
    pages[n] = resident[way];
    ++n;
  }
  if (n < 2) return;  // a lone candidate is the victim whatever it scores
  ScoreBracket br[SetAssociativeCache::kMaxWays];
  if (bracket_ && bracket_({pages, n}, t, {br, n})) {
    // A way whose lower bound exceeds some candidate's upper bound scores
    // strictly above that candidate, so it cannot be the victim even on
    // a tie; its lower bound keeps it out of the pick below.
    double least_hi = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) least_hi = std::min(least_hi, br[i].hi);
    std::size_t left = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (br[i].lo > least_hi) {
        score_[base + open[i]] = br[i].lo;
        ++settled_.ways;
      } else {
        open[left] = open[i];
        pages[left] = pages[i];
        ++left;
      }
    }
    if (left == 1) {
      // The way holding the least upper bound always survives, so a lone
      // survivor is it: storing that bound puts it below every other way.
      score_[base + open[0]] = least_hi;
      ++settled_.ways;
      return;
    }
    n = left;
  }
  double out[SetAssociativeCache::kMaxWays];
  if (batch_scorer_) {
    batch_scorer_({pages, n}, t, {out, n});
  } else {
    for (std::size_t i = 0; i < n; ++i) out[i] = scorer_(pages[i], t);
  }
  for (std::size_t i = 0; i < n; ++i) score_[base + open[i]] = out[i];
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

  // Smart eviction: lowest GMM score leaves first (Fig. 4), with two
  // hardware-standard guards: ties break toward the least recently used,
  // and the MRU block is never the victim (a just-fetched page must
  // survive its burst even when the model scores it cold — without this,
  // streaming bursts thrash). A direct-mapped set has only its MRU way.
  if (ways_ < 2) return 0;
  std::uint32_t mru = 0;
  std::uint64_t newest = last_use_[base];
  for (std::uint32_t way = 1; way < ways_; ++way) {
    if (last_use_[base + way] > newest) {
      mru = way;
      newest = last_use_[base + way];
    }
  }
  if (cfg_.rescore_set_on_evict) {
    // Refresh the candidates' scores at the current timestamp. The II=1
    // pipeline streams all ways through the GMM in `assoc` extra cycles,
    // so this counts as part of the single per-miss engine invocation.
    rescore(base, mru, resident, ctx.timestamp);
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
  // kEvictionOnly never scored during admission. Its fill-time score only
  // matters when evictions compare stored scores: with the set rescored,
  // the filled way is the MRU way until another way is touched, and every
  // later eviction rescores or brackets each non-MRU candidate first (a
  // lone one is the victim unscored). So that fill counts the miss's one
  // inference and sums no page.
  if (cfg_.rescore_set_on_evict && !pending_for(ctx)) {
    ++inferences_;
  } else {
    score_[set * ways_ + way] = score_page(ctx);
  }
  touch(set, way);
  pending_valid_ = false;  // the pending score is consumed by this fill
}

}  // namespace icgmm::cache

// GMM policy unit tests with a synthetic scorer (no trained model needed):
// admission thresholding, score-ordered eviction, rescoring, and the
// strategy semantics of Fig. 4 / Fig. 6. Then what the policy leaves
// unscored — the MRU way, a lone candidate, and whatever a bracket
// settles — and a lockstep twin showing that a bracketed policy on a
// K = 256 model decides exactly as one that scores everything.
#include "cache/policies/gmm_policy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cache/cache.hpp"
#include "common/rng.hpp"
#include "gmm/kernel.hpp"
#include "test_util.hpp"
#include "trace/zipf.hpp"

namespace icgmm::cache {
namespace {

using test_util::one_set;

AccessContext at(PageIndex page, Timestamp ts = 0, bool is_write = false) {
  return test_util::access(page, ts, is_write);
}

/// Scorer: score = -page (lower pages are "hotter"), time-independent.
double neg_page(PageIndex page, Timestamp) {
  return -static_cast<double>(page);
}

TEST(GmmPolicy, RejectsNullScorer) {
  EXPECT_THROW(GmmPolicy(nullptr, {}), std::invalid_argument);
}

TEST(GmmPolicy, StrategyNames) {
  EXPECT_STREQ(to_string(GmmStrategy::kCachingOnly), "GMM-caching");
  EXPECT_STREQ(to_string(GmmStrategy::kEvictionOnly), "GMM-eviction");
  EXPECT_STREQ(to_string(GmmStrategy::kCachingEviction), "GMM-caching-eviction");
}

TEST(GmmPolicy, CachingBypassesBelowThreshold) {
  // Threshold -5: pages > 5 score below it and must be bypassed.
  SetAssociativeCache cache(
      one_set(2), std::make_unique<GmmPolicy>(
                      neg_page, GmmPolicyConfig{
                                    .strategy = GmmStrategy::kCachingOnly,
                                    .threshold = -5.0}));
  const AccessResult cold = cache.access(at(10));
  EXPECT_FALSE(cold.hit);
  EXPECT_FALSE(cold.admitted);
  EXPECT_FALSE(cache.contains(10));
  EXPECT_EQ(cache.stats().bypasses, 1u);

  const AccessResult hot = cache.access(at(3));
  EXPECT_TRUE(hot.admitted);
  EXPECT_TRUE(cache.contains(3));
}

TEST(GmmPolicy, EvictionOnlyAdmitsEverything) {
  SetAssociativeCache cache(
      one_set(2), std::make_unique<GmmPolicy>(
                      neg_page, GmmPolicyConfig{
                                    .strategy = GmmStrategy::kEvictionOnly,
                                    .threshold = 1e9}));  // would bypass all
  EXPECT_TRUE(cache.access(at(100)).admitted);
  EXPECT_EQ(cache.stats().bypasses, 0u);
}

TEST(GmmPolicy, EvictsLowestScore) {
  SetAssociativeCache cache(
      one_set(3), std::make_unique<GmmPolicy>(
                      neg_page, GmmPolicyConfig{
                                    .strategy = GmmStrategy::kEvictionOnly}));
  cache.access(at(30));  // score -30 (coldest)
  cache.access(at(10));
  cache.access(at(20));
  // Access 10 last so MRU protection shields it, not page 30.
  cache.access(at(10));
  const AccessResult result = cache.access(at(5));
  EXPECT_TRUE(result.evicted);
  EXPECT_EQ(result.victim_page, 30u);  // lowest score leaves
  EXPECT_TRUE(cache.contains(10));
  EXPECT_TRUE(cache.contains(20));
}

TEST(GmmPolicy, MruBlockIsNeverTheVictim) {
  SetAssociativeCache cache(
      one_set(2), std::make_unique<GmmPolicy>(
                      neg_page, GmmPolicyConfig{
                                    .strategy = GmmStrategy::kEvictionOnly}));
  cache.access(at(10));
  cache.access(at(50));  // MRU, but lowest score
  const AccessResult result = cache.access(at(20));
  // Without MRU protection 50 (score -50) would leave; with it, 10 does.
  EXPECT_EQ(result.victim_page, 10u);
}

TEST(GmmPolicy, CachingOnlyFallsBackToLruEviction) {
  SetAssociativeCache cache(
      one_set(2),
      std::make_unique<GmmPolicy>(
          neg_page, GmmPolicyConfig{.strategy = GmmStrategy::kCachingOnly,
                                    .threshold = -1e18}));
  cache.access(at(30));
  cache.access(at(10));
  cache.access(at(30));  // touch 30: 10 becomes LRU
  const AccessResult result = cache.access(at(20));
  EXPECT_EQ(result.victim_page, 10u);  // LRU, NOT lowest score (30)
}

TEST(GmmPolicy, OneInferencePerMissWhenAdmitting) {
  // should_admit scores the page; on_fill must reuse it, not re-infer.
  auto policy = std::make_unique<GmmPolicy>(
      neg_page, GmmPolicyConfig{.strategy = GmmStrategy::kCachingEviction,
                                .threshold = -1e18});
  GmmPolicy* raw = policy.get();
  SetAssociativeCache cache(one_set(2), std::move(policy));
  cache.access(at(1));
  EXPECT_EQ(raw->inferences(), 1u);
  cache.access(at(2));
  EXPECT_EQ(raw->inferences(), 2u);
  cache.access(at(1));  // hit: GMM bypassed (paper Fig. 4)
  EXPECT_EQ(raw->inferences(), 2u);
}

TEST(GmmPolicy, StoredScoreVisibleAfterFill) {
  // Fill-time scores are read only when evictions compare stored scores.
  auto policy = std::make_unique<GmmPolicy>(
      neg_page, GmmPolicyConfig{.strategy = GmmStrategy::kEvictionOnly,
                                .rescore_set_on_evict = false});
  GmmPolicy* raw = policy.get();
  SetAssociativeCache cache(one_set(2), std::move(policy));
  cache.access(at(7));
  // Way 0 holds page 7 with score -7.
  EXPECT_DOUBLE_EQ(raw->stored_score(0, 0), -7.0);
}

TEST(GmmPolicy, RescoreOnEvictUsesCurrentTimestamp) {
  // Time-dependent scorer: page is hot only in its own "phase".
  // score = -(|page - 10*ts|): at ts=0 page 0 hottest, at ts=1 page 10...
  const ScoreFn scorer = [](PageIndex page, Timestamp ts) {
    return -std::abs(static_cast<double>(page) - 10.0 * static_cast<double>(ts));
  };
  auto make = [&](bool rescore) {
    return std::make_unique<GmmPolicy>(
        scorer, GmmPolicyConfig{.strategy = GmmStrategy::kEvictionOnly,
                                .rescore_set_on_evict = rescore});
  };
  // With rescoring: at eviction time ts=3, page 30 is hot (score 0) and
  // page 0 is stale-cold (score -30) even though page 0 was filled when it
  // was hot. Without rescoring, fill-time scores invert the decision.
  {
    SetAssociativeCache cache(one_set(3), make(true));
    cache.access(at(0, 0));   // fill-time score 0 (hot then)
    cache.access(at(29, 3));  // fill-time score -1
    cache.access(at(30, 3));  // fill-time score 0, MRU (protected)
    const AccessResult r = cache.access(at(31, 3));
    // Rescored at ts=3: page 0 -> -30 (stale), page 29 -> -1. 0 leaves.
    EXPECT_EQ(r.victim_page, 0u);
  }
  {
    SetAssociativeCache cache(one_set(3), make(false));
    cache.access(at(0, 0));   // stored score 0
    cache.access(at(29, 3));  // stored score -1
    cache.access(at(30, 3));  // stored score 0, MRU
    const AccessResult r = cache.access(at(31, 3));
    EXPECT_EQ(r.victim_page, 29u);  // stale fill-time scores pick 29
  }
}

TEST(GmmPolicy, RefreshOnHitUpdatesScore) {
  const ScoreFn scorer = [](PageIndex, Timestamp ts) {
    return static_cast<double>(ts);
  };
  auto policy = std::make_unique<GmmPolicy>(
      scorer, GmmPolicyConfig{.strategy = GmmStrategy::kEvictionOnly,
                              .refresh_on_hit = true,
                              .rescore_set_on_evict = false});
  GmmPolicy* raw = policy.get();
  SetAssociativeCache cache(one_set(2), std::move(policy));
  cache.access(at(1, 5));
  EXPECT_DOUBLE_EQ(raw->stored_score(0, 0), 5.0);
  cache.access(at(1, 9));  // hit refreshes
  EXPECT_DOUBLE_EQ(raw->stored_score(0, 0), 9.0);
}

TEST(GmmPolicy, BypassedWriteDoesNotPolluteCache) {
  SetAssociativeCache cache(
      one_set(2),
      std::make_unique<GmmPolicy>(
          neg_page, GmmPolicyConfig{.strategy = GmmStrategy::kCachingEviction,
                                    .threshold = -5.0}));
  const AccessResult result = cache.access(at(100, 0, /*is_write=*/true));
  EXPECT_FALSE(result.admitted);
  EXPECT_TRUE(result.is_write);
  EXPECT_EQ(cache.valid_blocks(), 0u);
}

TEST(GmmPolicy, DirectMappedSetEvictsItsOnlyWay) {
  SetAssociativeCache cache(
      one_set(1), std::make_unique<GmmPolicy>(
                      neg_page, GmmPolicyConfig{
                                    .strategy = GmmStrategy::kEvictionOnly}));
  cache.access(at(1));
  const AccessResult r = cache.access(at(2));
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.victim_page, 1u);
}

TEST(GmmPolicy, RescoreSkipsTheMruWayAndALoneCandidate) {
  // The MRU way is never the victim, so no eviction scores it; with two
  // ways the other one is the victim whatever it scores. No fill is
  // scored: every eviction rescores its candidates first.
  std::vector<PageIndex> scored;
  const ScoreFn counting = [&scored](PageIndex page, Timestamp) {
    scored.push_back(page);
    return -static_cast<double>(page);
  };
  const GmmPolicyConfig cfg{.strategy = GmmStrategy::kEvictionOnly};
  {
    SetAssociativeCache cache(one_set(3),
                              std::make_unique<GmmPolicy>(counting, cfg));
    cache.access(at(30));
    cache.access(at(10));
    cache.access(at(20));  // MRU
    scored.clear();
    EXPECT_EQ(cache.access(at(5)).victim_page, 30u);
    EXPECT_EQ(scored, (std::vector<PageIndex>{30, 10}));  // the candidates
  }
  {
    auto policy = std::make_unique<GmmPolicy>(counting, cfg);
    const GmmPolicy& raw = *policy;
    SetAssociativeCache cache(one_set(2), std::move(policy));
    scored.clear();
    cache.access(at(10));
    cache.access(at(50));  // MRU
    EXPECT_EQ(cache.access(at(20)).victim_page, 10u);
    EXPECT_TRUE(scored.empty());
    EXPECT_EQ(raw.inferences(), 3u);  // still one decision per miss
  }
}

TEST(GmmPolicy, BracketsSettleWhatTheyDecide) {
  // Scores -page, bracketed to within half a nat: brackets of pages more
  // than a nat apart never overlap.
  std::vector<PageIndex> scored;
  const ScoreFn counting = [&scored](PageIndex page, Timestamp) {
    scored.push_back(page);
    return -static_cast<double>(page);
  };
  const BracketFn bracket = [](std::span<const PageIndex> pages, Timestamp,
                               std::span<ScoreBracket> out) {
    for (std::size_t i = 0; i < pages.size(); ++i) {
      const double s = -static_cast<double>(pages[i]);
      out[i] = {s - 0.5, s + 0.5};
    }
    return true;
  };
  auto policy = std::make_unique<GmmPolicy>(
      counting, GmmPolicyConfig{.strategy = GmmStrategy::kCachingEviction,
                                .threshold = -25.0});
  policy->set_bracket_scorer(bracket);
  GmmPolicy* raw = policy.get();
  SetAssociativeCache cache(one_set(4), std::move(policy));
  // Above the threshold by more than half a nat: admitted unscored;
  // below it: bypassed unscored; within half a nat: scored.
  for (const PageIndex page : {10u, 20u, 30u, 25u, 5u}) cache.access(at(page));
  EXPECT_FALSE(cache.contains(30));
  EXPECT_TRUE(cache.contains(25));
  EXPECT_EQ(scored, (std::vector<PageIndex>{25}));
  EXPECT_EQ(raw->settled().admissions, 3u);
  EXPECT_EQ(raw->settled().bypasses, 1u);
  EXPECT_EQ(raw->inferences(), 5u);

  // Full set {10, 20, 25, 5}, page 5 the MRU. The candidates' brackets do
  // not overlap, so the lowest one is the victim and nothing is scored:
  // the others store their lower bounds, the victim its upper bound.
  scored.clear();
  const AccessResult r = cache.access(at(1));
  EXPECT_EQ(r.victim_page, 25u);
  EXPECT_TRUE(scored.empty());
  EXPECT_EQ(raw->settled().ways, 3u);
  EXPECT_EQ(raw->stored_score(0, 0), -10.5);
  EXPECT_EQ(raw->stored_score(0, 1), -20.5);
}

/// Serves `stream` through two caches in lockstep: one whose GMM policy
/// scores every decision through `scorer`, one that also has `kernel`'s
/// batch and bracket scorers. Every result must match, victims included;
/// returns the bracketed policy's settled counts.
GmmPolicy::SettledCounts expect_lockstep(
    const gmm::ScorerKernel& kernel, GmmPolicyConfig cfg,
    const std::vector<AccessContext>& stream) {
  std::uint64_t bare_scores = 0;
  std::uint64_t bracketed_scores = 0;
  const auto scorer = [&kernel](std::uint64_t& count) {
    return [&kernel, &count](PageIndex page, Timestamp t) {
      ++count;
      return kernel.score_one(page, t);
    };
  };
  auto bare = std::make_unique<GmmPolicy>(scorer(bare_scores), cfg);
  auto bracketed = std::make_unique<GmmPolicy>(scorer(bracketed_scores), cfg);
  bracketed->set_batch_scorer([&](std::span<const PageIndex> pages,
                                  Timestamp t, std::span<double> out) {
    bracketed_scores += pages.size();
    kernel.score_batch(pages, t, out);
  });
  bracketed->set_bracket_scorer(
      [&kernel](std::span<const PageIndex> pages, Timestamp t,
                std::span<ScoreBracket> out) {
        return kernel.bracket_batch(pages, t, out);
      });
  const GmmPolicy& bare_policy = *bare;
  const GmmPolicy& bracketed_policy = *bracketed;
  SetAssociativeCache a(test_util::tiny_cache(64, 8), std::move(bare));
  SetAssociativeCache b(test_util::tiny_cache(64, 8), std::move(bracketed));
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const AccessResult x = a.access(stream[i]);
    const AccessResult y = b.access(stream[i]);
    const bool same = x.hit == y.hit && x.admitted == y.admitted &&
                      x.evicted == y.evicted &&
                      x.evicted_dirty == y.evicted_dirty &&
                      x.is_write == y.is_write &&
                      x.victim_page == y.victim_page;
    if (!same && ++mismatches <= 5) ADD_FAILURE() << "request " << i;
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(a.stats().evictions, stream.size() / 10);
  EXPECT_EQ(bare_policy.inferences(), bracketed_policy.inferences());
  EXPECT_LT(bracketed_scores, bare_scores);
  return bracketed_policy.settled();
}

// A policy with a K = 256 model's brackets serves a stream exactly as a
// twin that scores every decision: same admissions, same victims. The
// brackets settle what the rules allow and nothing else: admissions only
// where no fill-time score is read, eviction candidates only where the
// set is rescored.
TEST(GmmPolicy, BracketedTwinDecidesExactlyAsFullScoring) {
  Rng rng(0x51ce);
  const gmm::GaussianMixture model = test_util::narrow_mixture(256, rng);
  const gmm::ScorerKernel kernel = model.make_kernel();
  ASSERT_TRUE(kernel.pruned());

  // 40 k requests over 4096 pages spread across the page range, with
  // timestamps sweeping normalized t from 0 to 2 (past the components).
  constexpr std::size_t kRequests = 40000;
  trace::Zipf zipf(4096, 0.8);
  std::vector<AccessContext> stream;
  std::vector<double> scores;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const PageIndex page = zipf.sample(rng) * 16 + rng.below(16);
    const auto t = static_cast<Timestamp>(i * 2000 / kRequests);
    stream.push_back(at(page, t, rng.chance(0.15)));
    scores.push_back(kernel.score_one(page, t));
  }
  std::sort(scores.begin(), scores.end());
  const double threshold = scores[scores.size() / 2];

  {
    SCOPED_TRACE("caching + eviction");
    const auto settled = expect_lockstep(
        kernel,
        {.strategy = GmmStrategy::kCachingEviction, .threshold = threshold},
        stream);
    EXPECT_GT(settled.bypasses, 0u);
    EXPECT_GT(settled.admissions, 0u);
    EXPECT_GT(settled.ways, 0u);
  }
  {
    SCOPED_TRACE("caching only (LRU eviction)");
    const auto settled = expect_lockstep(
        kernel, {.strategy = GmmStrategy::kCachingOnly, .threshold = threshold},
        stream);
    EXPECT_GT(settled.bypasses, 0u);
    EXPECT_GT(settled.admissions, 0u);
    EXPECT_EQ(settled.ways, 0u);
  }
  {
    SCOPED_TRACE("fill-time scores (rescore_set_on_evict off)");
    const auto settled = expect_lockstep(
        kernel,
        {.strategy = GmmStrategy::kCachingEviction,
         .threshold = threshold,
         .rescore_set_on_evict = false},
        stream);
    EXPECT_GT(settled.bypasses, 0u);
    EXPECT_EQ(settled.admissions, 0u);  // every admitted page's score is read
    EXPECT_EQ(settled.ways, 0u);
  }
  {
    SCOPED_TRACE("eviction only");
    const auto settled = expect_lockstep(
        kernel, {.strategy = GmmStrategy::kEvictionOnly}, stream);
    EXPECT_EQ(settled.bypasses + settled.admissions, 0u);
    EXPECT_GT(settled.ways, 0u);
  }
}

}  // namespace
}  // namespace icgmm::cache

// GMM-scored cache policy (paper §3.2 / Fig. 4).
//
// On a miss the policy engine computes the GMM score of the requested page
// at the current logical timestamp. "Smart caching" admits the page only
// when the score clears a threshold; "smart eviction" replaces the LRU
// counter with the stored GMM score and evicts the lowest-scoring block in
// the set. Scores are stored at fill time and NOT recomputed on hits (the
// paper bypasses the GMM on hits); refresh_on_hit exists as an ablation.
//
// The paper's FPGA streams every way through an II=1 pipeline, so a score
// that cannot change a decision costs it nothing; software pays for each
// one. The policy therefore scores only what can change a decision: the
// MRU way is never rescored (it is never the victim), a kEvictionOnly
// fill is not scored when evictions rescore the set, and with a bracket
// scorer (score ranges from the model's bracket table) it settles what a
// bracket decides and scores the rest, with the same tie rule. Every
// decision equals the one full scoring makes.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "cache/policy.hpp"

namespace icgmm::cache {

/// Scoring callback: log-domain GMM score of (page, timestamp). Log domain
/// keeps thresholding monotone while avoiding density underflow.
using ScoreFn = std::function<double(PageIndex, Timestamp)>;

/// Batched scoring callback: log-scores of `pages[i]` at one shared
/// timestamp written to `out[i]` (out.size() >= pages.size()). Lets the
/// eviction-time rescore of a whole set run over a contiguous span with one
/// model-snapshot load instead of one indirect call per way.
using BatchScoreFn =
    std::function<void(std::span<const PageIndex>, Timestamp, std::span<double>)>;

/// Bracket callback: a guaranteed range of each of `pages[i]`'s scores at
/// one shared timestamp, written to `out[i]` (out.size() >= pages.size()).
/// Returns false, writing nothing, when the model has no brackets.
using BracketFn = std::function<bool(std::span<const PageIndex>, Timestamp,
                                     std::span<ScoreBracket>)>;

/// The three strategies evaluated in Fig. 6.
enum class GmmStrategy : std::uint8_t {
  kCachingOnly,      ///< GMM admission, LRU eviction
  kEvictionOnly,     ///< always admit, GMM eviction
  kCachingEviction,  ///< GMM admission + GMM eviction
};

const char* to_string(GmmStrategy s) noexcept;

struct GmmPolicyConfig {
  GmmStrategy strategy = GmmStrategy::kCachingEviction;
  /// Log-score admission threshold (tuned per trace; see core/threshold).
  double threshold = -std::numeric_limits<double>::infinity();
  /// Ablation: recompute the stored score when a block hits.
  bool refresh_on_hit = false;
  /// Rescore the set's resident blocks at the *current* timestamp when
  /// choosing a victim (paper §3.2: blocks are sorted by GMM score at
  /// eviction time, "on-the-fly using current status trace information").
  /// The II=1 pipeline makes this nearly free in hardware (assoc extra
  /// cycles). Off = compare fill-time scores, which go stale as the
  /// temporal phase moves on — kept as an ablation.
  bool rescore_set_on_evict = true;
};

class GmmPolicy final : public ReplacementPolicy {
 public:
  GmmPolicy(ScoreFn scorer, GmmPolicyConfig cfg);

  /// Optional batched scorer used for the eviction-time set rescore. Must
  /// agree numerically with the per-page scorer (same model, same math) or
  /// admission and eviction would judge pages on different scales.
  void set_batch_scorer(BatchScoreFn batch);

  /// Optional bracket scorer. Its brackets must hold for the per-page
  /// scorer's scores (same model); then, with no decision changed:
  ///  * an admission whose bracket lies below the threshold bypasses, and
  ///    one at or above it admits where no fill-time score is ever read
  ///    (rescore_set_on_evict, or kCachingOnly's LRU eviction);
  ///  * at eviction, a way whose lower bound exceeds the least upper
  ///    bound among the candidates cannot be the victim and stores that
  ///    lower bound; a lone survivor is the victim and stores its upper
  ///    bound, which is that least one.
  /// Each of those decisions is called first, so a scorer that pins a
  /// model snapshot on the bracket call can score the rest of the
  /// decision on the same snapshot.
  void set_bracket_scorer(BracketFn bracket);

  /// NOTE: the per-page scorer closure is *copied*, not re-created — a
  /// clone used from another thread shares whatever state it captures, so
  /// scorers must capture immutable state (e.g. a model by value, as
  /// PolicyEngine::score_fn does) for clones to be independent. The batch
  /// and bracket scorers are NOT carried over: they are per-instance
  /// wiring to external (typically per-shard, mutable) scoring plumbing,
  /// and each clone's owner must set them again — see runtime::Runtime's
  /// GMM mode, which builds one InferenceBatcher per shard.
  std::unique_ptr<ReplacementPolicy> clone() const override;
  void attach(std::uint64_t sets, std::uint32_t ways) override;
  bool should_admit(const AccessContext& ctx) override;
  std::uint32_t choose_victim(std::uint64_t set,
                              std::span<const PageIndex> resident,
                              const AccessContext& ctx) override;
  void on_hit(std::uint64_t set, std::uint32_t way, const AccessContext& ctx) override;
  void on_fill(std::uint64_t set, std::uint32_t way, const AccessContext& ctx) override;

  const GmmPolicyConfig& config() const noexcept { return cfg_; }

  /// Number of GMM inferences — the quantity the dataflow architecture
  /// overlaps with SSD access: one decision per miss, whether a page was
  /// scored or a bracket settled it.
  std::uint64_t inferences() const noexcept { return inferences_; }

  /// Decisions the bracket scorer settled without scoring a page.
  struct SettledCounts {
    std::uint64_t bypasses = 0;    ///< misses bypassed unscored
    std::uint64_t admissions = 0;  ///< misses admitted unscored
    std::uint64_t ways = 0;        ///< eviction candidates left unscored
  };
  const SettledCounts& settled() const noexcept { return settled_; }

  /// Stored score of a resident block (tests/introspection).
  double stored_score(std::uint64_t set, std::uint32_t way) const {
    return score_.at(set * ways_ + way);
  }

 private:
  /// Whether the pending score is this miss's (page and timestamp).
  bool pending_for(const AccessContext& ctx) const noexcept;
  double score_page(const AccessContext& ctx);
  /// One inference settled with `value` standing in for the page's score.
  void settle(const AccessContext& ctx, double value);
  /// Rescores the set's ways at `t`, all but `mru`, the ones a bracket
  /// rules out excepted.
  void rescore(std::uint64_t base, std::uint32_t mru,
               std::span<const PageIndex> resident, Timestamp t);
  void touch(std::uint64_t set, std::uint32_t way);

  ScoreFn scorer_;
  BatchScoreFn batch_scorer_;  ///< null: rescore falls back to scorer_
  BracketFn bracket_;          ///< null: every decision scores
  GmmPolicyConfig cfg_;
  std::uint32_t ways_ = 0;
  std::uint64_t tick_ = 0;
  std::vector<double> score_;           ///< per-block GMM score table
  std::vector<std::uint64_t> last_use_; ///< LRU fallback for kCachingOnly
  std::uint64_t inferences_ = 0;
  SettledCounts settled_;

  // One inference per miss: should_admit caches the score for on_fill.
  bool pending_valid_ = false;
  PageIndex pending_page_ = 0;
  Timestamp pending_time_ = 0;
  double pending_score_ = 0.0;
};

}  // namespace icgmm::cache

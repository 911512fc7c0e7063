#include "core/policy_engine.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>

#include "gmm/kernel.hpp"

namespace icgmm::core {

const gmm::FitReport& PolicyEngine::train(const trace::Trace& collected) {
  // Warm-up trim, with the head cut rounded DOWN to an access-shot
  // boundary: Algorithm-1 timestamps are periodic with the shot, so an
  // unaligned cut would train the GMM on a time axis phase-shifted from
  // what it sees at run time and corrupt every temporal pattern learned.
  const std::uint64_t shot_records =
      static_cast<std::uint64_t>(cfg_.transform.len_window) *
      trace::TimestampTransform(cfg_.transform).timestamp_bound();
  auto head = static_cast<std::size_t>(
      cfg_.trim.head_fraction * static_cast<double>(collected.size()));
  if (shot_records > 0) head -= head % shot_records;
  const auto tail = static_cast<std::size_t>(
      cfg_.trim.tail_fraction * static_cast<double>(collected.size()));
  const std::size_t keep =
      collected.size() > head + tail ? collected.size() - head - tail
                                     : collected.size() - head;
  // The kept range walked once, in place, for the stride picks: no
  // trimmed copy and no full sample set outlive EM.
  const std::vector<trace::GmmSample> sub = trace::subsampled_gmm_samples(
      collected.records(head, keep), cfg_.transform, cfg_.train_subsample);

  gmm::EmTrainer trainer(cfg_.em);
  model_ = trainer.fit(sub);
  report_ = trainer.report();

  training_scores_.clear();
  training_scores_.reserve(sub.size());
  for (const auto& s : sub) {
    training_scores_.push_back(model_->log_score(s.page, s.time));
  }
  std::sort(training_scores_.begin(), training_scores_.end());
  return report_;
}

void PolicyEngine::load(gmm::GaussianMixture model) {
  model_ = std::move(model);
  training_scores_.clear();
}

const gmm::GaussianMixture& PolicyEngine::model() const {
  if (!model_) throw std::logic_error("PolicyEngine: not trained");
  return *model_;
}

cache::ScoreFn PolicyEngine::score_fn() const {
  if (!model_) throw std::logic_error("PolicyEngine: not trained");
  // Capture the flat SoA kernel snapshot, not the mixture: scorers outlive
  // the engine freely, the kernel is a few KB (K * 6 doubles and a pointer
  // to the model's immutable pruning grid), and copies (e.g. policy
  // clones) get independent timestamp caches, so every clone stays safe to
  // drive from its own thread.
  return [kernel = model_->make_kernel()](PageIndex page, Timestamp ts) {
    return kernel.score_one(page, ts);
  };
}

std::unique_ptr<cache::GmmPolicy> PolicyEngine::make_policy(
    cache::GmmStrategy strategy, double threshold, bool refresh_on_hit) const {
  return make_policy(cache::GmmPolicyConfig{.strategy = strategy,
                                            .threshold = threshold,
                                            .refresh_on_hit = refresh_on_hit});
}

std::unique_ptr<cache::GmmPolicy> PolicyEngine::make_policy(
    cache::GmmPolicyConfig cfg) const {
  auto policy = std::make_unique<cache::GmmPolicy>(score_fn(), cfg);
  // Span scoring and brackets from one kernel of this policy's own, as
  // the runtime wires each shard's batcher: the simulator then scores
  // exactly the pages serving scores, with the same decisions.
  const auto kernel = std::make_shared<const gmm::ScorerKernel>(
      model_->make_kernel());
  policy->set_batch_scorer([kernel](std::span<const PageIndex> pages,
                                    Timestamp t, std::span<double> out) {
    kernel->score_batch(pages, t, out);
  });
  policy->set_bracket_scorer([kernel](std::span<const PageIndex> pages,
                                      Timestamp t,
                                      std::span<ScoreBracket> out) {
    return kernel->bracket_batch(pages, t, out);
  });
  return policy;
}

}  // namespace icgmm::core

#include "runtime/inference_batcher.hpp"

namespace icgmm::runtime {

void InferenceBatcher::refresh_kernel() {
  const std::uint64_t published = slot_->version();
  if (published != version_) {
    model_ = slot_->load();
    kernel_ = model_->make_kernel();
    version_ = published;
  }
}

void InferenceBatcher::score_span(std::span<const PageIndex> pages,
                                  Timestamp t, std::span<double> out) {
  // One snapshot pin and one kernel call per span.
  refresh_unless_pinned();
  count_fallbacks(kernel_.score_batch(pages, t, out));
  batches_.fetch_add(1, std::memory_order_relaxed);
  scored_.fetch_add(pages.size(), std::memory_order_relaxed);
}

double InferenceBatcher::score_one(PageIndex page, Timestamp t) {
  scored_.fetch_add(1, std::memory_order_relaxed);
  refresh_unless_pinned();
  // A one-page span: bit-identical to ScorerKernel::score_one, and it
  // reports the fallback.
  double out;
  count_fallbacks(kernel_.score_batch({&page, 1}, t, {&out, 1}));
  return out;
}

bool InferenceBatcher::bracket_span(std::span<const PageIndex> pages,
                                    Timestamp t,
                                    std::span<ScoreBracket> out) {
  refresh_kernel();
  pinned_ = true;
  return kernel_.bracket_batch(pages, t, out);
}

}  // namespace icgmm::runtime

// Trace preprocessing per paper §3.1: warm-up trimming and the conversion
// of a raw trace into the (page index, timestamp) sample set that trains
// the 2-D GMM.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "trace/timestamp_transform.hpp"
#include "trace/trace.hpp"

namespace icgmm::trace {

/// One GMM training sample: the paper's x = [P, T].
struct GmmSample {
  double page = 0.0;  ///< page index (unnormalized; the GMM normalizes)
  double time = 0.0;  ///< Algorithm-1 logical timestamp

  friend constexpr bool operator==(const GmmSample&, const GmmSample&) = default;
};

struct TrimConfig {
  double head_fraction = 0.20;  ///< paper: discard initial 20 % (warm-up bias)
  double tail_fraction = 0.10;  ///< paper: discard final 10 %
};

/// Returns the trace with head/tail fractions removed. Fractions are clamped
/// so at least one record survives a non-empty input.
Trace trim_warmup(const Trace& input, const TrimConfig& cfg = {});

/// Runs the streaming Algorithm-1 transform over a whole trace and returns
/// the (page, timestamp) samples for GMM training.
std::vector<GmmSample> to_gmm_samples(const Trace& input,
                                      const TransformConfig& cfg = {});

/// Subsamples `samples` down to at most `max_count` points with a fixed
/// stride (keeps temporal coverage, unlike head-truncation): sample
/// floor(stride * i) for stride = size / max_count. Training on a few 10k
/// points reproduces full-trace EM fits closely (see tests).
std::vector<GmmSample> stride_subsample(const std::vector<GmmSample>& samples,
                                        std::size_t max_count);

/// stride_subsample(to_gmm_samples(records, cfg), max_count) in one walk
/// that holds only the kept samples.
std::vector<GmmSample> subsampled_gmm_samples(std::span<const Record> records,
                                              const TransformConfig& cfg,
                                              std::size_t max_count);

}  // namespace icgmm::trace

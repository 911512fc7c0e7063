#include "trace/preprocess.hpp"

#include <algorithm>

namespace icgmm::trace {

Trace trim_warmup(const Trace& input, const TrimConfig& cfg) {
  if (input.empty()) return Trace(input.name());
  const double head = std::clamp(cfg.head_fraction, 0.0, 1.0);
  const double tail = std::clamp(cfg.tail_fraction, 0.0, 1.0);
  const auto n = input.size();
  auto first = static_cast<std::size_t>(head * static_cast<double>(n));
  auto last = n - static_cast<std::size_t>(tail * static_cast<double>(n));
  if (first >= last) {  // degenerate fractions: keep the middle record
    first = n / 2;
    last = first + 1;
  }
  return input.slice(first, last - first);
}

std::vector<GmmSample> to_gmm_samples(const Trace& input,
                                      const TransformConfig& cfg) {
  return subsampled_gmm_samples(input.records(), cfg, 0);
}

namespace {

/// The stride of max_count picks from `size` items (1 keeps them all).
double pick_stride(std::size_t size, std::size_t max_count) {
  if (max_count == 0 || size <= max_count) return 1.0;
  return static_cast<double>(size) / static_cast<double>(max_count);
}

std::size_t pick_index(double stride, std::size_t i) {
  return static_cast<std::size_t>(stride * static_cast<double>(i));
}

}  // namespace

std::vector<GmmSample> stride_subsample(const std::vector<GmmSample>& samples,
                                        std::size_t max_count) {
  if (max_count == 0 || samples.size() <= max_count) return samples;
  std::vector<GmmSample> out;
  out.reserve(max_count);
  const double stride = pick_stride(samples.size(), max_count);
  for (std::size_t i = 0; i < max_count; ++i) {
    out.push_back(samples[pick_index(stride, i)]);
  }
  return out;
}

std::vector<GmmSample> subsampled_gmm_samples(std::span<const Record> records,
                                              const TransformConfig& cfg,
                                              std::size_t max_count) {
  const std::size_t count =
      max_count == 0 ? records.size() : std::min(records.size(), max_count);
  const double stride = pick_stride(records.size(), max_count);
  std::vector<GmmSample> out;
  out.reserve(count);
  TimestampTransform transform(cfg);
  for (std::size_t r = 0; r < records.size() && out.size() < count; ++r) {
    const GmmSample sample{static_cast<double>(records[r].page()),
                           static_cast<double>(transform.next())};
    while (out.size() < count && pick_index(stride, out.size()) == r) {
      out.push_back(sample);
    }
  }
  return out;
}

}  // namespace icgmm::trace

#include "trace/trace.hpp"

#include <algorithm>
#include <unordered_set>

namespace icgmm::trace {

std::size_t Trace::unique_pages() const {
  std::unordered_set<PageIndex> pages;
  pages.reserve(records_.size() / 8 + 1);
  for (const Record& r : records_) pages.insert(r.page());
  return pages.size();
}

std::uint64_t Trace::footprint_bytes() const {
  return static_cast<std::uint64_t>(unique_pages()) * kPageBytes;
}

double Trace::write_fraction() const {
  if (records_.empty()) return 0.0;
  const auto writes = static_cast<double>(
      std::count_if(records_.begin(), records_.end(),
                    [](const Record& r) { return r.is_write(); }));
  return writes / static_cast<double>(records_.size());
}

PhysAddr Trace::max_addr() const {
  PhysAddr mx = 0;
  for (const Record& r : records_) mx = std::max(mx, r.addr);
  return mx;
}

std::span<const Record> Trace::records(std::size_t first,
                                       std::size_t count) const noexcept {
  if (first >= records_.size()) return {};
  return records().subspan(first, std::min(count, records_.size() - first));
}

Trace Trace::slice(std::size_t first, std::size_t count) const {
  const std::span<const Record> part = records(first, count);
  return Trace(name_, std::vector<Record>(part.begin(), part.end()));
}

}  // namespace icgmm::trace

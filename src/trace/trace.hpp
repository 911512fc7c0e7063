// Trace container: an ordered stream of memory requests plus summary queries.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "trace/record.hpp"

namespace icgmm::trace {

/// Value-semantic container for a collected or generated trace.
/// Invariant: records are in collection order (time non-decreasing when the
/// producer stamps real times; generators stamp time = sequence index).
class Trace {
 public:
  Trace() = default;
  explicit Trace(std::string name) : name_(std::move(name)) {}
  Trace(std::string name, std::vector<Record> records)
      : name_(std::move(name)), records_(std::move(records)) {}

  const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  std::size_t size() const noexcept { return records_.size(); }
  bool empty() const noexcept { return records_.empty(); }
  const Record& operator[](std::size_t i) const noexcept { return records_[i]; }

  std::span<const Record> records() const noexcept { return records_; }
  auto begin() const noexcept { return records_.begin(); }
  auto end() const noexcept { return records_.end(); }

  void reserve(std::size_t n) { records_.reserve(n); }
  void push_back(const Record& r) { records_.push_back(r); }

  /// Number of distinct 4 KB pages touched (the SSD-side footprint).
  std::size_t unique_pages() const;
  /// Footprint in bytes: unique_pages() * 4 KB.
  std::uint64_t footprint_bytes() const;
  /// Fraction of write requests.
  double write_fraction() const;
  /// Largest physical address touched (0 for an empty trace).
  PhysAddr max_addr() const;

  /// The records [first, first+count), clamped to the trace, in place.
  std::span<const Record> records(std::size_t first,
                                  std::size_t count) const noexcept;
  /// Returns the sub-trace [first, first+count) as a copy.
  Trace slice(std::size_t first, std::size_t count) const;

 private:
  std::string name_;
  std::vector<Record> records_;
};

}  // namespace icgmm::trace

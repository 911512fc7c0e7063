// Fundamental value types shared across the ICGMM library.
//
// The whole system traffics in three quantities: physical byte addresses
// as seen by the host, 4 KB page indices as seen by the SSD, and logical
// timestamps produced by the Algorithm-1 transform. Giving each its own
// alias keeps interfaces self-describing and prevents silent unit mixups.
#pragma once

#include <cstdint>

namespace icgmm {

/// Host physical byte address (CXL.mem request address).
using PhysAddr = std::uint64_t;

/// SSD page index: PhysAddr >> kPageShift. Note the paper's Sec. 3.1 writes
/// "PI = PA << 12", a typo for a right shift; see DESIGN.md.
using PageIndex = std::uint64_t;

/// Logical timestamp assigned by the Algorithm-1 window transform.
using Timestamp = std::uint64_t;

/// Nanoseconds; all latency accounting is done in ns to keep integers exact.
using Nanos = std::uint64_t;

/// SSD minimum access granularity is one 4 KB page.
inline constexpr unsigned kPageShift = 12;
inline constexpr std::uint64_t kPageBytes = 1ull << kPageShift;

/// Host access granularity (one DRAM burst / cache line).
inline constexpr std::uint64_t kHostLineBytes = 64;

/// Converts a physical byte address to the 4 KB SSD page that holds it.
constexpr PageIndex page_of(PhysAddr pa) noexcept { return pa >> kPageShift; }

/// First byte address of a page.
constexpr PhysAddr addr_of(PageIndex pi) noexcept { return pi << kPageShift; }

/// A guaranteed range of one GMM log-score: lo <= score <= hi. An input
/// the model cannot bound gets {-inf, +inf}.
struct ScoreBracket {
  double lo = 0.0;
  double hi = 0.0;
};

/// Memory request direction.
enum class AccessType : std::uint8_t { kRead = 0, kWrite = 1 };

constexpr const char* to_string(AccessType t) noexcept {
  return t == AccessType::kRead ? "R" : "W";
}

}  // namespace icgmm

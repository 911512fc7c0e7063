// Shared helpers for the bench binaries: CLI parsing, the paper's
// reference numbers printed beside ours for every reproduced artifact,
// and what the two serving harnesses (throughput_runtime, throughput_net)
// measure alike: their workload, interleaved reps, per-rep spreads and
// CPU clocks.
#pragma once

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cache/config.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "trace/trace.hpp"
#include "trace/zipf.hpp"

namespace icgmm::bench {

struct Options {
  std::size_t requests = 1000000;
  bool quick = false;
  std::string json_path;  ///< --json FILE; empty writes no JSON

  static Options parse(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--quick") == 0) {
        opt.quick = true;
        opt.requests = 300000;
      } else if (std::strcmp(argv[i], "-n") == 0 && i + 1 < argc) {
        opt.requests = std::strtoull(argv[++i], nullptr, 10);
      } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        opt.json_path = argv[++i];
      }
    }
    return opt;
  }
};

/// Paper reference rows (DAC'24, Fig. 6 and Table 1), in the paper's order.
struct PaperRow {
  const char* benchmark;
  double lru_miss_pct;
  double gmm_miss_pct;
  double lru_amat_us;
  double gmm_amat_us;
  double amat_reduction_pct;
};

inline constexpr PaperRow kPaperRows[] = {
    {"parsec", 1.47, 1.15, 3.92, 3.29, 16.23},
    {"memtier", 2.67, 1.48, 2.98, 2.09, 29.87},
    {"hashmap", 36.78, 30.64, 18.10, 11.02, 39.14},
    {"heap", 13.45, 11.09, 16.48, 12.46, 24.39},
    {"sysbench", 2.10, 1.23, 3.87, 2.91, 24.79},
    {"stream", 3.87, 2.58, 156.39, 125.71, 19.62},
    {"dlrm", 2.08, 1.54, 70.65, 58.43, 17.30},
};

inline const PaperRow* paper_row(const std::string& name) {
  for (const PaperRow& row : kPaperRows) {
    if (name == row.benchmark) return &row;
  }
  return nullptr;
}

/// Zipf skew of the serving workload.
inline constexpr double kServingZipfS = 0.99;

/// The serving harnesses' workload: Zipf popularity over 4x the cache's
/// block count (a working set larger than the cache), 10% writes, fixed
/// seed, stamped with sequence times.
inline trace::Trace serving_workload(std::size_t n,
                                     const cache::CacheConfig& cache) {
  trace::Zipf zipf(cache.blocks() * 4, kServingZipfS);
  Rng rng(0xbe7c4);
  trace::Trace t("zipf-serving");
  t.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    t.push_back({.addr = addr_of(zipf.sample(rng)),
                 .time = i,
                 .type = rng.chance(0.10) ? AccessType::kWrite
                                          : AccessType::kRead});
  }
  return t;
}

/// CPU time used so far on `clock`: CLOCK_THREAD_CPUTIME_ID for the
/// calling thread, CLOCK_PROCESS_CPUTIME_ID for every thread of the
/// process.
inline std::uint64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Reps per cell. Each rep serves whole passes of the looped workload:
/// as many as the cell's first rep needed to serve kRepSeconds (one pass
/// with --quick), so every rep of a cell does the same work. With 5 reps,
/// even independent noise puts a second run's median outside the first
/// run's min-max once in 6 cells; with 11, about once in 80.
inline constexpr int kReps = 11;
inline constexpr double kRepSeconds = 0.4;

/// Runs `kReps` rounds over `cells` cells, calling rep(cell), with the
/// cell order rotated by one each round: a slow phase of a shared host
/// lands on every cell alike, not on one cell's reps.
template <typename Rep>
void run_interleaved(std::size_t cells, Rep&& rep) {
  for (int round = 0; round < kReps; ++round) {
    for (std::size_t i = 0; i < cells; ++i) {
      rep((i + static_cast<std::size_t>(round)) % cells);
    }
  }
}

/// Serves one rep's passes through pass(), which serves one pass of the
/// workload and returns its serving seconds. With `passes` still 0 (the
/// cell's first rep) it serves until `min_seconds` have been served and
/// sets `passes` to that count; later reps serve that many.
template <typename Pass>
void serve_passes(std::uint32_t& passes, double min_seconds, Pass&& pass) {
  if (passes != 0) {
    for (std::uint32_t p = 0; p < passes; ++p) pass();
    return;
  }
  double served = 0.0;
  do {
    served += pass();
    ++passes;
  } while (served < min_seconds);
}

/// Per-rep readings of one cell, by metric name, in first-recorded order.
class RepSeries {
 public:
  struct Spread {
    double median = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  void add(const std::string& name, double value) {
    for (auto& [n, values] : series_) {
      if (n == name) {
        values.push_back(value);
        return;
      }
    }
    series_.push_back({name, {value}});
  }

  Spread spread(const std::string& name) const {
    for (const auto& [n, values] : series_) {
      if (n != name || values.empty()) continue;
      std::vector<double> v = values;
      std::sort(v.begin(), v.end());
      const std::size_t mid = v.size() / 2;
      return {.median = v.size() % 2 != 0 ? v[mid] : (v[mid - 1] + v[mid]) / 2,
              .min = v.front(),
              .max = v.back()};
    }
    return {};
  }

  /// "median [min-max]" for a table cell.
  std::string fmt(const std::string& name, int precision) const {
    const Spread s = spread(name);
    return Table::fmt(s.median, precision) + " [" +
           Table::fmt(s.min, precision) + "-" + Table::fmt(s.max, precision) +
           "]";
  }

  /// JSON fields `"name": {"median": m, "min": lo, "max": hi}`, one per
  /// metric, comma-separated.
  std::string json() const {
    std::ostringstream out;
    for (std::size_t i = 0; i < series_.size(); ++i) {
      const Spread s = spread(series_[i].first);
      out << (i == 0 ? "" : ", ") << '"' << series_[i].first
          << "\": {\"median\": " << s.median << ", \"min\": " << s.min
          << ", \"max\": " << s.max << '}';
    }
    return out.str();
  }

 private:
  std::vector<std::pair<std::string, std::vector<double>>> series_;
};

}  // namespace icgmm::bench

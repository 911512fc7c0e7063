// MetricsRegistry — the one coherent server-side observability surface.
//
// Named counters, gauges, and log-bucket latency histograms behind a
// find-or-create map; every consumer (the periodic stats line, the
// Prometheus /metrics endpoint, the wire METRICS verb) renders from the
// same collect() call, so they can never disagree about a value's name
// or source.
//
// Hot-path contract: handles returned by counter()/gauge()/histogram()
// are stable for the registry's lifetime — callers resolve once and keep
// the reference, so a hot-path increment is one relaxed atomic add with
// no map lookup and no lock. Counters are additionally sharded across
// cache-line-padded per-thread cells (merged on scrape) so concurrent
// writers do not bounce one line.
//
// Existing snapshot structs keep working: a subsystem that already owns
// its counters (RuntimeSnapshot, ServerStats) registers a *provider*
// callback instead of migrating storage — the registry wraps, it does
// not fork, the counters, so the bit-identity invariants are untouched.
// Each runtime owns one registry (runtime::Runtime::metrics()).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.hpp"

namespace icgmm::obs {

/// Round-robin per-thread cell slot, shared by every sharded counter (one
/// thread always lands on the same cell index, different threads spread).
inline std::size_t thread_cell_slot() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

/// Monotonic counter, sharded across padded cells so concurrent adders
/// never contend on one cache line. add() is one relaxed fetch_add.
class Counter {
 public:
  static constexpr std::size_t kCells = 8;

  void add(std::uint64_t delta = 1) noexcept {
    cells_[thread_cell_slot() % kCells].v.fetch_add(delta,
                                                    std::memory_order_relaxed);
  }

  /// Merged value (relaxed sum; exact at quiescence).
  std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, kCells> cells_{};
};

/// Last-write-wins value (queue depths, config knobs, liveness flags).
class Gauge {
 public:
  void set(std::uint64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class MetricsRegistry {
 public:
  /// One scraped name/value pair. Histograms flatten into several samples
  /// (<name>_count, _sum, _p50, _p99, _p999, _max — ns units carried in
  /// the metric name).
  struct Sample {
    std::string name;
    std::uint64_t value = 0;
  };

  /// Appends Samples at scrape time — how a subsystem that owns its own
  /// atomic counters exports them without forking storage.
  using Provider = std::function<void(std::vector<Sample>&)>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. The returned reference is stable for the registry's
  /// lifetime; resolve once, keep the handle. A name resolves to one kind
  /// only — asking for an existing name as a different kind throws
  /// std::logic_error (two surfaces silently diverging is the exact bug
  /// this registry exists to prevent).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  ConcurrentHistogram& histogram(std::string_view name);

  /// Registers a scrape-time provider; returns an id for remove_provider.
  /// The callback runs under the registry mutex — keep it allocation-light
  /// and never let it call back into this registry.
  std::uint64_t add_provider(Provider provider);
  void remove_provider(std::uint64_t id);

  /// Every sample from every counter, gauge, histogram, and provider,
  /// sorted by name. THE rendering source for every surface.
  std::vector<Sample> collect() const;

  /// Prometheus text exposition — one untyped `name value` line per
  /// collected sample, the /metrics endpoint body.
  std::string render_prometheus() const;

  /// Convenience for renderers: value of `name` in `samples`, or 0.
  static std::uint64_t value_of(const std::vector<Sample>& samples,
                                std::string_view name) noexcept;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Entry {
    Kind kind = Kind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<ConcurrentHistogram> histogram;
  };

  Entry& find_or_create(std::string_view name, Kind kind);

  mutable std::mutex mu_;
  // std::map: stable node addresses (handles survive later inserts) and
  // already name-sorted for collect().
  std::map<std::string, Entry, std::less<>> entries_;
  std::vector<std::pair<std::uint64_t, Provider>> providers_;
  std::uint64_t next_provider_id_ = 1;
};

}  // namespace icgmm::obs

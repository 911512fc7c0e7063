#include "runtime/replay.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "trace/timestamp_transform.hpp"

namespace icgmm::runtime {

namespace {

/// Requests staged per apply_batch call — large enough to amortize the
/// span setup, small enough to keep the staging arrays in L1.
constexpr std::size_t kReplayBatch = 256;

/// CPU time the calling thread has used so far.
std::uint64_t thread_cpu_ns() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Replays records [first, last) with a fresh logical clock and private
/// latency accumulator, staged through Runtime::apply_batch in spans of
/// kReplayBatch — the same entry point the net server feeds, so both
/// drivers run one code path. `clear_points` (sorted indices relative to
/// this chunk's processed count; single-thread mode only) clear the
/// runtime's stats and this thread's latency at those exact requests;
/// batches are split at each boundary so every clear lands on exactly
/// the request it was recorded (or warm-up-computed) at. Returns the CPU
/// time the calling thread spent on the chunk.
std::uint64_t replay_chunk(Runtime& rt, const trace::Trace& trace,
                           std::size_t first, std::size_t last,
                           const ReplayConfig& cfg,
                           std::span<const std::size_t> clear_points,
                           sim::LatencyModel& latency) {
  const std::uint64_t cpu0 = thread_cpu_ns();
  trace::TimestampTransform transform(cfg.transform);
  Access batch[kReplayBatch];
  cache::AccessResult results[kReplayBatch];
  std::size_t processed = 0;
  std::size_t next_clear = 0;
  const auto clear_if_due = [&] {
    while (next_clear < clear_points.size() &&
           clear_points[next_clear] == processed) {
      rt.clear_stats();
      latency.reset();
      ++next_clear;
    }
  };
  std::size_t i = first;
  clear_if_due();  // a recorded FLUSH can precede the first access
  while (i < last) {
    std::size_t n = std::min(kReplayBatch, last - i);
    if (next_clear < clear_points.size()) {
      const std::size_t boundary = clear_points[next_clear];
      if (boundary > processed && boundary - processed < n) {
        n = boundary - processed;  // split so the batch ends at the boundary
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      const trace::Record& r = trace[i + j];
      batch[j] = {.page = r.page(),
                  .timestamp = cfg.raw_timestamps ? r.time : transform.next(),
                  .is_write = r.is_write()};
    }
    rt.apply_batch({batch, n}, {results, n});
    for (std::size_t j = 0; j < n; ++j) {
      latency.record(results[j], cfg.policy_runs_on_miss && !results[j].hit);
    }
    processed += n;
    i += n;
    clear_if_due();
  }
  return thread_cpu_ns() - cpu0;
}

}  // namespace

ReplayResult replay_trace(Runtime& rt, const trace::Trace& trace,
                          const ReplayConfig& cfg) {
  const std::uint32_t threads = std::max(1u, cfg.threads);
  ReplayResult result;
  result.run.policy_name = rt.policy_name();

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<sim::LatencyModel> latency(threads,
                                         sim::LatencyModel(cfg.latency));
  std::vector<std::uint64_t> cpu_ns(threads, 0);
  if (threads == 1) {
    std::vector<std::size_t> clear_points = cfg.clear_points;
    if (clear_points.empty()) {
      const auto warmup = static_cast<std::size_t>(
          std::clamp(cfg.warmup_fraction, 0.0, 0.9) *
          static_cast<double>(trace.size()));
      if (warmup > 0) clear_points.push_back(warmup);
    }
    cpu_ns[0] =
        replay_chunk(rt, trace, 0, trace.size(), cfg, clear_points, latency[0]);
  } else {
    // Contiguous chunks, remainder spread over the first chunks.
    const std::size_t base = trace.size() / threads;
    const std::size_t extra = trace.size() % threads;
    std::vector<std::thread> workers;
    workers.reserve(threads);
    std::size_t first = 0;
    for (std::uint32_t t = 0; t < threads; ++t) {
      const std::size_t count = base + (t < extra ? 1 : 0);
      const std::size_t last = first + count;
      workers.emplace_back([&rt, &trace, first, last, &cfg,
                            &lat = latency[t], &cpu = cpu_ns[t]] {
        cpu = replay_chunk(rt, trace, first, last, cfg, /*clear_points=*/{},
                           lat);
      });
      first = last;
    }
    for (std::thread& w : workers) w.join();
  }
  const auto t1 = std::chrono::steady_clock::now();

  result.run.stats = rt.merged_stats();
  for (const sim::LatencyModel& lm : latency) {
    result.run.requests += lm.requests();
    result.run.latency.hit_ns += lm.breakdown().hit_ns;
    result.run.latency.fill_read_ns += lm.breakdown().fill_read_ns;
    result.run.latency.writeback_ns += lm.breakdown().writeback_ns;
    result.run.latency.bypass_ns += lm.breakdown().bypass_ns;
    result.run.latency.policy_ns += lm.breakdown().policy_ns;
  }
  result.run.policy_inferences = rt.inferences();
  for (const std::uint64_t ns : cpu_ns) result.serving_cpu_ns += ns;
  result.elapsed_seconds =
      std::chrono::duration<double>(t1 - t0).count();
  result.requests_per_second =
      result.elapsed_seconds > 0.0
          ? static_cast<double>(trace.size()) / result.elapsed_seconds
          : 0.0;
  return result;
}

}  // namespace icgmm::runtime

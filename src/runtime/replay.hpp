// Multi-threaded trace replay through a Runtime — the measurement driver
// behind the throughput bench and the CLI's --threads/--shards path.
//
// threads == 1 reproduces sim::run_trace semantics *exactly* (same
// Algorithm-1 transform stream, same warm-up stats clear, same latency
// accounting), so a 1-shard/1-thread runtime run is bit-identical to the
// single-threaded simulator. With threads > 1 the trace is split into
// contiguous chunks, one serving thread per chunk, each with its own
// logical clock (TimestampTransform) and latency accumulator; results are
// merged after the join. Warm-up clearing is skipped in that case — the
// shards are global state and a per-thread "clear" point is meaningless —
// so multi-threaded stats cover the whole run.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/runtime.hpp"
#include "sim/engine.hpp"

namespace icgmm::runtime {

struct ReplayConfig {
  std::uint32_t threads = 1;
  sim::LatencyConfig latency;
  trace::TransformConfig transform;
  /// Charge policy-engine inference latency per miss (GMM policies).
  bool policy_runs_on_miss = false;
  /// Head fraction excluded from measurement; honored only when
  /// threads == 1 (see file comment).
  double warmup_fraction = 0.2;
  /// Use each record's stored timestamp verbatim instead of regenerating
  /// logical time through the Algorithm-1 transform. Recorded-capture
  /// replay needs this: the capture already holds the timestamps the
  /// server actually served, and re-transforming them would double-apply
  /// the window mapping.
  bool raw_timestamps = false;
  /// Explicit stats-clear boundaries (sorted record indices; value k
  /// means "clear after the first k records"). Non-empty overrides
  /// warmup_fraction; honored only when threads == 1. This is how a
  /// recorded capture's FLUSH markers reproduce the server's measured
  /// window exactly.
  std::vector<std::size_t> clear_points;
};

struct ReplayResult {
  sim::RunResult run;
  double elapsed_seconds = 0.0;
  /// Aggregate serving throughput over the measured wall-clock window.
  double requests_per_second = 0.0;
  /// CPU time the serving threads spent in the replay, summed over them
  /// (each thread's CLOCK_THREAD_CPUTIME_ID). Background consumers of the
  /// served accesses run on threads of their own and are not in it.
  std::uint64_t serving_cpu_ns = 0;
};

/// Drives `trace` through `rt` and returns merged statistics in the same
/// shape sim::run_trace produces. The runtime's stats are cleared at the
/// warm-up point (threads == 1) but otherwise accumulate — pass a fresh
/// runtime for an isolated measurement.
ReplayResult replay_trace(Runtime& rt, const trace::Trace& trace,
                          const ReplayConfig& cfg);

}  // namespace icgmm::runtime

// The wire-equivalence bar shared by the serving and recording end-to-end
// tests: the wire stream replay_trace generates, one connection's replay
// of it through the shared client driver, and the counter comparison a
// served run must pass against an in-process replay. A counter added to
// the bar is added here, once.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/client.hpp"
#include "runtime/replay.hpp"
#include "trace/timestamp_transform.hpp"
#include "trace/trace.hpp"

namespace icgmm::test_util {

/// The wire stream replay_trace would generate at threads == 1: trace
/// order, Algorithm-1 timestamps from a fresh transform.
inline std::vector<net::WireAccess> wire_stream(
    const trace::Trace& t, const trace::TransformConfig& cfg) {
  trace::TimestampTransform transform(cfg);
  std::vector<net::WireAccess> stream;
  stream.reserve(t.size());
  for (const trace::Record& r : t) {
    stream.push_back({.page = r.page(),
                      .timestamp = transform.next(),
                      .is_write = r.is_write()});
  }
  return stream;
}

/// Replays `stream` over one connection through the shared driver the
/// loadgen and net bench use, `pipeline` batches in flight, FLUSHing the
/// server at exactly the given clear points ({} = never), then returns
/// the server's METRICS.
inline net::MetricsReply serve_stream(
    std::uint16_t port, const std::vector<net::WireAccess>& stream,
    std::vector<std::size_t> clear_points, std::size_t batch = 64,
    std::size_t pipeline = 2) {
  net::Client client = net::Client::connect("127.0.0.1", port);
  net::ReplayOptions opts;
  opts.batch = batch;
  opts.pipeline = pipeline;
  opts.clear_points = std::move(clear_points);
  const std::uint64_t completed = net::replay_stream(client, stream, opts);
  EXPECT_EQ(completed, stream.size());
  return client.metrics();
}

/// Every cache and inference counter the server reports on METRICS
/// equals the in-process replay's.
inline void expect_counts_match(const net::MetricsReply& served,
                                const sim::RunResult& replayed) {
  EXPECT_EQ(served.value("icgmm_cache_accesses"), replayed.stats.accesses);
  EXPECT_EQ(served.value("icgmm_cache_hits"), replayed.stats.hits);
  EXPECT_EQ(served.value("icgmm_cache_read_misses"),
            replayed.stats.read_misses);
  EXPECT_EQ(served.value("icgmm_cache_write_misses"),
            replayed.stats.write_misses);
  EXPECT_EQ(served.value("icgmm_cache_fills"), replayed.stats.fills);
  EXPECT_EQ(served.value("icgmm_cache_bypasses"), replayed.stats.bypasses);
  EXPECT_EQ(served.value("icgmm_cache_evictions"), replayed.stats.evictions);
  EXPECT_EQ(served.value("icgmm_cache_dirty_evictions"),
            replayed.stats.dirty_evictions);
  EXPECT_EQ(served.value("icgmm_gmm_inferences"), replayed.policy_inferences);
}

}  // namespace icgmm::test_util

// Record-at-serve / replay-as-regression acceptance: serve a stream over
// the RPC loopback with the traffic recorder on, then replay the
// recorded capture through the in-process driver and reproduce the
// server's measured counters exactly — hits, misses, and (for the GMM
// policy) inference counts — with the capture's FLUSH marker standing in
// for the server-side warm-up clear. Served counters are read by name
// from METRICS. Suite name starts with "Record" for the CI TSan job.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "cache/policies/classic.hpp"
#include "core/icgmm.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "record/format.hpp"
#include "runtime/replay.hpp"
#include "test_util.hpp"
#include "trace/timestamp_transform.hpp"
#include "wire_equivalence.hpp"

namespace icgmm {
namespace {

using test_util::expect_counts_match;
using test_util::serve_stream;
using test_util::wire_stream;

record::RecorderConfig capture_config(const std::string& name) {
  record::RecorderConfig cfg;
  cfg.path = ::testing::TempDir() + "/" + name;
  // Larger than any stream below: a full ring can never drop, so the
  // equivalence checks are deterministic even on a loaded host.
  cfg.ring_capacity = 1u << 17;
  return cfg;
}

/// Replays a finalized capture through a fresh in-process runtime,
/// reproducing the server's clear-stats boundary from the FLUSH marker.
runtime::ReplayResult replay_capture(runtime::Runtime& rt,
                                     const record::RecordedTrace& capture,
                                     bool policy_runs_on_miss = false) {
  runtime::ReplayConfig cfg;
  cfg.threads = 1;
  cfg.policy_runs_on_miss = policy_runs_on_miss;
  cfg.raw_timestamps = true;  // the capture holds served logical time
  cfg.clear_points = capture.flush_points;
  cfg.warmup_fraction = 0.0;  // only the recorded FLUSH may clear
  return runtime::replay_trace(rt, capture.trace, cfg);
}

TEST(RecordE2E, RecordedLruServeReplaysToIdenticalCounts) {
  const trace::Trace t = test_util::zipf_trace(40000, 2048, 0.9, 0xCAFE);
  const std::size_t warmup = t.size() / 5;
  const record::RecorderConfig rec_cfg = capture_config("e2e_lru.icgr");
  runtime::RuntimeConfig rcfg{.cache = test_util::tiny_cache(64, 8),
                              .shards = 1};
  rcfg.record = rec_cfg;

  runtime::Runtime served_rt(rcfg, cache::LruPolicy());
  net::Server server(served_rt, {.port = 0, .workers = 1});
  server.start();
  const net::MetricsReply served = serve_stream(
      server.port(), wire_stream(t, trace::TransformConfig{}), {warmup});
  server.stop();
  served_rt.stop();  // finalizes the capture file

  const record::RecordedTrace capture =
      record::read_recorded_file(rec_cfg.path);
  ASSERT_FALSE(capture.tail_truncated);
  ASSERT_EQ(capture.trace.size(), t.size());
  ASSERT_EQ(capture.flush_points.size(), 1u);
  EXPECT_EQ(capture.flush_points[0], warmup);

  runtime::RuntimeConfig replay_cfg{.cache = rcfg.cache, .shards = 1};
  runtime::Runtime replay_rt(replay_cfg, cache::LruPolicy());
  const runtime::ReplayResult replayed = replay_capture(replay_rt, capture);
  expect_counts_match(served, replayed.run);
}

TEST(RecordE2E, RecordedGmmServeReplaysToIdenticalCounts) {
  // The full acceptance bar: the trained GMM policy's serve-time
  // counters — including inference counts — reproduce from the capture.
  const trace::Trace t = test_util::zipf_trace(40000, 2048, 0.9, 0xF00D);
  core::IcgmmConfig cfg = test_util::small_system_config();
  cfg.engine.cache = test_util::tiny_cache(64, 8);
  core::IcgmmSystem system(cfg);
  system.train(t);
  const auto strategy = cache::GmmStrategy::kCachingEviction;
  const double threshold = system.pick_threshold(t, strategy);

  const std::size_t warmup = static_cast<std::size_t>(
      cfg.engine.warmup_fraction * static_cast<double>(t.size()));
  const record::RecorderConfig rec_cfg = capture_config("e2e_gmm.icgr");
  runtime::RuntimeConfig rcfg{.cache = cfg.engine.cache, .shards = 1};
  rcfg.record = rec_cfg;

  const auto served_rt = system.make_runtime(rcfg, strategy, threshold);
  net::Server server(*served_rt, {.port = 0, .workers = 1});
  server.start();
  const net::MetricsReply served = serve_stream(
      server.port(), wire_stream(t, cfg.engine.transform), {warmup});
  server.stop();
  served_rt->stop();

  const record::RecordedTrace capture =
      record::read_recorded_file(rec_cfg.path);
  ASSERT_EQ(capture.trace.size(), t.size());
  ASSERT_EQ(capture.flush_points.size(), 1u);

  runtime::RuntimeConfig replay_cfg{.cache = rcfg.cache, .shards = 1};
  const auto replay_rt = system.make_runtime(replay_cfg, strategy, threshold);
  const runtime::ReplayResult replayed =
      replay_capture(*replay_rt, capture, /*policy_runs_on_miss=*/true);
  expect_counts_match(served, replayed.run);
  EXPECT_GT(served.value("icgmm_gmm_inferences"), 0u);
}

TEST(RecordE2E, MultiFlushCaptureReplaysOverTheWireExactly) {
  // A capture holding SEVERAL flush markers round-trips through the wire
  // replayer: record a serve with two clear points, then drive the
  // capture back through a fresh server passing every marker as a clear
  // point — final counters match the in-process replay of the same
  // capture exactly. (Before clear_points, the wire driver could only
  // reproduce the first marker.)
  const trace::Trace t = test_util::zipf_trace(30000, 1024, 0.9, 0xFA11);
  const std::vector<std::size_t> points = {7000, 19000};
  const record::RecorderConfig rec_cfg = capture_config("e2e_multi.icgr");
  runtime::RuntimeConfig rcfg{.cache = test_util::tiny_cache(32, 4),
                              .shards = 1};
  rcfg.record = rec_cfg;

  runtime::Runtime served_rt(rcfg, cache::LruPolicy());
  net::Server server(served_rt, {.port = 0, .workers = 1});
  server.start();
  serve_stream(server.port(), wire_stream(t, trace::TransformConfig{}),
               points);
  server.stop();
  served_rt.stop();

  const record::RecordedTrace capture =
      record::read_recorded_file(rec_cfg.path);
  ASSERT_EQ(capture.trace.size(), t.size());
  ASSERT_EQ(capture.flush_points.size(), points.size());
  EXPECT_EQ(capture.flush_points[0], points[0]);
  EXPECT_EQ(capture.flush_points[1], points[1]);

  // Reference: in-process replay of the capture (both markers honored).
  runtime::RuntimeConfig replay_cfg{.cache = rcfg.cache, .shards = 1};
  runtime::Runtime replay_rt(replay_cfg, cache::LruPolicy());
  const runtime::ReplayResult replayed = replay_capture(replay_rt, capture);

  // Wire replay of the capture with every recorded marker.
  std::vector<net::WireAccess> capture_stream;
  capture_stream.reserve(capture.trace.size());
  for (const trace::Record& r : capture.trace) {
    capture_stream.push_back(
        {.page = r.page(), .timestamp = r.time, .is_write = r.is_write()});
  }
  runtime::Runtime rewire_rt(replay_cfg, cache::LruPolicy());
  net::Server rewire_server(rewire_rt, {.port = 0, .workers = 1});
  rewire_server.start();
  const net::MetricsReply rewired = serve_stream(
      rewire_server.port(), capture_stream, capture.flush_points);
  rewire_server.stop();
  expect_counts_match(rewired, replayed.run);
}

TEST(RecordE2E, WireStatsCarryRecorderCounters) {
  const trace::Trace t = test_util::zipf_trace(5000, 512, 0.9, 0xB0B);
  const record::RecorderConfig rec_cfg = capture_config("e2e_stats.icgr");
  runtime::RuntimeConfig rcfg{.cache = test_util::tiny_cache(32, 4),
                              .shards = 1};
  rcfg.record = rec_cfg;

  runtime::Runtime rt(rcfg, cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 1});
  server.start();
  const net::MetricsReply mid = serve_stream(
      server.port(), wire_stream(t, trace::TransformConfig{}), {});
  // Sized-to-fit ring: nothing may drop; the written count can trail the
  // serving path by the writer thread's lag but never exceed it.
  EXPECT_EQ(mid.value("icgmm_record_dropped"), 0u);
  EXPECT_LE(mid.value("icgmm_record_written"), t.size());
  server.stop();
  rt.stop();

  const runtime::RuntimeSnapshot final_snap = rt.snapshot();
  EXPECT_EQ(final_snap.records_written, t.size());
  EXPECT_EQ(final_snap.records_dropped, 0u);
  EXPECT_GT(final_snap.record_chunks, 0u);
}

TEST(RecordE2E, StatsReportZeroRecorderCountersWhenRecordingIsOff) {
  const trace::Trace t = test_util::zipf_trace(1000, 256, 0.9, 0xD06);
  runtime::RuntimeConfig rcfg{.cache = test_util::tiny_cache(16, 4),
                              .shards = 1};
  runtime::Runtime rt(rcfg, cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 1});
  server.start();
  const net::MetricsReply s = serve_stream(
      server.port(), wire_stream(t, trace::TransformConfig{}), {});
  server.stop();
  EXPECT_EQ(s.value("icgmm_cache_accesses"), t.size());
  EXPECT_EQ(s.value("icgmm_record_written"), 0u);
  EXPECT_EQ(s.value("icgmm_record_dropped"), 0u);
  EXPECT_EQ(s.value("icgmm_record_chunks"), 0u);
}

}  // namespace
}  // namespace icgmm

// Loopback end-to-end serving equivalence (invariant 3): the same trace
// replayed through the RPC stack (loadgen-style client -> TCP -> server
// -> 1-shard runtime) must produce *identical* hit/miss/inference counts
// to the in-process replay_trace driver, for a classic policy and for the
// trained GMM policy, including the warm-up discard (client-side FLUSH at
// the same request index replay clears stats at). The server answers each
// connection in arrival order on one serving thread, so the bar holds at
// any access window and any number of serving threads. Counters are
// compared by name, as the server reports them on METRICS. Suite name
// starts with "Net" for the CI TSan job.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "cache/policies/classic.hpp"
#include "core/icgmm.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "runtime/replay.hpp"
#include "test_util.hpp"
#include "wire_equivalence.hpp"

namespace icgmm {
namespace {

using test_util::expect_counts_match;
using test_util::serve_stream;
using test_util::wire_stream;

TEST(NetE2E, ServedLruTraceMatchesInProcessReplayExactly) {
  const trace::Trace t = test_util::zipf_trace(60000, 2048, 0.9, 0x77);
  const runtime::RuntimeConfig rcfg{.cache = test_util::tiny_cache(64, 8),
                                    .shards = 1};
  runtime::ReplayConfig serve_cfg;
  serve_cfg.threads = 1;

  // Reference: the in-process replay driver.
  runtime::Runtime reference(rcfg, cache::LruPolicy());
  const runtime::ReplayResult replayed =
      runtime::replay_trace(reference, t, serve_cfg);

  // Same trace through the RPC stack; FLUSH at replay's warm-up point.
  const std::size_t warmup = static_cast<std::size_t>(
      serve_cfg.warmup_fraction * static_cast<double>(t.size()));
  runtime::Runtime served_rt(rcfg, cache::LruPolicy());
  net::Server server(served_rt, {.port = 0, .workers = 1});
  server.start();
  const net::MetricsReply served = serve_stream(
      server.port(), wire_stream(t, serve_cfg.transform), {warmup}, 64);
  server.stop();

  expect_counts_match(served, replayed.run);
}

TEST(NetE2E, ServedGmmTraceMatchesInProcessReplayExactly) {
  const trace::Trace t = test_util::zipf_trace(60000, 2048, 0.9, 0x88);
  core::IcgmmConfig cfg = test_util::small_system_config();
  cfg.engine.cache = test_util::tiny_cache(64, 8);
  core::IcgmmSystem system(cfg);
  system.train(t);

  const auto strategy = cache::GmmStrategy::kCachingEviction;
  const double threshold = system.pick_threshold(t, strategy);
  const runtime::RuntimeConfig rcfg{.cache = cfg.engine.cache, .shards = 1};

  runtime::ReplayConfig serve_cfg;
  serve_cfg.threads = 1;
  serve_cfg.policy_runs_on_miss = true;
  serve_cfg.warmup_fraction = cfg.engine.warmup_fraction;

  const auto reference = system.make_runtime(rcfg, strategy, threshold);
  const runtime::ReplayResult replayed =
      runtime::replay_trace(*reference, t, serve_cfg);

  const std::size_t warmup = static_cast<std::size_t>(
      std::clamp(serve_cfg.warmup_fraction, 0.0, 0.9) *
      static_cast<double>(t.size()));
  const auto served_rt = system.make_runtime(rcfg, strategy, threshold);
  net::Server server(*served_rt, {.port = 0, .workers = 1});
  server.start();
  const net::MetricsReply served = serve_stream(
      server.port(), wire_stream(t, serve_cfg.transform), {warmup}, 64);
  server.stop();

  expect_counts_match(served, replayed.run);
  EXPECT_GT(served.value("icgmm_gmm_inferences"), 0u);
  // Eviction rescores ran batched.
  EXPECT_GT(served.value("icgmm_gmm_score_batches"), 0u);
}

TEST(NetE2E, BatchSizeDoesNotChangeServedCounts) {
  // The wire batch is a transport detail: any chunking of the same stream
  // must land the same final counters.
  const trace::Trace t = test_util::zipf_trace(20000, 1024, 0.9, 0x99);
  const runtime::RuntimeConfig rcfg{.cache = test_util::tiny_cache(32, 4),
                                    .shards = 1};
  const trace::TransformConfig tcfg;

  net::MetricsReply first;
  bool have_first = false;
  for (const std::size_t batch : {1u, 17u, 256u, 20000u}) {
    runtime::Runtime rt(rcfg, cache::LruPolicy());
    net::Server server(rt, {.port = 0, .workers = 1});
    server.start();
    const net::MetricsReply s =
        serve_stream(server.port(), wire_stream(t, tcfg), {}, batch);
    server.stop();
    if (!have_first) {
      first = s;
      have_first = true;
      EXPECT_EQ(s.value("icgmm_cache_accesses"), t.size());
      continue;
    }
    for (const char* name :
         {"icgmm_cache_accesses", "icgmm_cache_hits", "icgmm_cache_read_misses",
          "icgmm_cache_write_misses", "icgmm_cache_evictions"}) {
      EXPECT_EQ(s.value(name), first.value(name)) << name;
    }
  }
}

TEST(NetE2E, V2MultipleClearPointsMatchInProcessReplayExactly) {
  // A capture with several FLUSH markers replays exactly on one
  // connection: every clear point lands on its recorded request index,
  // with a multi-threaded server behind it. Mirrors
  // runtime::ReplayConfig::clear_points semantics.
  const trace::Trace t = test_util::zipf_trace(30000, 1024, 0.9, 0xB7);
  const runtime::RuntimeConfig rcfg{.cache = test_util::tiny_cache(32, 4),
                                    .shards = 1};
  const std::vector<std::size_t> points = {5000, 12000, 21000};
  runtime::ReplayConfig serve_cfg;
  serve_cfg.threads = 1;
  serve_cfg.clear_points = points;

  runtime::Runtime reference(rcfg, cache::LruPolicy());
  const runtime::ReplayResult replayed =
      runtime::replay_trace(reference, t, serve_cfg);

  runtime::Runtime rt(rcfg, cache::LruPolicy());
  // Two serving threads; the one connection lives on one of them, so the
  // window-1 stream reaches the cache in order like any other window.
  net::Server server(rt, {.port = 0, .workers = 2});
  server.start();
  const net::MetricsReply s =
      serve_stream(server.port(), wire_stream(t, serve_cfg.transform), points,
                   64, /*pipeline=*/1);
  server.stop();
  expect_counts_match(s, replayed.run);
}

TEST(NetE2E, WindowEightOnTwoServingThreadsMatchesInProcessReplayExactly) {
  // Invariant 3 at a deep window: eight ACCESS batches in flight on one
  // connection of a 2-thread server still reach the cache in the exact
  // replay_trace order, FLUSH at the warm-up point included, so every
  // counter matches. A server that spread one connection's frames over
  // threads could apply two in-flight batches in either order.
  const trace::Trace t = test_util::zipf_trace(60000, 2048, 0.9, 0x8E);
  const runtime::RuntimeConfig rcfg{.cache = test_util::tiny_cache(64, 8),
                                    .shards = 1};
  runtime::ReplayConfig serve_cfg;
  serve_cfg.threads = 1;

  runtime::Runtime reference(rcfg, cache::LruPolicy());
  const runtime::ReplayResult replayed =
      runtime::replay_trace(reference, t, serve_cfg);

  const std::size_t warmup = static_cast<std::size_t>(
      serve_cfg.warmup_fraction * static_cast<double>(t.size()));
  runtime::Runtime served_rt(rcfg, cache::LruPolicy());
  net::Server server(served_rt, {.port = 0, .workers = 2});
  server.start();
  const net::MetricsReply served =
      serve_stream(server.port(), wire_stream(t, serve_cfg.transform),
                   {warmup}, 64, /*pipeline=*/8);
  server.stop();

  expect_counts_match(served, replayed.run);
}

TEST(NetE2E, V2OutOfOrderCompletionsMatchInProcessReplayExactly) {
  // The trace-equivalence bar with mixed request types in flight: each
  // ACCESS batch travels with a concurrent PING on a 2-thread server, so
  // two requests from this connection are in flight at once. The
  // protocol lets their replies arrive in either order (this server
  // answers in arrival order), and the driver takes them with
  // poll_any(), which absorbs either. The final counts must be exactly
  // equal.
  const trace::Trace t = test_util::zipf_trace(40000, 2048, 0.9, 0x7A);
  const runtime::RuntimeConfig rcfg{.cache = test_util::tiny_cache(64, 8),
                                    .shards = 1};
  runtime::ReplayConfig serve_cfg;
  serve_cfg.threads = 1;
  serve_cfg.warmup_fraction = 0.0;  // no clear point: pure count identity

  runtime::Runtime reference(rcfg, cache::LruPolicy());
  const runtime::ReplayResult replayed =
      runtime::replay_trace(reference, t, serve_cfg);

  runtime::Runtime served_rt(rcfg, cache::LruPolicy());
  net::Server server(served_rt, {.port = 0, .workers = 2});
  server.start();
  net::Client client = net::Client::connect("127.0.0.1", server.port());

  const auto stream = wire_stream(t, serve_cfg.transform);
  std::uint64_t completed = 0;
  std::uint64_t pongs = 0;
  for (std::size_t sent = 0; sent < stream.size();) {
    const std::size_t n = std::min<std::size_t>(64, stream.size() - sent);
    const std::uint64_t id = client.send_access({stream.data() + sent, n});
    const std::uint64_t ping_id = client.send_ping();
    const net::Completion first = client.poll_any();
    const net::Completion second = client.poll_any();
    const net::Completion& access =
        first.type == net::MsgType::kAccessReply ? first : second;
    const net::Completion& pong =
        first.type == net::MsgType::kPong ? first : second;
    ASSERT_EQ(access.type, net::MsgType::kAccessReply);
    ASSERT_EQ(access.id, id);
    ASSERT_EQ(pong.type, net::MsgType::kPong);
    ASSERT_EQ(pong.id, ping_id);
    completed += access.access.count;
    pongs += 1;
    sent += n;
  }
  EXPECT_EQ(completed, stream.size());
  EXPECT_EQ(pongs, (stream.size() + 63) / 64);
  EXPECT_EQ(client.outstanding(), 0u);

  const net::MetricsReply s = client.metrics();
  server.stop();
  expect_counts_match(s, replayed.run);
}

TEST(NetE2E, AdaptiveServingPublishesModelsOverTheWire) {
  // The background drift adapter keeps working when traffic arrives via
  // TCP: samples observed, models published, MODEL_INFO reports versions.
  const trace::Trace t = test_util::zipf_trace(40000, 2048, 0.9, 0xAA);
  core::IcgmmConfig cfg = test_util::small_system_config();
  cfg.engine.cache = test_util::tiny_cache(64, 8);
  core::IcgmmSystem system(cfg);
  system.train(t);

  runtime::RuntimeConfig rcfg{.cache = cfg.engine.cache, .shards = 2};
  rcfg.adapt = true;
  rcfg.sample_every = 4;
  rcfg.refresher.online.batch = 256;
  const auto rt = system.make_runtime(
      rcfg, cache::GmmStrategy::kEvictionOnly,
      -std::numeric_limits<double>::infinity());
  rt->start();
  net::Server server(*rt, {.port = 0, .workers = 2});
  server.start();

  net::Client client = net::Client::connect("127.0.0.1", server.port());
  const net::ModelInfoReply before = client.model_info();
  EXPECT_GT(before.components, 0u);

  const auto stream = wire_stream(t, cfg.engine.transform);
  for (std::size_t sent = 0; sent < stream.size(); sent += 500) {
    client.access({stream.data() + sent,
                   std::min<std::size_t>(500, stream.size() - sent)});
  }
  server.stop();
  rt->stop();  // drains the sample queue

  const runtime::RuntimeSnapshot snap = rt->snapshot();
  EXPECT_GT(snap.samples_observed, 0u);
  EXPECT_GE(snap.models_published, 1u);
  EXPECT_EQ(snap.model_version, snap.models_published);
}

}  // namespace
}  // namespace icgmm

// The observability layer, bottom to top: histogram edge cases pinned
// before the promotion out of net/ (empty quantiles, single sample,
// max-clamp after merge), ConcurrentHistogram exactness against the
// serial sibling, registry find-or-create + sharded-counter sums under
// concurrency (the TSan target — suites start with "Obs" for the CI -R
// filters), event-ring overflow accounting, the HTTP scrape endpoint,
// the METRICS verb, and the capstone: one live serving run where the
// METRICS verb and the HTTP /metrics body agree exactly.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cache/policies/classic.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/event_ring.hpp"
#include "obs/histogram.hpp"
#include "obs/http_exporter.hpp"
#include "obs/registry.hpp"
#include "test_util.hpp"

namespace icgmm {
namespace {

// --- LatencyHistogram edge cases (pinned before the promotion) ----------

TEST(ObsHistogram, EmptyHistogramReportsZeroEverywhere) {
  obs::LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum_ns(), 0u);
  EXPECT_EQ(h.max_ns(), 0u);
  EXPECT_EQ(h.mean_ns(), 0.0);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.quantile_ns(q), 0u) << "q=" << q;
  }
}

TEST(ObsHistogram, SingleSampleIsEveryQuantile) {
  obs::LatencyHistogram h;
  h.record(123456);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max_ns(), 123456u);
  EXPECT_EQ(h.mean_ns(), 123456.0);
  // With one sample every quantile lands in its bucket, and the bucket
  // upper bound is clamped to max — so the exact value comes back.
  for (const double q : {0.0, 0.5, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(h.quantile_ns(q), 123456u) << "q=" << q;
  }
}

TEST(ObsHistogram, SmallValuesMapExactly) {
  // Values below kSub (32) land in band 0 with sub-bucket == value: the
  // histogram is exact there, not just 3%-approximate.
  obs::LatencyHistogram h;
  for (std::uint64_t v = 0; v < obs::LatencyHistogram::kSub; ++v) {
    obs::LatencyHistogram one;
    one.record(v);
    EXPECT_EQ(one.quantile_ns(0.5), v) << "v=" << v;
  }
  (void)h;
}

TEST(ObsHistogram, QuantilesClampToOutOfRangeArguments) {
  obs::LatencyHistogram h;
  h.record(100);
  h.record(200);
  EXPECT_EQ(h.quantile_ns(-1.0), h.quantile_ns(0.0));
  EXPECT_EQ(h.quantile_ns(2.0), h.quantile_ns(1.0));
}

TEST(ObsHistogram, MaxStaysClampedAfterMerge) {
  // The top occupied bucket's upper bound overshoots the true maximum;
  // the clamp must use the merged max, not either source's.
  obs::LatencyHistogram a;
  obs::LatencyHistogram b;
  a.record(1000000);   // ~1 ms
  b.record(1000100);   // same bucket, slightly larger true max
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.max_ns(), 1000100u);
  EXPECT_EQ(a.sum_ns(), 2000100u);
  EXPECT_LE(a.quantile_ns(1.0), a.max_ns());
  // Merge into an empty histogram preserves everything.
  obs::LatencyHistogram c;
  c.merge(a);
  EXPECT_EQ(c.count(), a.count());
  EXPECT_EQ(c.max_ns(), a.max_ns());
  EXPECT_EQ(c.quantile_ns(0.5), a.quantile_ns(0.5));
}

TEST(ObsHistogram, OverflowClampsIntoTopBandNotOutOfBounds) {
  obs::LatencyHistogram h;
  h.record(~0ull);  // far beyond the ~2.1 s top band
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max_ns(), ~0ull);  // true max survives verbatim
  // Quantiles saturate at the top band's upper bound (2^31 - 1 ns with
  // kSubBits=5 / kExponents=27) rather than indexing out of bounds or
  // inventing precision the buckets no longer carry.
  EXPECT_EQ(h.quantile_ns(0.5), 2147483647u);
  EXPECT_LE(h.quantile_ns(1.0), h.max_ns());
}

TEST(ObsHistogram, WeightedRecordEqualsRepeatedRecord) {
  obs::LatencyHistogram weighted;
  obs::LatencyHistogram repeated;
  weighted.record(777, 64);
  for (int i = 0; i < 64; ++i) repeated.record(777);
  EXPECT_EQ(weighted.count(), repeated.count());
  EXPECT_EQ(weighted.sum_ns(), repeated.sum_ns());
  EXPECT_EQ(weighted.quantile_ns(0.99), repeated.quantile_ns(0.99));
}

TEST(ObsHistogram, QuantileApproximationStaysWithinRelativeErrorBound) {
  obs::LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 100000; v += 7) h.record(v);
  // Log-bucketing guarantees <= 2^-kSubBits relative error (~3%).
  const double p50 = static_cast<double>(h.quantile_ns(0.50));
  EXPECT_NEAR(p50, 50000.0, 50000.0 * 0.04);
}

// --- ConcurrentHistogram ------------------------------------------------

TEST(ObsConcurrentHistogram, SnapshotMatchesSerialHistogramExactly) {
  obs::LatencyHistogram serial;
  obs::ConcurrentHistogram concurrent;
  Rng rng(0x0B5u);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng() % 5000000;
    serial.record(v);
    concurrent.record(v);
  }
  const obs::LatencyHistogram snap = concurrent.snapshot();
  EXPECT_EQ(snap.count(), serial.count());
  EXPECT_EQ(snap.sum_ns(), serial.sum_ns());
  EXPECT_EQ(snap.max_ns(), serial.max_ns());
  for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(snap.quantile_ns(q), serial.quantile_ns(q)) << "q=" << q;
  }
}

TEST(ObsConcurrentHistogram, ConcurrentRecordsSumExactlyAtQuiescence) {
  obs::ConcurrentHistogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kPerThread; ++i) h.record(rng() % 100000);
    });
  }
  for (std::thread& t : threads) t.join();
  const obs::LatencyHistogram snap = h.snapshot();
  EXPECT_EQ(snap.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_LE(snap.quantile_ns(1.0), snap.max_ns());
  h.reset();
  EXPECT_EQ(h.count(), 0u);
}

// --- MetricsRegistry ----------------------------------------------------

TEST(ObsRegistry, FindOrCreateReturnsStableHandlesAndRejectsKindClash) {
  obs::MetricsRegistry reg;
  obs::Counter& c1 = reg.counter("icgmm_test_counter");
  obs::Counter& c2 = reg.counter("icgmm_test_counter");
  EXPECT_EQ(&c1, &c2);
  obs::Gauge& g = reg.gauge("icgmm_test_gauge");
  g.set(42);
  obs::ConcurrentHistogram& h = reg.histogram("icgmm_test_hist_ns");
  h.record(100);
  // A name is one kind forever — silent divergence is the bug this
  // registry exists to prevent.
  EXPECT_THROW(reg.gauge("icgmm_test_counter"), std::logic_error);
  EXPECT_THROW(reg.counter("icgmm_test_hist_ns"), std::logic_error);
  EXPECT_THROW(reg.histogram("icgmm_test_gauge"), std::logic_error);
}

TEST(ObsRegistry, ShardedCounterSumsExactlyUnderConcurrentAdders) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("icgmm_test_concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsRegistry, CollectIsNameSortedAndFlattensHistograms) {
  obs::MetricsRegistry reg;
  reg.counter("zzz_last").add(3);
  reg.gauge("aaa_first").set(7);
  reg.histogram("mmm_hist_ns").record(1000);
  const auto samples = reg.collect();
  ASSERT_GE(samples.size(), 8u);  // 2 scalars + 6 histogram samples
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LE(samples[i - 1].name, samples[i].name);
  }
  using Reg = obs::MetricsRegistry;
  EXPECT_EQ(Reg::value_of(samples, "aaa_first"), 7u);
  EXPECT_EQ(Reg::value_of(samples, "zzz_last"), 3u);
  EXPECT_EQ(Reg::value_of(samples, "mmm_hist_ns_count"), 1u);
  EXPECT_EQ(Reg::value_of(samples, "mmm_hist_ns_sum"), 1000u);
  EXPECT_EQ(Reg::value_of(samples, "mmm_hist_ns_max"), 1000u);
  EXPECT_GT(Reg::value_of(samples, "mmm_hist_ns_p50"), 0u);
  EXPECT_GT(Reg::value_of(samples, "mmm_hist_ns_p99"), 0u);
  EXPECT_GT(Reg::value_of(samples, "mmm_hist_ns_p999"), 0u);
  EXPECT_EQ(Reg::value_of(samples, "not_a_metric"), 0u);
}

TEST(ObsRegistry, ProvidersAppendAtScrapeAndUnregisterCleanly) {
  obs::MetricsRegistry reg;
  std::atomic<std::uint64_t> external{11};
  const std::uint64_t id = reg.add_provider(
      [&external](std::vector<obs::MetricsRegistry::Sample>& out) {
        out.push_back({"icgmm_test_external", external.load()});
      });
  EXPECT_EQ(obs::MetricsRegistry::value_of(reg.collect(),
                                           "icgmm_test_external"),
            11u);
  external.store(22);  // wrap-not-fork: the provider reads live state
  EXPECT_EQ(obs::MetricsRegistry::value_of(reg.collect(),
                                           "icgmm_test_external"),
            22u);
  reg.remove_provider(id);
  EXPECT_EQ(obs::MetricsRegistry::value_of(reg.collect(),
                                           "icgmm_test_external"),
            0u);
}

TEST(ObsRegistry, RenderPrometheusIsOneNameValueLinePerSample) {
  obs::MetricsRegistry reg;
  reg.counter("icgmm_test_a").add(5);
  reg.gauge("icgmm_test_b").set(9);
  const std::string text = reg.render_prometheus();
  EXPECT_NE(text.find("icgmm_test_a 5\n"), std::string::npos);
  EXPECT_NE(text.find("icgmm_test_b 9\n"), std::string::npos);
  // Every line parses as "name value".
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    std::uint64_t value = 0;
    EXPECT_TRUE(static_cast<bool>(fields >> name >> value)) << line;
  }
}

// --- EventRing ----------------------------------------------------------

TEST(ObsEventRing, EmitDumpRoundTripsInOrder) {
  obs::EventRing ring(16);
  ring.emit(obs::EventType::kConnOpen, 7);
  ring.emit(obs::EventType::kModelPublish, 3);
  ring.emit(obs::EventType::kConnClose, 7);
  EXPECT_EQ(ring.total(), 3u);
  EXPECT_EQ(ring.dropped(), 0u);
  const auto events = ring.dump();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, obs::EventType::kConnOpen);
  EXPECT_EQ(events[0].arg, 7u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[1].type, obs::EventType::kModelPublish);
  EXPECT_EQ(events[2].seq, 2u);
  EXPECT_LE(events[0].when_ns, events[2].when_ns);
  EXPECT_STREQ(obs::to_string(events[1].type), "model-publish");
}

TEST(ObsEventRing, OverflowAccountingIsExact) {
  obs::EventRing ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  for (std::uint64_t i = 0; i < 20; ++i) {
    ring.emit(obs::EventType::kShadowRingDrop, i);
  }
  EXPECT_EQ(ring.total(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);  // total - capacity once wrapped
  const auto events = ring.dump();
  ASSERT_EQ(events.size(), 8u);  // exactly the retained window
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 12 + i);  // oldest retained == dropped count
    EXPECT_EQ(events[i].arg, 12 + i);  // payload rode along intact
  }
}

TEST(ObsEventRing, CapacityRoundsUpToPowerOfTwoMinimumEight) {
  EXPECT_EQ(obs::EventRing(1).capacity(), 8u);
  EXPECT_EQ(obs::EventRing(9).capacity(), 16u);
  EXPECT_EQ(obs::EventRing(256).capacity(), 256u);
}

TEST(ObsEventRing, ConcurrentEmittersNeverTearADump) {
  // Writers hammer a tiny ring while a reader dumps continuously; every
  // event a dump returns must be self-consistent (the stamp protocol is
  // also what TSan checks here for the CI sanitizer leg).
  obs::EventRing ring(16);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&ring, &stop, t] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ring.emit(obs::EventType::kConnOpen, (static_cast<std::uint64_t>(t)
                                              << 32) | i++);
      }
    });
  }
  for (int round = 0; round < 200; ++round) {
    const auto events = ring.dump();
    EXPECT_LE(events.size(), ring.capacity());
    for (std::size_t i = 1; i < events.size(); ++i) {
      EXPECT_LT(events[i - 1].seq, events[i].seq);  // strictly increasing
    }
    for (const obs::Event& e : events) {
      EXPECT_EQ(e.type, obs::EventType::kConnOpen);  // never a torn type
    }
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();
  if (ring.total() >= ring.capacity()) {  // single-core runs may not wrap
    EXPECT_EQ(ring.dropped(), ring.total() - ring.capacity());
  } else {
    EXPECT_EQ(ring.dropped(), 0u);
  }
}

// --- HTTP scrape endpoint -----------------------------------------------

/// Blocking one-shot HTTP GET against loopback; returns the full raw
/// response (status line, headers, body).
std::string http_get(std::uint16_t port, const std::string& request_line) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string req = request_line + "\r\n\r\n";
  EXPECT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return resp;
}

std::string body_of(const std::string& response) {
  const std::size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? std::string() : response.substr(pos + 4);
}

/// Parses Prometheus text exposition into name -> value.
std::map<std::string, std::uint64_t> parse_metrics(const std::string& body) {
  std::map<std::string, std::uint64_t> out;
  std::istringstream in(body);
  std::string name;
  std::uint64_t value;
  while (in >> name >> value) out[name] = value;
  return out;
}

TEST(ObsHttp, ServesMetricsHealthzEventsAnd404) {
  obs::MetricsRegistry reg;
  reg.counter("icgmm_test_scraped").add(31337);
  obs::EventRing ring(16);
  ring.emit(obs::EventType::kClearStats, 5);
  obs::HttpExporter exporter(reg, &ring, {.port = 0});
  exporter.start();
  ASSERT_GT(exporter.port(), 0);

  const std::string metrics = http_get(exporter.port(), "GET /metrics HTTP/1.0");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_EQ(parse_metrics(body_of(metrics))["icgmm_test_scraped"], 31337u);

  const std::string health = http_get(exporter.port(), "GET /healthz HTTP/1.0");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_EQ(body_of(health), "ok\n");

  const std::string events = http_get(exporter.port(), "GET /events HTTP/1.0");
  EXPECT_NE(events.find("200 OK"), std::string::npos);
  EXPECT_NE(body_of(events).find("type=stats-clear arg=5"),
            std::string::npos);
  EXPECT_NE(body_of(events).find("total=1 dropped=0"), std::string::npos);

  const std::string missing = http_get(exporter.port(), "GET /nope HTTP/1.0");
  EXPECT_NE(missing.find("404 Not Found"), std::string::npos);

  const std::string bad = http_get(exporter.port(), "POST /metrics HTTP/1.0");
  EXPECT_NE(bad.find("400 Bad Request"), std::string::npos);

  EXPECT_EQ(exporter.requests(), 4u);  // the 400 never resolved a route
  exporter.stop();
}

TEST(ObsHttp, EventsRouteIs404WithoutARing) {
  obs::MetricsRegistry reg;
  obs::HttpExporter exporter(reg, nullptr, {.port = 0});
  exporter.start();
  const std::string events = http_get(exporter.port(), "GET /events HTTP/1.0");
  EXPECT_NE(events.find("404 Not Found"), std::string::npos);
  exporter.stop();
}

// --- METRICS verb + the two-surface identity ----------------------------

runtime::RuntimeConfig small_runtime_config(std::uint32_t shards = 2) {
  return {.cache = test_util::tiny_cache(64, 8), .shards = shards};
}

TEST(ObsMetricsVerb, RoundTripsOverTheWire) {
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 1});
  server.start();
  net::Client c = net::Client::connect("127.0.0.1", server.port());
  const net::MetricsReply reply = c.metrics();
  // Runtime and server counters alike, by name, and name-sorted.
  EXPECT_FALSE(reply.entries.empty());
  const auto has = [&reply](std::string_view name) {
    return std::any_of(reply.entries.begin(), reply.entries.end(),
                       [name](const net::MetricsEntry& e) {
                         return e.name == name;
                       });
  };
  EXPECT_TRUE(has("icgmm_cache_accesses"));
  EXPECT_TRUE(has("icgmm_server_requests_served"));
  EXPECT_TRUE(has("icgmm_server_read_pauses"));
  EXPECT_TRUE(has("icgmm_server_buffered_bytes_max"));
  EXPECT_TRUE(std::is_sorted(
      reply.entries.begin(), reply.entries.end(),
      [](const net::MetricsEntry& a, const net::MetricsEntry& b) {
        return a.name < b.name;
      }));
  server.stop();
}

TEST(ObsMetricsVerb, ServerOverABareRuntimeReportsItsAccesses) {
  // A runtime built with no observability wiring still owns its
  // registry, so a server over it reports the runtime's counters on
  // METRICS: the accesses it served, by name.
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 1});
  server.start();
  net::Client c = net::Client::connect("127.0.0.1", server.port());
  std::vector<net::WireAccess> batch;
  for (std::uint64_t i = 0; i < 300; ++i) {
    batch.push_back({.page = i % 97, .timestamp = i / 32});
  }
  EXPECT_EQ(c.access(batch).count, 300u);
  EXPECT_EQ(c.access(std::span(batch).first(41)).count, 41u);
  const net::MetricsReply m = c.metrics();
  EXPECT_EQ(m.value("icgmm_cache_accesses"), 341u);
  EXPECT_EQ(m.value("icgmm_server_requests_served"), 341u);
  c.ping();  // connection still healthy
  server.stop();
}

TEST(ObsMetricsVerb, MetricsReplySentAsRequestGetsErrorNotClose) {
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 1});
  server.start();

  // A reply type is well-framed but not a request: the server must answer
  // ERROR and keep the connection alive — not poison-close the stream.
  std::vector<std::uint8_t> wire;
  net::encode_metrics_reply(wire, 1, {});
  net::encode_ping(wire, 2);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  ::shutdown(fd, SHUT_WR);

  timeval tv{.tv_sec = 5, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::vector<std::uint8_t> replies;
  char buf[256];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    replies.insert(replies.end(), buf, buf + n);
  }
  ::close(fd);

  // First frame: the ERROR answering the bogus reply-as-request.
  net::Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(net::decode_frame(replies, frame, consumed),
            net::DecodeStatus::kOk);
  EXPECT_EQ(frame.header.type, net::MsgType::kError);
  // Second frame: the PONG — the connection survived the ERROR.
  const std::span<const std::uint8_t> rest(replies.data() + consumed,
                                           replies.size() - consumed);
  ASSERT_EQ(net::decode_frame(rest, frame, consumed), net::DecodeStatus::kOk);
  EXPECT_EQ(frame.header.type, net::MsgType::kPong);

  const net::ServerStats ss = server.stats();
  EXPECT_EQ(ss.protocol_errors, 0u);
  EXPECT_GE(ss.error_replies, 1u);
  server.stop();
}

TEST(ObsE2E, MetricsVerbAndHttpScrapeAgreeExactly) {
  // The acceptance test: drive live traffic, then read the same counters
  // through both surfaces — the METRICS verb and the HTTP /metrics body —
  // and require exact agreement plus the accesses == hits + misses
  // identity.
  obs::EventRing ring(64);
  runtime::RuntimeConfig rcfg = small_runtime_config(4);
  rcfg.events = &ring;
  runtime::Runtime rt(rcfg, cache::LruPolicy());
  net::Server server(rt, {.port = 0,
                          .workers = 2,
                          .events = &ring,
                          .trace_sample = 1});
  server.start();
  obs::HttpExporter exporter(rt.metrics(), &ring, {.port = 0});
  exporter.start();

  {
    net::Client c = net::Client::connect("127.0.0.1", server.port());
    trace::Zipf zipf(4096, 0.9);
    Rng rng(0xE2Eu);
    std::vector<net::WireAccess> batch;
    for (int b = 0; b < 50; ++b) {
      batch.clear();
      for (int i = 0; i < 64; ++i) {
        batch.push_back({.page = zipf.sample(rng),
                         .timestamp = static_cast<Timestamp>(b),
                         .is_write = rng.uniform() < 0.1});
      }
      c.access(batch);
    }

    // Surface 1: the METRICS verb, traffic quiesced.
    const net::MetricsReply verb = c.metrics();
    EXPECT_EQ(verb.value("icgmm_cache_accesses"), 50u * 64u);
    EXPECT_EQ(verb.value("icgmm_cache_accesses"),
              verb.value("icgmm_cache_hits") +
                  verb.value("icgmm_cache_read_misses") +
                  verb.value("icgmm_cache_write_misses"));

    // Surface 2: the HTTP scrape.
    const auto scraped =
        parse_metrics(body_of(http_get(exporter.port(),
                                       "GET /metrics HTTP/1.0")));

    for (const char* name :
         {"icgmm_cache_accesses", "icgmm_cache_hits",
          "icgmm_cache_read_misses", "icgmm_cache_write_misses"}) {
      SCOPED_TRACE(name);
      EXPECT_EQ(verb.value(name), scraped.at(name));
    }

    // Per-stage tracing saw the traffic: one apply per served batch.
    EXPECT_EQ(verb.value("icgmm_server_stage_apply_ns_count"), 50u);
    EXPECT_GT(verb.value("icgmm_server_stage_decode_ns_count"), 0u);
    EXPECT_GT(verb.value("icgmm_server_stage_flush_ns_count"), 0u);
    EXPECT_EQ(verb.value("icgmm_server_requests_served"), 50u * 64u);
    EXPECT_GT(verb.value("icgmm_server_writev_calls"), 0u);
  }

  // The flight recorder saw the connection lifecycle.
  server.stop();
  bool open_seen = false;
  bool close_seen = false;
  for (const obs::Event& e : ring.dump()) {
    open_seen |= e.type == obs::EventType::kConnOpen;
    close_seen |= e.type == obs::EventType::kConnClose;
  }
  EXPECT_TRUE(open_seen);
  EXPECT_TRUE(close_seen);
  exporter.stop();
}

TEST(ObsE2E, TraceSampleZeroDisablesStageHistograms) {
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 1, .trace_sample = 0});
  server.start();
  net::Client c = net::Client::connect("127.0.0.1", server.port());
  std::vector<net::WireAccess> batch{{.page = 1, .timestamp = 0}};
  c.access(batch);
  const auto samples = rt.metrics().collect();
  // Counters still exact; no stage histograms were even created.
  EXPECT_EQ(obs::MetricsRegistry::value_of(samples, "icgmm_cache_accesses"),
            1u);
  EXPECT_EQ(obs::MetricsRegistry::value_of(
                samples, "icgmm_server_stage_apply_ns_count"),
            0u);
  server.stop();
}

TEST(ObsE2E, StopClosesOpenConnectionsWithOneEventEach) {
  // Clients that never close: stop() closes their connections itself, and
  // each must be announced and counted like a peer-initiated close.
  obs::EventRing ring(64);
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 2, .events = &ring});
  server.start();
  net::Client a = net::Client::connect("127.0.0.1", server.port());
  net::Client b = net::Client::connect("127.0.0.1", server.port());
  a.ping();  // a reply proves the server accepted the connection
  b.ping();
  server.stop();  // a and b are still open

  std::size_t opens = 0;
  std::size_t closes = 0;
  for (const obs::Event& e : ring.dump()) {
    opens += e.type == obs::EventType::kConnOpen ? 1 : 0;
    closes += e.type == obs::EventType::kConnClose ? 1 : 0;
  }
  const net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 2u);
  EXPECT_EQ(stats.connections_closed, stats.connections_accepted);
  EXPECT_EQ(opens, 2u);
  EXPECT_EQ(closes, 2u);
}

}  // namespace
}  // namespace icgmm

// Network-serving throughput: aggregate requests/sec and latency
// percentiles through the full RPC stack — loadgen-style clients ->
// loopback TCP -> epoll server -> worker pool -> sharded runtime — as a
// function of client connections x wire batch size, for LRU and the GMM
// policy. The in-process analogue (bench/throughput_runtime) measures the
// runtime without the network; the delta between the two is the serving
// tax (syscalls, framing, scheduling).
//
// Closed-loop: each connection keeps 8 batches in flight (the
// id-correlated window feeds the server's writev coalescing). Client and
// server share the host's cores, so absolute numbers are a floor; the
// JSON records hardware_concurrency (shared schema) so captures are
// interpretable.
//
// Usage: throughput_net [-n REQUESTS] [--quick] [--json FILE]
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "cache/policies/classic.hpp"
#include "common/run_env.hpp"
#include "common/table.hpp"
#include "core/policy_engine.hpp"
#include "core/threshold.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/histogram.hpp"
#include "trace/timestamp_transform.hpp"
#include "trace/zipf.hpp"

namespace {

using namespace icgmm;
using Clock = std::chrono::steady_clock;

/// Zipf request stream over 4x the cache's blocks, 10% writes,
/// Algorithm-1 timestamps — the serving regime of throughput_runtime.
std::vector<net::WireAccess> make_stream(std::size_t n,
                                         const cache::CacheConfig& cache) {
  trace::Zipf zipf(cache.blocks() * 4, 0.99);
  Rng rng(0xbe7c4);
  trace::TimestampTransform transform;
  std::vector<net::WireAccess> stream;
  stream.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    stream.push_back({.page = zipf.sample(rng),
                      .timestamp = transform.next(),
                      .is_write = rng.chance(0.10)});
  }
  return stream;
}

struct Cell {
  std::string policy;
  std::uint32_t connections = 0;
  std::uint32_t batch = 0;
  double mreq_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double hit_rate = 0.0;
};

constexpr std::uint32_t kPipeline = 8;
constexpr std::uint32_t kWorkers = 2;
constexpr std::uint32_t kShards = 4;

void drive_connection(std::uint16_t port,
                      std::span<const net::WireAccess> chunk,
                      std::uint32_t batch, obs::LatencyHistogram& latency) {
  net::Client client = net::Client::connect("127.0.0.1", port);
  net::replay_stream(
      client, chunk, {.batch = batch, .pipeline = kPipeline},
      [&latency](const net::AccessReply&, Clock::time_point ref,
                 std::uint32_t count) {
        latency.record(static_cast<std::uint64_t>(
                           std::chrono::duration_cast<std::chrono::nanoseconds>(
                               Clock::now() - ref)
                               .count()),
                       count);
      });
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opt = bench::Options::parse(argc, argv);
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  cache::CacheConfig cache_cfg;  // paper geometry: 64 MB / 4 KB / 8-way
  const std::vector<net::WireAccess> stream =
      make_stream(opt.requests, cache_cfg);

  core::PolicyEngineConfig pe_cfg;
  pe_cfg.em.components = 32;
  pe_cfg.train_subsample = 8000;
  core::PolicyEngine engine(pe_cfg);
  {
    trace::Trace t("train");
    t.reserve(stream.size());
    for (const net::WireAccess& a : stream) {
      t.push_back({.addr = addr_of(a.page),
                   .time = a.timestamp,
                   .type = a.is_write ? AccessType::kWrite
                                      : AccessType::kRead});
    }
    engine.train(t);
  }
  const double threshold =
      core::threshold_at_percentile(engine.training_scores(), 0.05);

  const std::uint32_t conn_sweep[] = {1, 2, 4};
  const std::uint32_t batch_sweep[] = {16, 64};
  std::vector<Cell> cells;

  for (const char* policy : {"LRU", "GMM-caching-eviction"}) {
    for (const std::uint32_t conns : conn_sweep) {
      for (const std::uint32_t batch : batch_sweep) {
        runtime::RuntimeConfig rcfg;
        rcfg.cache = cache_cfg;
        rcfg.shards = kShards;
        std::unique_ptr<runtime::Runtime> rt;
        if (std::strcmp(policy, "LRU") == 0) {
          rt = std::make_unique<runtime::Runtime>(rcfg, cache::LruPolicy());
        } else {
          rt = std::make_unique<runtime::Runtime>(
              rcfg, engine.model(),
              cache::GmmPolicyConfig{
                  .strategy = cache::GmmStrategy::kCachingEviction,
                  .threshold = threshold});
        }
        net::Server server(*rt, {.port = 0, .workers = kWorkers});
        server.start();

        std::vector<obs::LatencyHistogram> lat(conns);
        std::vector<std::thread> threads;
        const auto t0 = Clock::now();
        for (std::uint32_t c = 0; c < conns; ++c) {
          threads.emplace_back(drive_connection, server.port(),
                               net::stream_chunk(stream, c, conns), batch,
                               std::ref(lat[c]));
        }
        for (std::thread& th : threads) th.join();
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - t0).count();
        server.stop();

        obs::LatencyHistogram merged;
        for (const obs::LatencyHistogram& l : lat) merged.merge(l);
        const runtime::RuntimeSnapshot snap = rt->snapshot();
        cells.push_back(
            {policy, conns, batch,
             elapsed > 0.0
                 ? static_cast<double>(stream.size()) / elapsed / 1e6
                 : 0.0,
             static_cast<double>(merged.quantile_ns(0.50)) / 1000.0,
             static_cast<double>(merged.quantile_ns(0.99)) / 1000.0,
             snap.merged.hit_rate()});
      }
    }
  }

  std::cout << "network serving throughput (loopback), " << stream.size()
            << " requests/cell, shards " << kShards << ", workers "
            << kWorkers << ", pipeline " << kPipeline
            << ", hardware threads: " << std::thread::hardware_concurrency()
            << "\n\n";
  Table table({"policy", "conns", "batch", "M req/s", "p50 us", "p99 us",
               "hit rate"});
  for (const Cell& c : cells) {
    table.add_row({c.policy, std::to_string(c.connections),
                   std::to_string(c.batch),
                   Table::fmt(c.mreq_per_s, 2), Table::fmt(c.p50_us, 1),
                   Table::fmt(c.p99_us, 1), Table::fmt_percent(c.hit_rate)});
  }
  std::cout << table.render();

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  " << run_env_json_fields() << ",\n"
        << "  \"bench\": \"net_throughput\",\n"
        << "  \"requests\": " << stream.size() << ",\n"
        << "  \"shards\": " << kShards << ",\n  \"workers\": " << kWorkers
        << ",\n  \"pipeline\": " << kPipeline << ",\n  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      out << "    {\"policy\": \"" << c.policy << "\", \"connections\": "
          << c.connections << ", \"batch\": " << c.batch
          << ", \"mreq_per_s\": " << c.mreq_per_s << ", \"p50_us\": "
          << c.p50_us << ", \"p99_us\": " << c.p99_us << ", \"hit_rate\": "
          << c.hit_rate << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}

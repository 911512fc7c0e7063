// Network-serving throughput: aggregate requests/sec, latency percentiles
// and CPU per access by thread role through the full RPC stack
// (loadgen-style clients -> loopback TCP -> 2 epoll reactor threads ->
// sharded runtime), as a function of client connections x wire batch
// size, for LRU and the GMM policy. Two more cells trace every served
// frame's stages (trace sample 1) and every 16th frame's (trace sample
// 16) beside the untraced LRU, 1-connection, batch-64 cell: the tax of
// observability. The in-process analogue (bench/throughput_runtime)
// measures the runtime without the network; the delta between the two is
// the serving tax (syscalls, framing, scheduling).
//
// Closed-loop: each connection keeps 8 batches in flight (the
// id-correlated window feeds the server's writev coalescing). Every cell
// is measured alike: kReps reps interleaved with every other cell's, and
// each rep a fresh runtime and server serving whole passes of one looped
// request stream for about kRepSeconds. A cell reports the median, min
// and max over its reps. The client threads time their own CPU; the rest
// of the process's CPU over the rep is the server's. Client and server
// share the host's cores, so absolute numbers are a floor; the JSON
// records hardware_concurrency so captures are interpretable.
//
// Usage: throughput_net [-n REQUESTS] [--quick] [--json FILE]
#include <chrono>
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

namespace {

using namespace icgmm;
using Clock = std::chrono::steady_clock;

struct Cell {
  bool gmm = false;
  std::uint32_t connections = 0;
  std::uint32_t batch = 0;
  std::uint32_t trace_sample = 0;  ///< ServerConfig::trace_sample; 0 = off
  std::uint32_t passes = 0;        ///< set by the cell's first rep
  bench::RepSeries reps;

  const char* policy() const { return gmm ? "GMM-caching-eviction" : "LRU"; }
};

constexpr std::uint32_t kPipeline = 8;
constexpr std::uint32_t kWorkers = 2;
constexpr std::uint32_t kShards = 4;

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt = bench::Options::parse(argc, argv);
  const std::size_t requests = opt.quick ? 100000 : opt.requests;
  const double rep_seconds = opt.quick ? 0.0 : bench::kRepSeconds;

  cache::CacheConfig cache_cfg;  // paper geometry: 64 MB / 4 KB / 8-way
  const trace::Trace workload = bench::serving_workload(requests, cache_cfg);
  std::vector<net::WireAccess> stream;
  stream.reserve(workload.size());
  trace::TimestampTransform transform;
  for (const trace::Record& r : workload) {
    stream.push_back({.page = r.page(),
                      .timestamp = transform.next(),
                      .is_write = r.is_write()});
  }

  core::PolicyEngineConfig pe_cfg;
  pe_cfg.em.components = 32;
  pe_cfg.train_subsample = 8000;
  core::PolicyEngine engine(pe_cfg);
  engine.train(workload);
  const cache::GmmPolicyConfig gmm_cfg{
      .strategy = cache::GmmStrategy::kCachingEviction,
      .threshold =
          core::threshold_at_percentile(engine.training_scores(), 0.05)};

  std::vector<Cell> cells;
  for (const bool gmm : {false, true}) {
    for (const std::uint32_t conns : {1u, 2u, 4u}) {
      for (const std::uint32_t batch : {16u, 64u}) {
        cells.push_back({.gmm = gmm, .connections = conns, .batch = batch});
      }
    }
  }
  for (const std::uint32_t sample : {1u, 16u}) {
    cells.push_back({.connections = 1, .batch = 64, .trace_sample = sample});
  }

  bench::run_interleaved(cells.size(), [&](std::size_t index) {
    Cell& cell = cells[index];
    runtime::RuntimeConfig rcfg;
    rcfg.cache = cache_cfg;
    rcfg.shards = kShards;
    const std::unique_ptr<runtime::Runtime> rt =
        cell.gmm ? std::make_unique<runtime::Runtime>(rcfg, engine.model(),
                                                      gmm_cfg)
                 : std::make_unique<runtime::Runtime>(rcfg, cache::LruPolicy());
    net::Server server(*rt, {.port = 0,
                             .workers = kWorkers,
                             .trace_sample = cell.trace_sample});
    server.start();
    const std::uint32_t conns = cell.connections;
    std::vector<net::Client> clients;
    for (std::uint32_t c = 0; c < conns; ++c) {
      clients.push_back(net::Client::connect("127.0.0.1", server.port()));
    }

    obs::LatencyHistogram latency;
    std::vector<obs::LatencyHistogram> lat(conns);
    std::vector<std::uint64_t> client_ns(conns, 0);
    double seconds = 0.0;
    const std::uint64_t process0 = bench::cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
    bench::serve_passes(cell.passes, rep_seconds, [&] {
      std::vector<std::thread> threads;
      const auto t0 = Clock::now();
      for (std::uint32_t c = 0; c < conns; ++c) {
        threads.emplace_back([&, c] {
          const std::uint64_t cpu0 = bench::cpu_ns(CLOCK_THREAD_CPUTIME_ID);
          net::replay_stream(
              clients[c], net::stream_chunk(stream, c, conns),
              {.batch = cell.batch, .pipeline = kPipeline},
              [&l = lat[c]](const net::AccessReply&, Clock::time_point ref,
                            std::uint32_t count) {
                l.record(static_cast<std::uint64_t>(
                             std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 Clock::now() - ref)
                                 .count()),
                         count);
              });
          client_ns[c] += bench::cpu_ns(CLOCK_THREAD_CPUTIME_ID) - cpu0;
        });
      }
      for (std::thread& th : threads) th.join();
      const double s = std::chrono::duration<double>(Clock::now() - t0).count();
      seconds += s;
      return s;
    });
    const std::uint64_t process_ns =
        bench::cpu_ns(CLOCK_PROCESS_CPUTIME_ID) - process0;
    clients.clear();
    server.stop();

    std::uint64_t clients_ns = 0;
    for (std::uint32_t c = 0; c < conns; ++c) {
      clients_ns += client_ns[c];
      latency.merge(lat[c]);
    }
    const auto served =
        static_cast<double>(stream.size()) * static_cast<double>(cell.passes);
    const auto per_access = [served](std::uint64_t ns) {
      return static_cast<double>(ns) / served;
    };
    bench::RepSeries& r = cell.reps;
    r.add("mreq_per_s", seconds > 0.0 ? served / seconds / 1e6 : 0.0);
    r.add("server_cpu_ns_per_access",
          per_access(process_ns > clients_ns ? process_ns - clients_ns : 0));
    r.add("client_cpu_ns_per_access", per_access(clients_ns));
    r.add("p50_us", static_cast<double>(latency.quantile_ns(0.50)) / 1000.0);
    r.add("p99_us", static_cast<double>(latency.quantile_ns(0.99)) / 1000.0);
    r.add("hit_rate", rt->snapshot().merged.hit_rate());
  });

  std::cout << "network serving throughput (loopback), " << stream.size()
            << " requests a pass, shards " << kShards << ", workers "
            << kWorkers << ", pipeline " << kPipeline << ", median [min-max] of "
            << bench::kReps << " interleaved reps, hardware threads: "
            << std::thread::hardware_concurrency() << "\n\n";
  Table table({"policy", "conns", "batch", "trace", "M req/s", "server ns/acc",
               "client ns/acc", "p50 us", "p99 us", "hit rate"});
  for (const Cell& c : cells) {
    const bench::RepSeries& r = c.reps;
    table.add_row({c.policy(), std::to_string(c.connections),
                   std::to_string(c.batch),
                   c.trace_sample == 0 ? "off" : std::to_string(c.trace_sample),
                   r.fmt("mreq_per_s", 2), r.fmt("server_cpu_ns_per_access", 1),
                   r.fmt("client_cpu_ns_per_access", 1),
                   Table::fmt(r.spread("p50_us").median, 1),
                   Table::fmt(r.spread("p99_us").median, 1),
                   Table::fmt_percent(r.spread("hit_rate").median)});
  }
  std::cout << table.render();

  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path);
    out << "{\n  " << run_env_json_fields() << ",\n"
        << "  \"bench\": \"net_throughput\",\n"
        << "  \"requests\": " << stream.size() << ",\n"
        << "  \"shards\": " << kShards << ",\n  \"workers\": " << kWorkers
        << ",\n  \"pipeline\": " << kPipeline << ",\n  \"reps\": "
        << bench::kReps << ",\n  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      out << "    {\"policy\": \"" << c.policy() << "\", \"connections\": "
          << c.connections << ", \"batch\": " << c.batch
          << ", \"trace_sample\": " << c.trace_sample << ", \"passes\": "
          << c.passes << ", " << c.reps.json() << "}"
          << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "\nwrote " << opt.json_path << "\n";
  }
  return 0;
}

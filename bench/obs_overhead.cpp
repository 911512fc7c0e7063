// Observability tax: loopback serving throughput with per-stage tracing
// off, fully on (trace sample 1), and sampled down (trace sample 16) —
// batch-64 LRU, the serving regime the acceptance bound is written
// against. Every runtime carries its metrics registry, so the counters
// are on in every variant; the one steady_clock pair per traced stage is
// what the variants switch, and it is designed to be invisible next to
// the syscall cost of a served frame. This bench is the proof, and CI
// smoke-runs it so a regression that makes observability expensive fails
// loudly rather than silently taxing every deployment.
//
// On the 1-core bimodal container a single rep is noise; each variant
// reports the best of kReps interleaved reps (round-robin, so a
// background hiccup hits all variants evenly rather than one).
//
// Usage: obs_overhead [-n REQUESTS] [--quick] [--json FILE]
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "cache/policies/classic.hpp"
#include "common/run_env.hpp"
#include "common/table.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "trace/timestamp_transform.hpp"
#include "trace/zipf.hpp"

namespace {

using namespace icgmm;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kWorkers = 2;
constexpr std::uint32_t kShards = 4;
constexpr std::uint32_t kBatch = 64;
constexpr std::uint32_t kPipeline = 8;
constexpr int kReps = 5;

struct Variant {
  std::string name;
  std::uint32_t trace_sample = 0;
};

struct Cell {
  std::string variant;
  double best_mreq_per_s = 0.0;
  double overhead_pct = 0.0;  // vs the trace-off variant, best-of-reps
  std::vector<double> reps;
};

/// Same stream recipe as bench/throughput_net: Zipf over 4x the cache's
/// blocks, 10% writes, Algorithm-1 timestamps.
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

double run_once(const Variant& v, std::span<const net::WireAccess> stream,
                const cache::CacheConfig& cache_cfg) {
  runtime::RuntimeConfig rcfg;
  rcfg.cache = cache_cfg;
  rcfg.shards = kShards;
  runtime::Runtime rt(rcfg, cache::LruPolicy());
  net::Server server(
      rt, {.port = 0, .workers = kWorkers, .trace_sample = v.trace_sample});
  server.start();

  net::Client client = net::Client::connect("127.0.0.1", server.port());
  const auto t0 = Clock::now();
  net::replay_stream(client, stream, {.batch = kBatch, .pipeline = kPipeline});
  const double elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  client.close();
  server.stop();
  return elapsed > 0.0 ? static_cast<double>(stream.size()) / elapsed / 1e6
                       : 0.0;
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

  const std::vector<Variant> variants = {
      {"trace-off", 0},
      {"trace-1", 1},
      {"trace-16", 16},
  };
  std::vector<Cell> cells;
  for (const Variant& v : variants) cells.push_back({.variant = v.name});

  // Interleave reps so slow-machine phases tax every variant equally.
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t i = 0; i < variants.size(); ++i) {
      cells[i].reps.push_back(run_once(variants[i], stream, cache_cfg));
    }
  }
  for (Cell& c : cells) {
    c.best_mreq_per_s = *std::max_element(c.reps.begin(), c.reps.end());
  }
  const double baseline = cells[0].best_mreq_per_s;
  for (Cell& c : cells) {
    c.overhead_pct = baseline > 0.0
                         ? (baseline - c.best_mreq_per_s) / baseline * 100.0
                         : 0.0;
  }

  std::cout << "observability overhead (loopback, LRU, batch " << kBatch
            << ", pipeline " << kPipeline << "), " << stream.size()
            << " requests/rep, best of " << kReps
            << " reps, hardware threads: "
            << std::thread::hardware_concurrency() << "\n\n";
  Table table({"variant", "M req/s (best)", "overhead"});
  for (const Cell& c : cells) {
    table.add_row({c.variant, Table::fmt(c.best_mreq_per_s, 2),
                   Table::fmt(c.overhead_pct, 1) + "%"});
  }
  std::cout << table.render();
  std::cout << "\nacceptance: trace-1 within 3% of trace-off\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  " << run_env_json_fields() << ",\n"
        << "  \"bench\": \"obs_overhead\",\n"
        << "  \"requests\": " << stream.size() << ",\n"
        << "  \"shards\": " << kShards << ",\n  \"workers\": " << kWorkers
        << ",\n  \"batch\": " << kBatch << ",\n  \"pipeline\": " << kPipeline
        << ",\n  \"reps\": " << kReps << ",\n  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      out << "    {\"variant\": \"" << c.variant << "\", \"mreq_per_s\": "
          << c.best_mreq_per_s << ", \"overhead_pct\": " << c.overhead_pct
          << ", \"reps\": [";
      for (std::size_t r = 0; r < c.reps.size(); ++r) {
        out << c.reps[r] << (r + 1 < c.reps.size() ? ", " : "");
      }
      out << "]}" << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}

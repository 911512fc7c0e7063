// Serving-runtime throughput: aggregate requests/sec as a function of
// serving threads x cache shards, on a Zipf workload, for a classic
// policy (LRU — lock-bound) and the GMM policy (miss-path inference —
// compute-plus-lock-bound).
//
// On multicore hardware this is the scaling artifact for the runtime: at
// >= 4 shards, throughput should rise monotonically from 1 to 4 threads.
// On a single-core host (CI containers) the sweep still runs and reports
// honest numbers, but parallel speedup is not observable — the JSON
// records hardware_concurrency so baselines are interpretable.
//
// Usage: throughput_runtime [-n REQUESTS] [--quick] [--json FILE]
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
#include "runtime/replay.hpp"
#include "trace/zipf.hpp"

namespace {

using namespace icgmm;

/// Zipf skew of the serving workload (recorded in every JSON cell).
constexpr double kZipfS = 0.99;

/// Zipf-popularity trace over 4x the cache's block count (the usual
/// "working set larger than cache" serving regime), 10% writes.
trace::Trace make_workload(std::size_t n, const cache::CacheConfig& cache) {
  const std::uint64_t pages = cache.blocks() * 4;
  trace::Zipf zipf(pages, kZipfS);
  Rng rng(0xbe7c4);
  trace::Trace t("zipf-serving");
  t.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    t.push_back({.addr = addr_of(zipf.sample(rng)),
                 .time = i,
                 .type = rng.chance(0.10) ? AccessType::kWrite
                                          : AccessType::kRead});
  }
  return t;
}

struct Cell {
  std::string policy;
  std::uint32_t shards = 0;
  std::uint32_t threads = 0;
  double mreq_per_s = 0.0;
  double miss_rate = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  bench::Options opt;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      opt.quick = true;
      opt.requests = 300000;
    } else if (std::strcmp(argv[i], "-n") == 0 && i + 1 < argc) {
      opt.requests = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  cache::CacheConfig cache_cfg;  // paper geometry: 64 MB / 4 KB / 8-way
  const trace::Trace workload = make_workload(opt.requests, cache_cfg);

  // A small GMM is enough for a throughput (not accuracy) measurement.
  core::PolicyEngineConfig pe_cfg;
  pe_cfg.em.components = 32;
  pe_cfg.train_subsample = 8000;
  core::PolicyEngine engine(pe_cfg);
  engine.train(workload);
  const double threshold =
      core::threshold_at_percentile(engine.training_scores(), 0.05);

  const std::uint32_t shard_sweep[] = {1, 4, 8};
  const std::uint32_t thread_sweep[] = {1, 2, 4};
  std::vector<Cell> cells;

  // The delta between the two policies' rows at equal geometry is the
  // serving cost of inline inference (admission score plus the
  // eviction-time set rescore, under the shard lock).
  struct Variant {
    const char* name;
    bool gmm;
  };
  constexpr Variant kVariants[] = {{"LRU", false},
                                   {"GMM-caching-eviction", true}};

  runtime::ReplayConfig serve;
  serve.warmup_fraction = 0.0;  // throughput: measure the whole run
  for (const Variant& v : kVariants) {
    for (const std::uint32_t shards : shard_sweep) {
      for (const std::uint32_t threads : thread_sweep) {
        runtime::RuntimeConfig rcfg;
        rcfg.cache = cache_cfg;
        rcfg.shards = shards;
        std::unique_ptr<runtime::Runtime> rt;
        if (!v.gmm) {
          rt = std::make_unique<runtime::Runtime>(rcfg, cache::LruPolicy());
          serve.policy_runs_on_miss = false;
        } else {
          rt = std::make_unique<runtime::Runtime>(
              rcfg, engine.model(),
              cache::GmmPolicyConfig{
                  .strategy = cache::GmmStrategy::kCachingEviction,
                  .threshold = threshold});
          serve.policy_runs_on_miss = true;
        }
        serve.threads = threads;
        const runtime::ReplayResult r =
            runtime::replay_trace(*rt, workload, serve);
        cells.push_back({.policy = v.name,
                         .shards = shards,
                         .threads = threads,
                         .mreq_per_s = r.requests_per_second / 1e6,
                         .miss_rate = r.run.stats.miss_rate()});
      }
    }
  }

  std::cout << "serving throughput, " << workload.size() << " requests, "
            << workload.unique_pages() << " pages, hardware threads: "
            << std::thread::hardware_concurrency() << "\n\n";
  Table table({"policy", "shards", "threads", "M req/s", "miss rate"});
  for (const Cell& c : cells) {
    table.add_row({c.policy, std::to_string(c.shards),
                   std::to_string(c.threads), Table::fmt(c.mreq_per_s, 2),
                   Table::fmt_percent(c.miss_rate)});
  }
  std::cout << table.render();

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  " << run_env_json_fields() << ",\n"
        << "  \"bench\": \"runtime_throughput\",\n"
        << "  \"requests\": " << workload.size() << ",\n"
        << "  \"unique_pages\": " << workload.unique_pages()
        << ",\n  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      out << "    {\"policy\": \"" << c.policy << "\", \"shards\": "
          << c.shards << ", \"threads\": " << c.threads
          << ", \"zipf_s\": " << kZipfS << ", \"mreq_per_s\": " << c.mreq_per_s << ", \"miss_rate\": "
          << c.miss_rate << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}

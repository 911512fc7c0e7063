// Shadow-evaluation overhead: serving throughput with the shadow policy
// evaluator off vs on, on the same LRU serving runtime and Zipf
// workload. Three variants:
//
//   off        — no shadow machinery at all (the baseline invariant 9
//                guarantees this is bit-identical serving)
//   lru        — a classic LRU shadow (pure tag-directory replay; the
//                cheapest possible candidate policy)
//   gmm        — a GMM shadow (GmmPolicy over the float ScorerKernel;
//                the expensive candidate — every shadow miss runs
//                mixture inference and every shadow eviction rescores
//                the set)
//
// What the serving path pays is one bounded-ring try-push per access;
// everything else runs on the shadow thread. On a multicore host the
// off→on delta is therefore the push cost. On a 1-core container the
// shadow thread steals serving cycles and the honest drop accounting
// matters: a starved shadow drops (counted, reported here as drop_rate)
// rather than stalling serving, so throughput degrades gracefully and
// `shadow_accesses + shadow_dropped == accesses` still holds after the
// replay's drain barrier.
//
// Usage: shadow_overhead [-n REQUESTS] [--quick] [--json FILE]
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
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

/// Same serving regime as bench/throughput_runtime: Zipf popularity over
/// 4x the cache's block count, 10% writes.
trace::Trace make_workload(std::size_t n, const cache::CacheConfig& cache) {
  const std::uint64_t pages = cache.blocks() * 4;
  trace::Zipf zipf(pages, 0.99);
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
  std::string shadow;   // "off" | "lru" | "gmm"
  double mreq_per_s = 0.0;
  double overhead_pct = 0.0;  // vs the off row
  std::uint64_t shadow_accesses = 0;
  std::uint64_t shadow_divergence = 0;
  double drop_rate = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt = bench::Options::parse(argc, argv);
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  const int reps = opt.quick ? 2 : 3;

  cache::CacheConfig cache_cfg;  // paper geometry: 64 MB / 4 KB / 8-way
  const trace::Trace workload = make_workload(opt.requests, cache_cfg);

  // The gmm shadow needs a trained model; a small mixture is enough for
  // an overhead (not accuracy) measurement.
  core::PolicyEngineConfig pe_cfg;
  pe_cfg.em.components = 8;
  pe_cfg.train_subsample = 8000;
  core::PolicyEngine engine(pe_cfg);
  engine.train(workload);
  const double threshold =
      core::threshold_at_percentile(engine.training_scores(), 0.05);

  runtime::ReplayConfig serve;
  serve.warmup_fraction = 0.0;
  serve.policy_runs_on_miss = false;  // LRU serving
  serve.threads = 1;

  const char* kVariants[] = {"off", "lru", "gmm"};
  std::vector<Cell> cells;
  for (const char* variant : kVariants) {
    Cell best;
    best.shadow = variant;
    best.mreq_per_s = 0.0;
    // Fresh runtime per rep (shadow counters are cumulative per runtime);
    // best-of across reps, the 1-core container is bimodal.
    for (int rep = 0; rep < reps; ++rep) {
      runtime::RuntimeConfig rcfg;
      rcfg.cache = cache_cfg;
      rcfg.shards = 4;
      if (std::strcmp(variant, "lru") == 0) {
        rcfg.shadow.enabled = true;
        rcfg.shadow.policy_name = "lru";
        rcfg.shadow.policy_factory = [](std::uint32_t) {
          return std::make_unique<cache::LruPolicy>();
        };
      } else if (std::strcmp(variant, "gmm") == 0) {
        rcfg.shadow.enabled = true;
        rcfg.shadow.policy_name = "gmm";
        rcfg.shadow.policy_factory = [&engine, threshold](std::uint32_t) {
          return engine.make_policy(cache::GmmPolicyConfig{
              .strategy = cache::GmmStrategy::kCachingEviction,
              .threshold = threshold});
        };
      }
      runtime::Runtime rt(rcfg, cache::LruPolicy());
      const runtime::ReplayResult r = runtime::replay_trace(rt, workload, serve);
      rt.drain_deferred();
      if (r.requests_per_second / 1e6 > best.mreq_per_s) {
        best.mreq_per_s = r.requests_per_second / 1e6;
        const runtime::RuntimeSnapshot snap = rt.snapshot();
        best.shadow_accesses = snap.shadow_accesses;
        best.shadow_divergence = snap.shadow_divergence;
        const std::uint64_t offered =
            snap.shadow_accesses + snap.shadow_dropped;
        best.drop_rate = offered == 0 ? 0.0
                                      : static_cast<double>(snap.shadow_dropped) /
                                            static_cast<double>(offered);
      }
    }
    cells.push_back(best);
  }
  for (Cell& c : cells) {
    c.overhead_pct =
        100.0 * (1.0 - c.mreq_per_s / cells.front().mreq_per_s);
  }

  Table table({"shadow", "M req/s", "overhead", "shadow accesses",
               "divergence", "drop rate"});
  for (const Cell& c : cells) {
    table.add_row({c.shadow, Table::fmt(c.mreq_per_s),
                   Table::fmt(c.overhead_pct) + "%",
                   std::to_string(c.shadow_accesses),
                   std::to_string(c.shadow_divergence),
                   Table::fmt(100.0 * c.drop_rate) + "%"});
  }
  std::cout << "shadow-evaluation overhead, " << workload.size()
            << " requests, LRU serving, 4 shards, 1 thread, best of " << reps
            << " reps, hardware threads: "
            << std::thread::hardware_concurrency() << "\n\n"
            << table.render();

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  " << run_env_json_fields() << ",\n"
        << "  \"bench\": \"shadow_overhead\",\n"
        << "  \"requests\": " << workload.size() << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"shards\": 4,\n  \"threads\": 1,\n"
        << "  \"rows\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      out << "    {\"shadow\": \"" << c.shadow << "\", \"mreq_per_s\": "
          << c.mreq_per_s << ", \"overhead_pct\": " << c.overhead_pct
          << ", \"shadow_accesses\": " << c.shadow_accesses
          << ", \"shadow_divergence\": " << c.shadow_divergence
          << ", \"shadow_drop_rate\": " << c.drop_rate << "}"
          << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}

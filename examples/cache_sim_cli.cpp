// Command-line cache simulator: the tool a downstream user actually runs.
// Feeds any workload (built-in benchmark or a CSV trace file) through any
// policy at any cache geometry and prints the full report.
//
// Usage:
//   cache_sim_cli [--trace file.csv | --benchmark NAME] [-n REQUESTS]
//                 [--policy lru|fifo|random|lfu|clock|arc|srrip|
//                           gmm-caching|gmm-eviction|gmm-both]
//                 [--cache-mb MB] [--assoc WAYS] [--seed S]
//                 [--threads T] [--shards S]
//                 [--shadow-policy NAME] [--shadow-ring CAP]
//
// Every run is served through the concurrent runtime (src/runtime/);
// --threads 1 --shards 1 (the default) is bit-identical to the
// single-threaded simulator, higher values exercise the sharded serving
// path and report aggregate throughput. --shadow-policy NAME runs a
// second policy against the same stream off the serving path (gmm-*
// shadows require a gmm-* serving policy) and reports its would-have-hit
// and divergence counters; the replay drains the shadow before
// reporting.
//
// Examples:
//   cache_sim_cli --benchmark hashmap --policy gmm-both --cache-mb 64
//   cache_sim_cli --trace mytrace.csv --policy arc
//   cache_sim_cli --benchmark memtier --policy gmm-both --threads 4 --shards 8
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "cache/policies/arc.hpp"
#include "common/table.hpp"
#include "core/icgmm.hpp"
#include "runtime/replay.hpp"
#include "trace/io.hpp"
#include "trace/reuse.hpp"

namespace {

using namespace icgmm;

struct Args {
  std::string trace_file;
  std::string benchmark = "sysbench";
  std::string policy = "lru";
  std::size_t requests = 500000;
  std::uint64_t cache_mb = 64;
  std::uint32_t assoc = 8;
  std::uint64_t seed = 7;
  std::uint32_t threads = 1;
  std::uint32_t shards = 1;
  std::string shadow_policy;  // empty = shadow evaluation off
  std::uint32_t shadow_ring = 8192;
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw std::invalid_argument("missing value");
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--trace")) args.trace_file = next();
    else if (!std::strcmp(argv[i], "--benchmark")) args.benchmark = next();
    else if (!std::strcmp(argv[i], "--policy")) args.policy = next();
    else if (!std::strcmp(argv[i], "-n")) args.requests = std::stoull(next());
    else if (!std::strcmp(argv[i], "--cache-mb")) args.cache_mb = std::stoull(next());
    else if (!std::strcmp(argv[i], "--assoc")) args.assoc = static_cast<std::uint32_t>(std::stoul(next()));
    else if (!std::strcmp(argv[i], "--seed")) args.seed = std::stoull(next());
    else if (!std::strcmp(argv[i], "--threads")) args.threads = static_cast<std::uint32_t>(std::stoul(next()));
    else if (!std::strcmp(argv[i], "--shards")) args.shards = static_cast<std::uint32_t>(std::stoul(next()));
    else if (!std::strcmp(argv[i], "--shadow-policy")) args.shadow_policy = next();
    else if (!std::strcmp(argv[i], "--shadow-ring")) args.shadow_ring = static_cast<std::uint32_t>(std::stoul(next()));
    else throw std::invalid_argument(std::string("unknown flag: ") + argv[i]);
  }
  return args;
}

std::unique_ptr<cache::ReplacementPolicy> make_classic(const std::string& name) {
  if (name == "lru") return std::make_unique<cache::LruPolicy>();
  if (name == "fifo") return std::make_unique<cache::FifoPolicy>();
  if (name == "random") return std::make_unique<cache::RandomPolicy>();
  if (name == "lfu") return std::make_unique<cache::LfuPolicy>();
  if (name == "clock") return std::make_unique<cache::ClockPolicy>();
  if (name == "arc") return std::make_unique<cache::ArcPolicy>();
  if (name == "srrip") return std::make_unique<cache::SrripPolicy>();
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  // --- Load or generate the workload. --------------------------------------
  const trace::Trace workload =
      args.trace_file.empty()
          ? trace::generate(trace::benchmark_from_string(args.benchmark),
                            args.requests, args.seed)
          : trace::read_csv_file(args.trace_file);

  core::IcgmmConfig cfg;
  cfg.engine.cache.capacity_bytes = args.cache_mb << 20;
  cfg.engine.cache.associativity = args.assoc;
  core::IcgmmSystem system(cfg);

  // --- Pick the policy and serve through the runtime. -----------------------
  runtime::RuntimeConfig rcfg;
  rcfg.cache = cfg.engine.cache;
  rcfg.shards = args.shards;
  if (args.shadow_policy.rfind("gmm", 0) == 0 &&
      args.policy.rfind("gmm", 0) != 0) {
    std::cerr << "error: a gmm-* shadow requires a gmm-* serving policy\n";
    return 1;
  }
  if (!args.shadow_policy.empty()) {
    rcfg.shadow.enabled = true;
    rcfg.shadow.policy_name = args.shadow_policy;
    rcfg.shadow.ring_capacity = args.shadow_ring;
    if (args.shadow_policy.rfind("gmm", 0) != 0) {
      if (!make_classic(args.shadow_policy)) {
        std::cerr << "error: unknown shadow policy '" << args.shadow_policy
                  << "'\n";
        return 1;
      }
      rcfg.shadow.policy_factory = [name = args.shadow_policy](std::uint32_t) {
        return make_classic(name);
      };
    }
  }
  runtime::ReplayConfig replay_cfg;
  replay_cfg.threads = args.threads;
  replay_cfg.latency = cfg.engine.latency;
  replay_cfg.transform = cfg.engine.transform;
  replay_cfg.warmup_fraction = cfg.engine.warmup_fraction;

  std::unique_ptr<runtime::Runtime> rt;
  runtime::ReplayResult served;
  try {
  if (args.policy.rfind("gmm", 0) == 0) {
    system.train(workload);
    const cache::GmmStrategy strategy =
        args.policy == "gmm-caching"    ? cache::GmmStrategy::kCachingOnly
        : args.policy == "gmm-eviction" ? cache::GmmStrategy::kEvictionOnly
                                        : cache::GmmStrategy::kCachingEviction;
    const double threshold = system.pick_threshold(workload, strategy);
    if (rcfg.shadow.enabled && args.shadow_policy.rfind("gmm", 0) == 0) {
      // The shadow reuses the trained engine: same model and threshold
      // recipe, strategy from the shadow flag. `system` outlives
      // the runtime (both are main-scope locals, system declared first).
      const cache::GmmStrategy sstrat =
          args.shadow_policy == "gmm-caching" ? cache::GmmStrategy::kCachingOnly
          : args.shadow_policy == "gmm-eviction"
              ? cache::GmmStrategy::kEvictionOnly
              : cache::GmmStrategy::kCachingEviction;
      const cache::GmmPolicyConfig shadow_cfg{
          .strategy = sstrat, .threshold = threshold};
      rcfg.shadow.policy_factory = [&system, shadow_cfg](std::uint32_t) {
        return system.engine().make_policy(shadow_cfg);
      };
    }
    rt = system.make_runtime(rcfg, strategy, threshold);
    replay_cfg.policy_runs_on_miss = true;  // GMM scores every miss
  } else {
    std::unique_ptr<cache::ReplacementPolicy> policy = make_classic(args.policy);
    if (!policy) {
      std::cerr << "error: unknown policy '" << args.policy << "'\n";
      return 1;
    }
    rt = std::make_unique<runtime::Runtime>(rcfg, *policy);
  }
  served = runtime::replay_trace(*rt, workload, replay_cfg);
  // Shadow trails the stream by a bounded amount; settle it so the
  // report's shadow rows are exact for the whole replay.
  rt->drain_deferred();
  } catch (const std::exception& e) {
    // e.g. a --shards value the cache geometry cannot split into
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  const sim::RunResult& result = served.run;

  // --- Report. ----------------------------------------------------------------
  std::cout << "workload : " << workload.name() << " (" << workload.size()
            << " requests, " << workload.unique_pages() << " pages, "
            << Table::fmt(workload.write_fraction() * 100, 1) << "% writes)\n"
            << "cache    : " << args.cache_mb << " MB / 4 KB blocks / "
            << args.assoc << "-way, policy " << result.policy_name << "\n";
  if (args.threads > 1 || args.shards > 1) {
    // Stats window: post-warm-up when --threads 1 (simulator semantics,
    // shards notwithstanding); the whole run when threads > 1, where
    // replay skips warm-up clearing by design.
    std::cout << "runtime  : " << args.threads << " threads x " << args.shards
              << " shards, "
              << Table::fmt(served.requests_per_second / 1e6, 2)
              << " M req/s\n";
  }
  std::cout << "\n";

  Table report({"metric", "value"});
  report.add_row({"miss rate", Table::fmt_percent(result.miss_rate())});
  report.add_row({"AMAT", Table::fmt_micros(result.amat_us())});
  report.add_row({"hits", std::to_string(result.stats.hits)});
  report.add_row({"read misses", std::to_string(result.stats.read_misses)});
  report.add_row({"write misses", std::to_string(result.stats.write_misses)});
  report.add_row({"bypasses", std::to_string(result.stats.bypasses)});
  report.add_row({"dirty evictions", std::to_string(result.stats.dirty_evictions)});
  report.add_row({"policy inferences", std::to_string(result.policy_inferences)});
  if (rcfg.shadow.enabled) {
    // Drained above, so these are exact over the whole replay (modulo
    // ring-full drops, reported alongside).
    const runtime::RuntimeSnapshot snap = rt->snapshot();
    report.add_row({"shadow policy", rcfg.shadow.policy_name});
    report.add_row({"shadow hits", std::to_string(snap.shadow_hits)});
    report.add_row(
        {"shadow hit rate",
         Table::fmt_percent(snap.shadow_accesses == 0
                                ? 0.0
                                : static_cast<double>(snap.shadow_hits) /
                                      static_cast<double>(snap.shadow_accesses))});
    report.add_row({"shadow divergence",
                    std::to_string(snap.shadow_divergence)});
    report.add_row({"shadow dropped", std::to_string(snap.shadow_dropped)});
  }
  report.add_row({"SSD read time", Table::fmt(result.latency.fill_read_ns / 1e6, 1) + " ms"});
  report.add_row({"SSD writeback time", Table::fmt(result.latency.writeback_ns / 1e6, 1) + " ms"});
  std::cout << report.render();

  // Reuse-distance context: what any LRU of this size could ever achieve.
  trace::ReuseDistanceAnalyzer analyzer;
  const auto reuse = analyzer.analyze(workload);
  const std::uint64_t blocks = cfg.engine.cache.blocks();
  std::cout << "\nfully-associative LRU bound at this capacity: "
            << Table::fmt_percent(reuse.lru_miss_rate(blocks))
            << " miss (cold floor "
            << Table::fmt_percent(static_cast<double>(reuse.cold_accesses) /
                                  static_cast<double>(workload.size()))
            << ")\n";
  return 0;
}

// Serving-runtime throughput and CPU per access by thread role, in
// process: requests/sec as a function of serving threads x cache shards
// for a classic policy (LRU: lock-bound) and the GMM policy (miss-path
// inference: compute-plus-lock-bound), and the same serving with the
// sidecars on. The sidecars are the shadow policy, the traffic recorder
// and the drift refresher; each consumes served accesses off the serving
// path.
//
// Every cell is measured alike: kReps reps interleaved with every other
// cell's, and each rep a fresh runtime serving whole passes of one looped
// Zipf trace for about kRepSeconds. A cell reports the median, min and
// max over its reps of throughput and of CPU-ns per access by role.
// Serving CPU is the serving threads' own CPU clock
// (ReplayResult::serving_cpu_ns). The rest of the process's CPU over the
// rep, the sidecars' final drain included, is the sidecars'. A sidecar
// that cannot keep up drops entries rather than stall serving; it is then
// busy for the whole rep, so its CPU per access tracks wall time rather
// than work, and the cell also reports sidecar CPU per entry consumed.
//
// On multicore hardware, at >= 4 shards, throughput should rise from 1
// to 4 threads. The JSON records hardware_concurrency so baselines are
// interpretable.
//
// Usage: throughput_runtime [-n REQUESTS] [--quick] [--json FILE]
#include <cstdio>
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

namespace {

using namespace icgmm;

/// What runs beside serving in a cell.
struct Sidecars {
  const char* name = "off";
  const char* shadow = nullptr;    ///< shadow policy: "lru", "gmm" or none
  std::uint32_t record_every = 0;  ///< record 1-in-N windows; 0 = off
  bool adapt = false;              ///< drift refresher (GMM serving only)
};

constexpr Sidecars kShadowLru{"shadow-lru", "lru"};
constexpr Sidecars kShadowGmm{"shadow-gmm", "gmm"};
constexpr Sidecars kRecord{"record", nullptr, 1};
constexpr Sidecars kRecord1in8{"record-1in8", nullptr, 8};
constexpr Sidecars kAdapt{"adapt", nullptr, 0, true};
constexpr Sidecars kAll{"shadow-lru+record+adapt", "lru", 1, true};

struct Cell {
  bool gmm = false;
  std::uint32_t shards = 0;
  std::uint32_t threads = 0;
  Sidecars sidecars;
  std::uint32_t passes = 0;  ///< set by the cell's first rep
  bench::RepSeries reps;

  const char* policy() const { return gmm ? "GMM-caching-eviction" : "LRU"; }
};

double ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt = bench::Options::parse(argc, argv);
  const std::size_t requests = opt.quick ? 100000 : opt.requests;
  const double rep_seconds = opt.quick ? 0.0 : bench::kRepSeconds;

  cache::CacheConfig cache_cfg;  // paper geometry: 64 MB / 4 KB / 8-way
  const trace::Trace workload = bench::serving_workload(requests, cache_cfg);
  const std::string capture_path = "throughput_runtime_capture.tmp";

  // A small GMM is enough for a throughput (not accuracy) measurement.
  core::PolicyEngineConfig pe_cfg;
  pe_cfg.em.components = 32;
  pe_cfg.train_subsample = 8000;
  core::PolicyEngine engine(pe_cfg);
  engine.train(workload);
  const cache::GmmPolicyConfig gmm_cfg{
      .strategy = cache::GmmStrategy::kCachingEviction,
      .threshold =
          core::threshold_at_percentile(engine.training_scores(), 0.05)};

  // The delta between the two policies' cells at equal geometry is the
  // serving cost of inline inference. A sidecar cell serves exactly as
  // the "off" cell of its policy, shards and threads; the delta between
  // the two is what the sidecars cost.
  std::vector<Cell> cells;
  for (const bool gmm : {false, true}) {
    for (const std::uint32_t shards : {1u, 4u, 8u}) {
      for (const std::uint32_t threads : {1u, 2u, 4u}) {
        cells.push_back({.gmm = gmm, .shards = shards, .threads = threads});
      }
    }
  }
  for (const Sidecars& s : {kShadowLru, kShadowGmm}) {
    cells.push_back({.shards = 4, .threads = 1, .sidecars = s});
  }
  for (const std::uint32_t threads : {1u, 2u}) {
    for (const Sidecars& s : {kRecord, kRecord1in8}) {
      cells.push_back({.shards = 4, .threads = threads, .sidecars = s});
    }
  }
  for (const Sidecars& s : {kAdapt, kAll}) {
    cells.push_back({.gmm = true, .shards = 4, .threads = 1, .sidecars = s});
  }

  bench::run_interleaved(cells.size(), [&](std::size_t index) {
    Cell& cell = cells[index];
    const Sidecars& side = cell.sidecars;
    runtime::RuntimeConfig rcfg;
    rcfg.cache = cache_cfg;
    rcfg.shards = cell.shards;
    rcfg.adapt = side.adapt;
    if (side.shadow != nullptr) {
      const bool gmm_shadow = std::string(side.shadow) == "gmm";
      rcfg.shadow.enabled = true;
      rcfg.shadow.policy_name = side.shadow;
      rcfg.shadow.policy_factory =
          [&engine, &gmm_cfg,
           gmm_shadow](std::uint32_t) -> std::unique_ptr<cache::ReplacementPolicy> {
        if (gmm_shadow) return engine.make_policy(gmm_cfg);
        return std::make_unique<cache::LruPolicy>();
      };
    }
    if (side.record_every != 0) {
      rcfg.record.path = capture_path;
      rcfg.record.sample_every = side.record_every;
    }
    const std::unique_ptr<runtime::Runtime> rt =
        cell.gmm ? std::make_unique<runtime::Runtime>(rcfg, engine.model(),
                                                      gmm_cfg)
                 : std::make_unique<runtime::Runtime>(rcfg, cache::LruPolicy());
    runtime::ReplayConfig serve;
    serve.warmup_fraction = 0.0;  // throughput: measure the whole run
    serve.policy_runs_on_miss = cell.gmm;
    serve.threads = cell.threads;

    rt->start();  // the refresher's thread; a no-op without one
    const std::uint64_t process0 = bench::cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
    double seconds = 0.0;
    std::uint64_t serving_ns = 0;
    bench::serve_passes(cell.passes, rep_seconds, [&] {
      const runtime::ReplayResult r = runtime::replay_trace(*rt, workload, serve);
      seconds += r.elapsed_seconds;
      serving_ns += r.serving_cpu_ns;
      return r.elapsed_seconds;
    });
    // Drain every sidecar, so the rep's CPU holds all they consumed.
    rt->drain_deferred();
    if (record::TraceRecorder* rec = rt->recorder()) rec->stop();
    rt->stop();
    const std::uint64_t process_ns =
        bench::cpu_ns(CLOCK_PROCESS_CPUTIME_ID) - process0;
    const double sidecar_ns =
        process_ns > serving_ns ? static_cast<double>(process_ns - serving_ns)
                                : 0.0;

    const runtime::RuntimeSnapshot s = rt->snapshot();
    const auto served =
        static_cast<double>(workload.size()) * static_cast<double>(cell.passes);
    const auto consumed = static_cast<double>(
        s.shadow_accesses + s.records_written + s.samples_observed);
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    bench::RepSeries& r = cell.reps;
    r.add("mreq_per_s", ratio(served, seconds) / 1e6);
    r.add("serving_cpu_ns_per_access", ratio(d(serving_ns), served));
    r.add("sidecar_cpu_ns_per_access", ratio(sidecar_ns, served));
    r.add("sidecar_cpu_ns_per_entry", ratio(sidecar_ns, consumed));
    r.add("miss_rate", s.merged.miss_rate());
    r.add("shadow_accesses", d(s.shadow_accesses));
    r.add("shadow_divergence", d(s.shadow_divergence));
    r.add("shadow_drop_rate", ratio(d(s.shadow_dropped),
                                    d(s.shadow_accesses + s.shadow_dropped)));
    r.add("records_written", d(s.records_written));
    r.add("record_drop_rate", ratio(d(s.records_dropped),
                                    d(s.records_written + s.records_dropped)));
    r.add("bytes_written",
          rt->recorder() != nullptr ? d(rt->recorder()->stats().bytes_written)
                                    : 0.0);
    r.add("samples_observed", d(s.samples_observed));
    r.add("sample_drop_rate", ratio(d(s.samples_dropped),
                                    d(s.samples_observed + s.samples_dropped)));
  });
  std::remove(capture_path.c_str());

  std::cout << "serving throughput, " << workload.size() << " requests a pass, "
            << workload.unique_pages() << " pages, median [min-max] of "
            << bench::kReps << " interleaved reps, hardware threads: "
            << std::thread::hardware_concurrency() << "\n\n";
  Table table({"policy", "shards", "threads", "sidecars", "M req/s",
               "serving ns/acc", "sidecar ns/acc", "sidecar ns/entry",
               "drop rate", "miss rate"});
  for (const Cell& c : cells) {
    const bench::RepSeries& r = c.reps;
    // Each running sidecar's median drop rate, in the order the name
    // lists them.
    std::string drops;
    const auto add_drop = [&](bool on, const char* series) {
      if (!on) return;
      if (!drops.empty()) drops += " / ";
      drops += Table::fmt_percent(r.spread(series).median);
    };
    add_drop(c.sidecars.shadow != nullptr, "shadow_drop_rate");
    add_drop(c.sidecars.record_every != 0, "record_drop_rate");
    add_drop(c.sidecars.adapt, "sample_drop_rate");
    table.add_row({c.policy(), std::to_string(c.shards),
                   std::to_string(c.threads), c.sidecars.name,
                   r.fmt("mreq_per_s", 2), r.fmt("serving_cpu_ns_per_access", 1),
                   r.fmt("sidecar_cpu_ns_per_access", 1),
                   Table::fmt(r.spread("sidecar_cpu_ns_per_entry").median, 1),
                   drops.empty() ? "-" : drops,
                   Table::fmt_percent(r.spread("miss_rate").median)});
  }
  std::cout << table.render();

  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path);
    out << "{\n  " << run_env_json_fields() << ",\n"
        << "  \"bench\": \"runtime_throughput\",\n"
        << "  \"requests\": " << workload.size() << ",\n"
        << "  \"unique_pages\": " << workload.unique_pages() << ",\n"
        << "  \"zipf_s\": " << bench::kServingZipfS << ",\n"
        << "  \"reps\": " << bench::kReps << ",\n  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      out << "    {\"policy\": \"" << c.policy() << "\", \"shards\": "
          << c.shards << ", \"threads\": " << c.threads
          << ", \"sidecars\": \"" << c.sidecars.name << "\", \"passes\": "
          << c.passes << ", " << c.reps.json() << "}"
          << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "\nwrote " << opt.json_path << "\n";
  }
  return 0;
}

// icgmm_serve — the serving daemon: a sharded ICGMM runtime behind the
// binary RPC frontend, ready for icgmm_loadgen (or any protocol client).
//
// Usage:
//   icgmm_serve [--port P] [--bind-any] [--shards N] [--workers W]
//               [--policy lru|fifo|random|lfu|clock|
//                         gmm-caching|gmm-eviction|gmm-both]
//               [--cache-mb MB] [--assoc WAYS]
//               [--train-requests N] [--train-benchmark NAME] [--seed S]
//               [--adapt] [--sample-every N]
//               [--shadow-policy NAME] [--shadow-ring CAP]
//               [--record PATH] [--record-sample N] [--record-window W]
//               [--record-ring CAP] [--record-chunk N]
//               [--metrics-port P] [--trace-sample N]
//               [--stats-every SECONDS] [--quiet]
//
// GMM policies train at startup on a synthetic workload (default: the
// sysbench generator at --train-requests requests) and tune the admission
// threshold at the 5th score percentile — the same recipe the throughput
// bench uses. --adapt additionally runs the background drift refresher.
//
// --workers is the number of serving threads (at least 1, default 2).
// Each serves the connections handed to it round-robin, one
// connection's frames in arrival order. SIGINT/SIGTERM shut down
// cleanly: stop accepting, drain, print a final stats line, exit 0.
// --stats-every prints a one-line serving report periodically.
//
// --shadow-policy NAME runs a second policy (any classic name, or a
// gmm-* strategy when the serving policy is also GMM) against the live
// stream off the serving path: per-shard bounded rings feed a background
// evaluator owning its own tag-only directories, and the would-have-hit
// and divergence counters surface through METRICS and /metrics as
// icgmm_shadow_* (see docs/ARCHITECTURE.md). Never touches serving
// state. --shadow-ring bounds the per-shard ring (full = drop + count).
//
// --record PATH captures every accepted access (page, timestamp, R/W,
// arrival time) to an append-only chunked file the loadgen can replay
// bit-for-bit (see docs/ARCHITECTURE.md). Capture is try-push-only: a
// full recorder ring drops (counted on METRICS), never stalls serving.
// --record-sample N keeps 1 window in N of --record-window W requests.
//
// The daemon speaks wire protocol v2 (docs/ARCHITECTURE.md).
//
// Observability (docs/OBSERVABILITY.md): the runtime's MetricsRegistry
// (server + runtime counters, per-stage latency histograms) and a
// 256-event flight recorder; the periodic stats line, the final report,
// and the wire METRICS verb all render from the same registry collect().
// --metrics-port P additionally serves Prometheus text over HTTP on
// loopback (GET /metrics, /healthz, /events; P=0 binds an ephemeral port,
// announced on a parseable line). --trace-sample N records 1 in N
// per-stage timings (1 = every one, the default; 0 = tracing off).
// SIGUSR1 dumps the flight-recorder window to stderr.
#include <chrono>
#include <csignal>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "cache/policies/classic.hpp"
#include "common/run_env.hpp"
#include "core/policy_engine.hpp"
#include "core/threshold.hpp"
#include "net/server.hpp"
#include "obs/event_ring.hpp"
#include "obs/http_exporter.hpp"
#include "obs/registry.hpp"
#include "trace/generator.hpp"

namespace {

using namespace icgmm;

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_dump_events = 0;

void handle_signal(int) { g_stop = 1; }
void handle_dump(int) { g_dump_events = 1; }

struct Args {
  std::uint16_t port = 9090;
  bool bind_any = false;
  std::uint32_t shards = 4;
  std::uint32_t workers = 2;
  std::string policy = "lru";
  std::uint64_t cache_mb = 64;
  std::uint32_t assoc = 8;
  std::size_t train_requests = 200000;
  std::string train_benchmark = "sysbench";
  std::uint64_t seed = 7;
  bool adapt = false;
  std::uint32_t sample_every = 64;
  std::string shadow_policy;  // empty = shadow evaluation off
  std::uint32_t shadow_ring = 8192;
  record::RecorderConfig record;  // off unless --record PATH is given
  int metrics_port = -1;  // -1 = no HTTP endpoint; 0 = ephemeral port
  std::uint32_t trace_sample = 1;
  unsigned stats_every = 10;
  bool quiet = false;
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw std::invalid_argument("missing value");
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--port")) args.port = static_cast<std::uint16_t>(std::stoul(next()));
    else if (!std::strcmp(argv[i], "--bind-any")) args.bind_any = true;
    else if (!std::strcmp(argv[i], "--shards")) args.shards = static_cast<std::uint32_t>(std::stoul(next()));
    else if (!std::strcmp(argv[i], "--workers")) args.workers = static_cast<std::uint32_t>(std::stoul(next()));
    else if (!std::strcmp(argv[i], "--policy")) args.policy = next();
    else if (!std::strcmp(argv[i], "--cache-mb")) args.cache_mb = std::stoull(next());
    else if (!std::strcmp(argv[i], "--assoc")) args.assoc = static_cast<std::uint32_t>(std::stoul(next()));
    else if (!std::strcmp(argv[i], "--train-requests")) args.train_requests = std::stoull(next());
    else if (!std::strcmp(argv[i], "--train-benchmark")) args.train_benchmark = next();
    else if (!std::strcmp(argv[i], "--seed")) args.seed = std::stoull(next());
    else if (!std::strcmp(argv[i], "--adapt")) args.adapt = true;
    else if (!std::strcmp(argv[i], "--sample-every")) args.sample_every = static_cast<std::uint32_t>(std::stoul(next()));
    else if (!std::strcmp(argv[i], "--shadow-policy")) args.shadow_policy = next();
    else if (!std::strcmp(argv[i], "--shadow-ring")) args.shadow_ring = static_cast<std::uint32_t>(std::stoul(next()));
    else if (!std::strcmp(argv[i], "--record")) args.record.path = next();
    else if (!std::strcmp(argv[i], "--record-sample")) args.record.sample_every = static_cast<std::uint32_t>(std::stoul(next()));
    else if (!std::strcmp(argv[i], "--record-window")) args.record.sample_window = static_cast<std::uint32_t>(std::stoul(next()));
    else if (!std::strcmp(argv[i], "--record-ring")) args.record.ring_capacity = std::stoull(next());
    else if (!std::strcmp(argv[i], "--record-chunk")) args.record.chunk_records = static_cast<std::uint32_t>(std::stoul(next()));
    else if (!std::strcmp(argv[i], "--metrics-port")) args.metrics_port = static_cast<int>(std::stoul(next()));
    else if (!std::strcmp(argv[i], "--trace-sample")) args.trace_sample = static_cast<std::uint32_t>(std::stoul(next()));
    else if (!std::strcmp(argv[i], "--stats-every")) args.stats_every = static_cast<unsigned>(std::stoul(next()));
    else if (!std::strcmp(argv[i], "--quiet")) args.quiet = true;
    else throw std::invalid_argument(std::string("unknown flag: ") + argv[i]);
  }
  if (args.workers == 0) {
    throw std::invalid_argument(
        "--workers must be at least 1 (one serving thread serves inline)");
  }
  return args;
}

std::unique_ptr<cache::ReplacementPolicy> make_classic(const std::string& name) {
  if (name == "lru") return std::make_unique<cache::LruPolicy>();
  if (name == "fifo") return std::make_unique<cache::FifoPolicy>();
  if (name == "random") return std::make_unique<cache::RandomPolicy>();
  if (name == "lfu") return std::make_unique<cache::LfuPolicy>();
  if (name == "clock") return std::make_unique<cache::ClockPolicy>();
  throw std::invalid_argument("unknown policy: " + name);
}

cache::GmmStrategy strategy_from(const std::string& name) {
  return name == "gmm-caching"    ? cache::GmmStrategy::kCachingOnly
         : name == "gmm-eviction" ? cache::GmmStrategy::kEvictionOnly
                                  : cache::GmmStrategy::kCachingEviction;
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

  // One flight recorder for the whole daemon, declared before the runtime
  // so it outlives it. The registry is the runtime's own: the server
  // registers its counters and histograms there, and every reporting
  // surface (stats lines, METRICS verb, HTTP /metrics) renders from its
  // collect().
  obs::EventRing events(256);

  runtime::RuntimeConfig rcfg;
  rcfg.cache.capacity_bytes = args.cache_mb << 20;
  rcfg.cache.associativity = args.assoc;
  rcfg.shards = args.shards;
  rcfg.adapt = args.adapt;
  rcfg.sample_every = args.sample_every;
  rcfg.record = args.record;
  rcfg.events = &events;
  // Stamp the capture with where it came from (host, build, flags) —
  // the same provenance header every BENCH_*.json carries.
  if (!rcfg.record.path.empty()) {
    // Built by append: `"{" + temporary` trips a GCC 12 -Wrestrict false
    // positive inside basic_string.
    rcfg.record.provenance = "{";
    rcfg.record.provenance += run_env_json_fields();
    rcfg.record.provenance += "}";
  }
  if (args.shadow_policy.rfind("gmm", 0) == 0 &&
      args.policy.rfind("gmm", 0) != 0) {
    std::cerr << "error: a gmm-* shadow policy requires a GMM serving "
                 "policy (the shadow reuses the trained engine)\n";
    return 1;
  }
  if (!args.shadow_policy.empty()) {
    rcfg.shadow.enabled = true;
    rcfg.shadow.policy_name = args.shadow_policy;
    rcfg.shadow.ring_capacity = args.shadow_ring;
  }

  std::unique_ptr<runtime::Runtime> rt;
  // Kept alive past construction: a gmm-* shadow factory captures it (the
  // runtime copies the factory into its config, so the engine must live
  // as long as the daemon).
  std::shared_ptr<core::PolicyEngine> engine;
  try {
    if (rcfg.shadow.enabled && args.shadow_policy.rfind("gmm", 0) != 0) {
      rcfg.shadow.policy_factory = [name = args.shadow_policy](std::uint32_t) {
        return make_classic(name);
      };
    }
    if (args.policy.rfind("gmm", 0) == 0) {
      if (!args.quiet) {
        std::cout << "training GMM on " << args.train_requests << " "
                  << args.train_benchmark << " requests..." << std::endl;
      }
      const trace::Trace workload = trace::generate(
          trace::benchmark_from_string(args.train_benchmark),
          args.train_requests, args.seed);
      core::PolicyEngineConfig pe_cfg;
      engine = std::make_shared<core::PolicyEngine>(pe_cfg);
      engine->train(workload);
      const double threshold =
          core::threshold_at_percentile(engine->training_scores(), 0.05);
      if (rcfg.shadow.enabled && args.shadow_policy.rfind("gmm", 0) == 0) {
        // The shadow reuses the trained engine: same model, same
        // threshold recipe, strategy from the shadow flag.
        const cache::GmmPolicyConfig shadow_cfg{
            .strategy = strategy_from(args.shadow_policy),
            .threshold = threshold};
        rcfg.shadow.policy_factory = [engine, shadow_cfg](std::uint32_t) {
          return engine->make_policy(shadow_cfg);
        };
      }
      rt = std::make_unique<runtime::Runtime>(
          rcfg, engine->model(),
          cache::GmmPolicyConfig{.strategy = strategy_from(args.policy),
                                 .threshold = threshold});
    } else {
      rt = std::make_unique<runtime::Runtime>(rcfg, *make_classic(args.policy));
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  rt->start();  // background drift adaptation (no-op without --adapt)

  net::ServerConfig scfg;
  scfg.port = args.port;
  scfg.bind_any = args.bind_any;
  scfg.workers = args.workers;
  scfg.events = &events;
  scfg.trace_sample = args.trace_sample;
  net::Server server(*rt, scfg);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  obs::MetricsRegistry& metrics = rt->metrics();
  std::unique_ptr<obs::HttpExporter> exporter;
  if (args.metrics_port >= 0) {
    try {
      exporter = std::make_unique<obs::HttpExporter>(
          metrics, &events,
          obs::HttpExporterConfig{
              .port = static_cast<std::uint16_t>(args.metrics_port),
              .bind_any = args.bind_any});
      exporter->start();
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGUSR1, handle_dump);

  // Announce the resolved port on a parseable line (CI greps for it).
  std::cout << "icgmm_serve listening on port " << server.port()
            << " (protocol v2, policy " << rt->policy_name()
            << ", shards " << args.shards << ", serving threads "
            << args.workers
            << (args.adapt ? ", adaptive" : "")
            << (rcfg.shadow.enabled ? ", shadow " + rcfg.shadow.policy_name
                                    : "")
            << (rcfg.record.path.empty() ? ""
                                         : ", recording " + rcfg.record.path)
            << ")" << std::endl;
  if (exporter) {
    std::cout << "icgmm_serve metrics on port " << exporter->port()
              << " (GET /metrics, /healthz, /events)" << std::endl;
  }

  // Both the periodic line and the final report render from the same
  // registry collect() the METRICS verb and /metrics serve — the
  // surfaces can never disagree on a value.
  const auto scrape =
      [](std::string_view name,
         const std::vector<obs::MetricsRegistry::Sample>& samples) {
        return obs::MetricsRegistry::value_of(samples, name);
      };
  const auto hit_rate_of =
      [](std::uint64_t hits, std::uint64_t accesses) {
        return accesses == 0
                   ? 0.0
                   : static_cast<double>(hits) / static_cast<double>(accesses);
      };

  std::uint64_t last_requests = 0;
  unsigned since_stats = 0;
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    if (g_dump_events) {
      g_dump_events = 0;
      std::cerr << "flight recorder dump (SIGUSR1):\n"
                << obs::render_events(events) << std::flush;
    }
    if (args.stats_every == 0 || args.quiet) continue;
    if (++since_stats < args.stats_every * 4) continue;
    since_stats = 0;
    const auto samples = metrics.collect();
    const std::uint64_t requests =
        scrape("icgmm_server_requests_served", samples);
    std::cout << "stats: conns="
              << scrape("icgmm_server_connections_accepted", samples) -
                     scrape("icgmm_server_connections_closed", samples)
              << " frames=" << scrape("icgmm_server_frames_served", samples)
              << " requests=" << requests
              << " (+" << requests - last_requests << ")"
              << " hit_rate="
              << hit_rate_of(scrape("icgmm_cache_hits", samples),
                             scrape("icgmm_cache_accesses", samples))
              << " inferences=" << scrape("icgmm_gmm_inferences", samples)
              << " model_v=" << scrape("icgmm_gmm_model_version", samples);
    if (!rcfg.record.path.empty()) {
      std::cout << " recorded=" << scrape("icgmm_record_written", samples)
                << "/" << scrape("icgmm_record_dropped", samples)
                << " dropped";
    }
    if (rcfg.shadow.enabled) {
      std::cout << " shadow="
                << scrape("icgmm_shadow_hits", samples) << "/"
                << scrape("icgmm_shadow_accesses", samples)
                << " divergence="
                << scrape("icgmm_shadow_divergence", samples);
    }
    std::cout << std::endl;
    last_requests = requests;
  }

  std::cout << "shutting down..." << std::endl;
  if (exporter) exporter->stop();
  server.stop();
  rt->stop();  // also drains and finalizes the recording, if any
  const auto samples = metrics.collect();
  std::cout << "served " << scrape("icgmm_server_requests_served", samples)
            << " requests in "
            << scrape("icgmm_server_frames_served", samples)
            << " frames over "
            << scrape("icgmm_server_connections_accepted", samples)
            << " connections ("
            << scrape("icgmm_server_protocol_errors", samples)
            << " protocol errors, hit rate "
            << hit_rate_of(scrape("icgmm_cache_hits", samples),
                           scrape("icgmm_cache_accesses", samples));
  if (!rcfg.record.path.empty()) {
    std::cout << ", recorded " << scrape("icgmm_record_written", samples)
              << " in " << scrape("icgmm_record_chunks", samples)
              << " chunks / " << scrape("icgmm_record_dropped", samples)
              << " dropped";
  }
  if (rcfg.shadow.enabled) {
    std::cout << ", shadow " << rcfg.shadow.policy_name << " "
              << scrape("icgmm_shadow_hits", samples) << " hits / "
              << scrape("icgmm_shadow_accesses", samples) << " accesses, "
              << scrape("icgmm_shadow_divergence", samples)
              << " divergence, " << scrape("icgmm_shadow_dropped", samples)
              << " dropped";
  }
  std::cout << ")" << std::endl;
  return 0;
}

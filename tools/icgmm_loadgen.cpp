// icgmm_loadgen — drives an icgmm_serve instance over TCP with a real
// request stream and measures what the paper's serving story ultimately
// cares about: tail latency and achieved throughput.
//
// Usage:
//   icgmm_loadgen [--host H] [--port P] [-n REQUESTS]
//                 [--trace FILE | --benchmark NAME]   (default: Zipf stream)
//                 [--pages N] [--skew S] [--seed S] [--write-frac F]
//                 [--connections C] [--batch B] [--pipeline D]
//                 [--qps TARGET]        open-loop at TARGET req/s total
//                                       (default 0 = closed loop)
//                 [--no-transform]      send raw trace times, not
//                                       Algorithm-1 logical timestamps
//                 [--flush-at FRAC]     admin FLUSH after this fraction of
//                                       requests (server-side warm-up
//                                       discard; exact with 1 connection)
//                 [--replay-timing [SCALE]]  pace sends from a recorded
//                                       capture's inter-arrival times
//                                       (SCALE stretches gaps; default 1)
//                 [--json FILE] [--quiet]
//
// --trace accepts three file kinds, told apart by magic sniffing (not
// extension): an icgmm_serve capture ("ICGR" — replayed with its served
// timestamps verbatim, every FLUSH marker reproduced at its exact
// request index, and by default the full capture), the plain binary
// trace ("ICGT"), or CSV. Replaying a capture against an
// identically-configured server reproduces its hit/miss/inference
// counts exactly (1 connection).
//
// The workload is replayed in trace order, split into contiguous
// per-connection chunks (1 connection = the exact replay_trace order).
// Closed loop: each connection keeps up to --pipeline batches in flight
// and sends the next as soon as a reply frees the window — measures the
// server's capacity. Open loop: batches are launched on a fixed schedule
// derived from --qps and latency is measured from the *scheduled* send
// time, so queueing delay from a saturated server is charged to the tail
// percentiles (no coordinated omission).
//
// Open-loop connections take the replies that arrive while they wait for
// the next send slot, so a reply is timed when it lands.
//
// Reported: achieved QPS, per-request latency p50/p95/p99/p999/max/mean
// (batch latency attributed to each request in the batch), per-reply hit
// counts, and the server's own counters afterwards, read by name from
// the METRICS verb. --json emits the same with the shared
// run-environment header fields: the "server" object (cache and GMM
// counters, string-equal between a recording run and its replay),
// "server_record" and "server_shadow" (recorder and shadow counters,
// which legitimately differ between the two), and "server_metrics"
// (every registry sample, verbatim).
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/run_env.hpp"
#include "common/rng.hpp"
#include "net/client.hpp"
#include "obs/histogram.hpp"
#include "record/format.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"
#include "trace/timestamp_transform.hpp"
#include "trace/zipf.hpp"

namespace {

using namespace icgmm;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string host = "127.0.0.1";
  std::uint16_t port = 9090;
  std::size_t requests = 200000;
  bool requests_set = false;
  std::string trace_file;
  std::string benchmark;
  std::uint64_t pages = 1 << 16;
  double skew = 0.99;
  std::uint64_t seed = 7;
  double write_frac = 0.10;
  std::uint32_t connections = 1;
  std::uint32_t batch = 32;
  std::uint32_t pipeline = 1;
  double qps = 0.0;  // 0 = closed loop
  bool transform = true;
  double flush_at = -1.0;
  /// <= 0: off. Otherwise pace sends from recorded arrival times,
  /// inter-arrival gaps multiplied by this factor.
  double replay_timing = 0.0;
  std::string json_path;
  bool quiet = false;
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw std::invalid_argument("missing value");
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--host")) args.host = next();
    else if (!std::strcmp(argv[i], "--port")) args.port = static_cast<std::uint16_t>(std::stoul(next()));
    else if (!std::strcmp(argv[i], "-n")) { args.requests = std::stoull(next()); args.requests_set = true; }
    else if (!std::strcmp(argv[i], "--trace")) args.trace_file = next();
    else if (!std::strcmp(argv[i], "--benchmark")) args.benchmark = next();
    else if (!std::strcmp(argv[i], "--pages")) args.pages = std::stoull(next());
    else if (!std::strcmp(argv[i], "--skew")) args.skew = std::stod(next());
    else if (!std::strcmp(argv[i], "--seed")) args.seed = std::stoull(next());
    else if (!std::strcmp(argv[i], "--write-frac")) args.write_frac = std::stod(next());
    else if (!std::strcmp(argv[i], "--connections")) args.connections = static_cast<std::uint32_t>(std::stoul(next()));
    else if (!std::strcmp(argv[i], "--batch")) args.batch = static_cast<std::uint32_t>(std::stoul(next()));
    else if (!std::strcmp(argv[i], "--pipeline")) args.pipeline = static_cast<std::uint32_t>(std::stoul(next()));
    else if (!std::strcmp(argv[i], "--qps")) args.qps = std::stod(next());
    else if (!std::strcmp(argv[i], "--no-transform")) args.transform = false;
    else if (!std::strcmp(argv[i], "--flush-at")) args.flush_at = std::stod(next());
    else if (!std::strcmp(argv[i], "--replay-timing")) {
      // Optional value: consume the next token only if it parses as a
      // positive number (so `--replay-timing --json f` works).
      args.replay_timing = 1.0;
      if (i + 1 < argc) {
        char* end = nullptr;
        const double scale = std::strtod(argv[i + 1], &end);
        if (end && *end == '\0' && scale > 0.0) {
          args.replay_timing = scale;
          ++i;
        }
      }
    }
    else if (!std::strcmp(argv[i], "--json")) args.json_path = next();
    else if (!std::strcmp(argv[i], "--quiet")) args.quiet = true;
    else throw std::invalid_argument(std::string("unknown flag: ") + argv[i]);
  }
  if (args.connections == 0) args.connections = 1;
  if (args.batch == 0) args.batch = 1;
  if (args.batch > net::kMaxBatch) args.batch = net::kMaxBatch;
  if (args.pipeline == 0) args.pipeline = 1;
  return args;
}

/// The whole request stream, pre-stamped, plus the recorded-capture side
/// data when --trace named an "ICGR" file.
struct Workload {
  std::vector<net::WireAccess> stream;
  /// Per-request wall-clock send offsets (recorded captures only) —
  /// parallel to stream, feeds --replay-timing pacing.
  std::vector<std::uint64_t> arrival_ns;
  /// Recorded FLUSH positions (request indices into stream).
  std::vector<std::size_t> flush_points;
  bool recorded = false;
};

Workload build_workload(const Args& args) {
  Workload w;
  trace::Trace t;
  if (!args.trace_file.empty()) {
    // Magic sniffing, not extension: captures and binary traces are both
    // routinely named .bin.
    switch (record::sniff_trace_file(args.trace_file)) {
      case record::TraceFileKind::kRecorded: {
        record::RecordedTrace rec =
            record::read_recorded_file(args.trace_file);
        if (rec.tail_truncated) {
          std::cerr << "note: " << args.trace_file
                    << " has a torn tail chunk (crash truncation); "
                       "replaying the "
                    << rec.trace.size() << " intact records\n";
        }
        // Replay what the server served: timestamps verbatim (they are
        // already logical Algorithm-1 values), full capture unless -n
        // explicitly trimmed it.
        const std::size_t n = args.requests_set
                                  ? std::min(args.requests, rec.trace.size())
                                  : rec.trace.size();
        w.recorded = true;
        w.stream.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
          const trace::Record& r = rec.trace[i];
          w.stream.push_back({.page = r.page(),
                              .timestamp = r.time,
                              .is_write = r.is_write()});
        }
        w.arrival_ns.assign(rec.arrival_ns.begin(),
                            rec.arrival_ns.begin() + n);
        for (const std::size_t p : rec.flush_points) {
          if (p <= n) w.flush_points.push_back(p);
        }
        return w;
      }
      case record::TraceFileKind::kBinaryTrace:
        t = trace::read_binary_file(args.trace_file);
        break;
      case record::TraceFileKind::kOther:
        t = trace::read_csv_file(args.trace_file);
        break;
    }
  } else if (!args.benchmark.empty()) {
    t = trace::generate(trace::benchmark_from_string(args.benchmark),
                        args.requests, args.seed);
  } else {
    trace::Zipf zipf(args.pages, args.skew);
    Rng rng(args.seed);
    t = trace::Trace("zipf-loadgen");
    t.reserve(args.requests);
    for (std::size_t i = 0; i < args.requests; ++i) {
      t.push_back({.addr = addr_of(zipf.sample(rng)),
                   .time = i,
                   .type = rng.chance(args.write_frac) ? AccessType::kWrite
                                                       : AccessType::kRead});
    }
  }
  const std::size_t n = std::min(args.requests, t.size());
  w.stream.reserve(n);
  trace::TimestampTransform transform;  // Algorithm-1 defaults
  for (std::size_t i = 0; i < n; ++i) {
    const trace::Record& r = t[i];
    w.stream.push_back({.page = r.page(),
                        .timestamp = args.transform ? transform.next() : r.time,
                        .is_write = r.is_write()});
  }
  return w;
}

struct ConnResult {
  obs::LatencyHistogram latency;
  std::uint64_t requests = 0;
  std::uint64_t batches = 0;
  std::uint64_t hits = 0;
  std::string error;
};

/// Replays one connection's chunk through the shared net::replay_stream
/// driver, recording per-batch latency against the driver's reference
/// time (actual send in closed loop, scheduled send in open loop).
void run_connection(const Args& args, std::span<const net::WireAccess> chunk,
                    std::span<const std::uint64_t> offsets_ns, double conn_qps,
                    std::vector<std::size_t> clear_points, ConnResult& result) {
  try {
    net::Client client = net::Client::connect(args.host, args.port);
    net::ReplayOptions opts;
    opts.batch = args.batch;
    opts.pipeline = args.pipeline;
    opts.clear_points = std::move(clear_points);
    opts.send_offsets_ns = offsets_ns;
    if (conn_qps > 0.0) {
      opts.batch_interval = std::chrono::nanoseconds(static_cast<std::uint64_t>(
          static_cast<double>(args.batch) * 1e9 / conn_qps));
    }
    net::replay_stream(
        client, chunk, opts,
        [&result](const net::AccessReply& reply, Clock::time_point ref,
                  std::uint32_t count) {
          result.latency.record(
              static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - ref)
                      .count()),
              count);
          // Accumulated per reply (not from the driver's return value) so
          // a mid-stream connection error still reports what completed.
          result.requests += reply.count;
          result.hits += reply.hits;
          result.batches += 1;
        });
  } catch (const std::exception& e) {
    result.error = e.what();
  }
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

  Workload workload;
  try {
    workload = build_workload(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  const std::vector<net::WireAccess>& stream = workload.stream;
  if (stream.empty()) {
    std::cerr << "error: empty workload\n";
    return 1;
  }

  // Recorded-timing pacing: pre-scale the capture's arrival offsets so
  // the driver can pace straight off them.
  std::vector<std::uint64_t> paced_offsets;
  if (args.replay_timing > 0.0) {
    if (workload.arrival_ns.empty()) {
      std::cerr << "note: --replay-timing needs a recorded capture "
                   "(--trace on an ICGR file); ignoring\n";
    } else {
      paced_offsets.reserve(workload.arrival_ns.size());
      const std::uint64_t base = workload.arrival_ns.front();
      for (const std::uint64_t ns : workload.arrival_ns) {
        paced_offsets.push_back(static_cast<std::uint64_t>(
            static_cast<double>(ns - base) * args.replay_timing));
      }
    }
  }

  if (!args.quiet) {
    std::cout << "replaying " << stream.size() << " requests to " << args.host
              << ":" << args.port << " over " << args.connections
              << " connection(s), batch " << args.batch << ", pipeline "
              << args.pipeline << ", "
              << (!paced_offsets.empty()
                      ? "recorded timing x" + std::to_string(args.replay_timing)
                  : args.qps > 0.0
                      ? "open loop @ " + std::to_string(args.qps) + " req/s"
                      : std::string("closed loop"))
              << (workload.recorded ? " [recorded capture]" : "") << "\n";
  }

  // A capture's FLUSH markers replay as clear points at their exact
  // request indices; exact reproduction needs the single-connection
  // stream order (with several connections the markers' positions are
  // meaningless in any one chunk).
  std::vector<std::size_t> recorded_clear_points;
  if (!workload.flush_points.empty()) {
    if (args.connections != 1) {
      std::cerr << "note: recorded FLUSH markers are only reproduced with "
                   "--connections 1; ignoring\n";
    } else {
      recorded_clear_points = workload.flush_points;
    }
  }

  // Contiguous per-connection chunks, remainder spread over the first.
  const std::uint32_t conns = args.connections;
  std::vector<ConnResult> results(conns);
  std::vector<std::thread> threads;
  threads.reserve(conns);
  const auto t0 = Clock::now();
  for (std::uint32_t c = 0; c < conns; ++c) {
    const std::span<const net::WireAccess> chunk =
        net::stream_chunk(stream, c, conns);
    const std::span<const std::uint64_t> offsets =
        paced_offsets.empty()
            ? std::span<const std::uint64_t>{}
            : net::stream_chunk(std::span<const std::uint64_t>(paced_offsets),
                                c, conns);
    std::vector<std::size_t> clear_points;
    if (args.flush_at > 0.0 && args.flush_at < 1.0) {
      clear_points.push_back(static_cast<std::size_t>(
          args.flush_at * static_cast<double>(chunk.size())));
    } else if (!recorded_clear_points.empty() && args.flush_at < 0.0) {
      clear_points = recorded_clear_points;  // conns == 1: chunk == stream
    }
    const double conn_qps =
        args.qps > 0.0 ? args.qps / static_cast<double>(conns) : 0.0;
    threads.emplace_back(run_connection, std::cref(args), chunk, offsets,
                         conn_qps, std::move(clear_points),
                         std::ref(results[c]));
  }
  for (std::thread& th : threads) th.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();

  obs::LatencyHistogram latency;
  std::uint64_t completed = 0, batches = 0, hits = 0;
  int failed = 0;
  for (const ConnResult& r : results) {
    latency.merge(r.latency);
    completed += r.requests;
    batches += r.batches;
    hits += r.hits;
    if (!r.error.empty()) {
      ++failed;
      std::cerr << "connection error: " << r.error << "\n";
    }
  }
  const double achieved_qps =
      elapsed > 0.0 ? static_cast<double>(completed) / elapsed : 0.0;

  const double us = 1e-3;
  const double p50 = static_cast<double>(latency.quantile_ns(0.50)) * us;
  const double p95 = static_cast<double>(latency.quantile_ns(0.95)) * us;
  const double p99 = static_cast<double>(latency.quantile_ns(0.99)) * us;
  const double p999 = static_cast<double>(latency.quantile_ns(0.999)) * us;
  const double pmax = static_cast<double>(latency.max_ns()) * us;
  const double pmean = latency.mean_ns() * us;

  if (!args.quiet) {
    std::cout << "completed " << completed << " requests in " << elapsed
              << " s (" << achieved_qps / 1e6 << " M req/s, " << batches
              << " batches)\n"
              << "client hit fraction: "
              << (completed ? static_cast<double>(hits) /
                                  static_cast<double>(completed)
                            : 0.0)
              << "\n"
              << "latency us: mean " << pmean << "  p50 " << p50 << "  p95 "
              << p95 << "  p99 " << p99 << "  p99.9 " << p999 << "  max "
              << pmax << "\n";
  }

  // The server's own view, for cross-checking against the client counts.
  net::MetricsReply server;
  bool have_server = false;
  try {
    server = net::Client::connect(args.host, args.port).metrics();
    have_server = true;
    if (!args.quiet) {
      std::cout << "server stats: accesses="
                << server.value("icgmm_cache_accesses")
                << " hits=" << server.value("icgmm_cache_hits")
                << " misses="
                << server.value("icgmm_cache_read_misses") +
                       server.value("icgmm_cache_write_misses")
                << " inferences=" << server.value("icgmm_gmm_inferences")
                << " model_v=" << server.value("icgmm_gmm_model_version")
                << "\n";
      if (server.value("icgmm_record_written") > 0 ||
          server.value("icgmm_record_dropped") > 0) {
        std::cout << "server recording: written="
                  << server.value("icgmm_record_written")
                  << " dropped=" << server.value("icgmm_record_dropped")
                  << " chunks=" << server.value("icgmm_record_chunks")
                  << "\n";
      }
      if (server.value("icgmm_shadow_accesses") > 0 ||
          server.value("icgmm_shadow_dropped") > 0) {
        std::cout << "server shadow: accesses="
                  << server.value("icgmm_shadow_accesses")
                  << " hits=" << server.value("icgmm_shadow_hits")
                  << " misses=" << server.value("icgmm_shadow_misses")
                  << " divergence=" << server.value("icgmm_shadow_divergence")
                  << " dropped=" << server.value("icgmm_shadow_dropped")
                  << "\n";
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "metrics fetch failed: " << e.what() << "\n";
  }

  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path);
    out << "{\n  " << run_env_json_fields() << ",\n"
        << "  \"tool\": \"icgmm_loadgen\",\n"
        << "  \"requests\": " << stream.size() << ",\n"
        << "  \"completed\": " << completed << ",\n"
        << "  \"connections\": " << conns << ",\n"
        << "  \"batch\": " << args.batch << ",\n"
        << "  \"pipeline\": " << args.pipeline << ",\n"
        << "  \"mode\": \"" << (args.qps > 0.0 ? "open" : "closed") << "\",\n"
        << "  \"target_qps\": " << args.qps << ",\n"
        << "  \"achieved_qps\": " << achieved_qps << ",\n"
        << "  \"elapsed_seconds\": " << elapsed << ",\n"
        << "  \"latency_us\": {\"mean\": " << pmean << ", \"p50\": " << p50
        << ", \"p95\": " << p95 << ", \"p99\": " << p99 << ", \"p999\": "
        << p999 << ", \"max\": " << pmax << "},\n"
        << "  \"client_hits\": " << hits << ",\n"
        << "  \"recorded_trace\": " << (workload.recorded ? "true" : "false")
        << ",\n"
        << "  \"replay_timing_scale\": " << args.replay_timing << ",\n";
    // Each object names its keys after the registry counters it reads.
    const auto object = [&server](
        std::initializer_list<std::pair<const char*, const char*>> fields) {
      std::string o = "{";
      for (const auto& [key, metric] : fields) {
        if (o.size() > 1) o += ", ";
        o += std::string("\"") + key +
             "\": " + std::to_string(server.value(metric));
      }
      return o + "}";
    };
    if (have_server) {
      // Kept out of the "server" object below: the serving counters
      // must compare equal between a recording run and its replay, and
      // the recorder counters legitimately differ.
      out << "  \"server_record\": "
          << object({{"records_written", "icgmm_record_written"},
                     {"records_dropped", "icgmm_record_dropped"},
                     {"record_chunks", "icgmm_record_chunks"}})
          << ",\n";
      // Same reasoning as server_record: the shadow trails the serving
      // path, so a recording run and its replay legitimately disagree on
      // shadow counters — they stay out of the byte-compared "server"
      // object.
      out << "  \"server_shadow\": "
          << object({{"shadow_accesses", "icgmm_shadow_accesses"},
                     {"shadow_hits", "icgmm_shadow_hits"},
                     {"shadow_misses", "icgmm_shadow_misses"},
                     {"shadow_divergence", "icgmm_shadow_divergence"},
                     {"shadow_dropped", "icgmm_shadow_dropped"}})
          << ",\n";
      // Every registry sample, verbatim. Kept out of the "server" object:
      // that line must stay byte-identical between a recording run and
      // its replay, while histogram timings legitimately differ.
      out << "  \"server_metrics\": {";
      bool first = true;
      for (const net::MetricsEntry& e : server.entries) {
        out << (first ? "" : ", ") << "\"" << e.name << "\": " << e.value;
        first = false;
      }
      out << "},\n";
    }
    out << "  \"server\": "
        << (have_server
                ? object({{"accesses", "icgmm_cache_accesses"},
                          {"hits", "icgmm_cache_hits"},
                          {"read_misses", "icgmm_cache_read_misses"},
                          {"write_misses", "icgmm_cache_write_misses"},
                          {"inferences", "icgmm_gmm_inferences"},
                          {"model_version", "icgmm_gmm_model_version"}})
                : std::string("null"))
        << "\n}\n";
    if (!args.quiet) std::cout << "wrote " << args.json_path << "\n";
  }
  return failed == 0 && completed > 0 ? 0 : 1;
}

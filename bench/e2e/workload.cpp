#include "workload.hpp"

#include <chrono>
#include <stdexcept>

#include "cache/policies/classic.hpp"
#include "core/threshold.hpp"
#include "trace/generator.hpp"
#include "trace/timestamp_transform.hpp"

namespace icgmm::e2e {

namespace {

constexpr std::uint64_t kCacheMb = 64;
constexpr std::uint32_t kAssoc = 8;
constexpr std::uint32_t kShards = 4;
constexpr trace::Benchmark kGenerator = trace::Benchmark::kHashmap;

}  // namespace

const Workload& find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

std::vector<runtime::Access> make_stream(std::uint64_t seed, std::size_t length) {
  std::vector<runtime::Access> stream;
  stream.reserve(length);
  trace::TimestampTransform transform;
  const trace::Trace trace = trace::generate(kGenerator, length, seed);
  for (const trace::Record& r : trace) {
    stream.push_back({.page = r.page(),
                      .timestamp = transform.next(),
                      .is_write = r.is_write()});
  }
  return stream;
}

TrainedPolicy train_policy(const Workload& w, std::size_t train_requests) {
  TrainedPolicy out;
  if (!w.gmm) return out;
  const trace::Trace training = trace::generate(kGenerator, train_requests, kTrainSeed);
  out.engine = std::make_shared<core::PolicyEngine>(core::PolicyEngineConfig{});
  const auto t0 = std::chrono::steady_clock::now();
  out.engine->train(training);
  out.train_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  out.threshold =
      core::threshold_at_percentile(out.engine->training_scores(), 0.05);
  return out;
}

std::vector<std::string> daemon_argv(const Workload& w,
                                     const std::string& serve_path,
                                     std::uint32_t trace_sample,
                                     std::size_t train_requests) {
  std::vector<std::string> argv = {
      serve_path,  "--port",   "0",
      "--quiet",   "--shards", std::to_string(kShards),
      "--cache-mb", std::to_string(kCacheMb),
      "--assoc",   std::to_string(kAssoc),
      "--workers", std::to_string(w.workers),
      "--trace-sample", std::to_string(trace_sample)};
  if (w.gmm) {
    argv.insert(argv.end(),
                {"--policy", "gmm-both", "--train-benchmark",
                 trace::to_string(kGenerator), "--train-requests",
                 std::to_string(train_requests), "--seed",
                 std::to_string(kTrainSeed)});
  } else {
    argv.insert(argv.end(), {"--policy", "lru"});
  }
  return argv;
}

std::unique_ptr<runtime::Runtime> make_runtime(const Workload& w,
                                               const TrainedPolicy& policy) {
  runtime::RuntimeConfig cfg;
  cfg.cache.capacity_bytes = kCacheMb << 20;
  cfg.cache.associativity = kAssoc;
  cfg.shards = kShards;
  if (!w.gmm) return std::make_unique<runtime::Runtime>(cfg, cache::LruPolicy());
  return std::make_unique<runtime::Runtime>(
      cfg, policy.engine->model(),
      cache::GmmPolicyConfig{.strategy = cache::GmmStrategy::kCachingEviction,
                             .threshold = policy.threshold});
}

std::unique_ptr<cache::ReplacementPolicy> make_policy(
    const Workload& w, const TrainedPolicy& policy) {
  if (!w.gmm) return std::make_unique<cache::LruPolicy>();
  return policy.engine->make_policy(
      cache::GmmPolicyConfig{.strategy = cache::GmmStrategy::kCachingEviction,
                             .threshold = policy.threshold});
}

}  // namespace icgmm::e2e

// The end-to-end benchmark's workloads: what each sends, how the daemon
// serving it is configured, and the in-process twin of that configuration
// the paper pass runs (one table, so the daemon's flags and the paper
// pass can never describe different systems).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/policy_engine.hpp"
#include "runtime/runtime.hpp"

namespace icgmm::e2e {

/// One request window shape: frames of `batch` requests, `window` frames
/// in flight on each of `connections` connections.
struct LoopShape {
  std::uint32_t batch = 64;
  std::uint32_t connections = 2;
  std::uint32_t window = 8;
};

/// Closed loop of every workload: 2 connections x 8 frames of 64.
inline constexpr LoopShape kClosedShape{.batch = 64, .connections = 2, .window = 8};
/// Open loop of every workload: one connection, frames of 16 requests.
inline constexpr std::uint32_t kOpenBatch = 16;

struct Workload {
  std::string_view name;
  /// gmm-both trained on the hashmap generator; otherwise LRU.
  bool gmm = false;
  std::uint32_t workers = 1;
  /// Closed-loop requests per second of --seconds. Fixes the closed
  /// phase's request count (so both sides of a comparison do the same
  /// work); sized so the phase lasts about 0.4 x --seconds on a 4-core
  /// x86-64 host.
  double closed_req_per_s = 0.0;
  /// Open loop: one connection at this request rate for 0.6 x --seconds.
  double open_req_per_s = 0.0;
};

// Both workloads serve the same hashmap stream, so they differ only in
// the policy. Why each exists is in bench/e2e/README.md; the short form:
//  * hashmap-gmm — the paper's widest LRU gap; GMM scoring dominates
//    serving CPU, so `gmm` changes show here.
//  * hashmap-lru — the same stream and wire path with no scoring: the
//    paper's LRU baseline, and the control a `gmm` change must not move.
//    Wire-bound, so `net` changes show here. One worker: two LRU workers
//    are bimodal across daemon processes.
inline constexpr std::array<Workload, 2> kWorkloads = {{
    {.name = "hashmap-gmm",
     .gmm = true,
     .workers = 2,
     .closed_req_per_s = 800'000,
     .open_req_per_s = 100'000},
    {.name = "hashmap-lru",
     .workers = 1,
     .closed_req_per_s = 9'000'000,
     .open_req_per_s = 200'000},
}};

/// Throws std::invalid_argument for an unknown name.
const Workload& find_workload(std::string_view name);

/// Algorithm-1 timestamp period at len_window 32 x 10 000 windows: a
/// stream whose length is a multiple of it can be replayed cyclically
/// with consistent logical time.
inline constexpr std::size_t kTimestampPeriod = 320'000;

/// The workload's request stream: `length` requests of the hashmap
/// generator from `seed`, stamped with Algorithm-1 logical timestamps.
std::vector<runtime::Access> make_stream(std::uint64_t seed, std::size_t length);

/// Training recipe shared by the daemon and the paper pass: default
/// PolicyEngineConfig on generate(hashmap, train_requests, kTrainSeed),
/// the admission threshold at the 5th percentile of training scores.
inline constexpr std::uint64_t kTrainSeed = 7;

struct TrainedPolicy {
  std::shared_ptr<core::PolicyEngine> engine;
  double threshold = 0.0;
  double train_s = 0.0;  ///< wall time of PolicyEngine::train
};

/// Trains like the daemon does; null engine for LRU workloads.
TrainedPolicy train_policy(const Workload& w, std::size_t train_requests);

/// icgmm_serve command line for the workload (port 0, --quiet).
std::vector<std::string> daemon_argv(const Workload& w,
                                     const std::string& serve_path,
                                     std::uint32_t trace_sample,
                                     std::size_t train_requests);

/// In-process runtime configured as the daemon serves.
std::unique_ptr<runtime::Runtime> make_runtime(const Workload& w,
                                               const TrainedPolicy& policy);

/// A fresh replacement policy as one shard of the daemon would run it,
/// for timing SetAssociativeCache::access alone.
std::unique_ptr<cache::ReplacementPolicy> make_policy(
    const Workload& w, const TrainedPolicy& policy);

}  // namespace icgmm::e2e

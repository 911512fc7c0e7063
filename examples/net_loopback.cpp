// Minimal RPC serving example: stand up a sharded LRU runtime behind the
// binary protocol on a loopback ephemeral port, drive it with the Client
// library (ping, pipelined access batches, metrics, model info, flush), and
// shut down cleanly. This is the whole icgmm_serve/icgmm_loadgen story in
// ~60 lines of library calls — start here before reading the tools.
#include <iostream>
#include <vector>

#include "cache/policies/classic.hpp"
#include "common/rng.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "trace/zipf.hpp"

int main() {
  using namespace icgmm;

  // A 4-shard, 4 MB LRU runtime...
  runtime::RuntimeConfig rcfg;
  rcfg.cache.capacity_bytes = 4 << 20;
  rcfg.shards = 4;
  runtime::Runtime rt(rcfg, cache::LruPolicy());

  // ...served over TCP (port 0 = pick an ephemeral port, workers = 2
  // serving threads; each connection is served on one of them).
  net::Server server(rt, {.port = 0, .workers = 2});
  server.start();
  std::cout << "serving on 127.0.0.1:" << server.port() << "\n";

  net::Client client = net::Client::connect("127.0.0.1", server.port());
  client.ping();
  std::cout << "ping ok\n";

  // A Zipf request stream, sent as pipelined 64-request batches.
  trace::Zipf zipf(4096, 0.99);
  Rng rng(42);
  std::vector<net::WireAccess> batch(64);
  std::uint64_t sent = 0, hits = 0;
  constexpr std::uint32_t kDepth = 4;
  for (int b = 0; b < 500; ++b) {
    for (auto& a : batch) {
      a = {.page = zipf.sample(rng), .timestamp = sent / 32,
           .is_write = rng.chance(0.1)};
      ++sent;
    }
    if (client.outstanding() >= kDepth) {
      hits += client.await_access_reply().hits;
    }
    client.send_access(batch);
  }
  while (client.outstanding() > 0) hits += client.await_access_reply().hits;

  // The server's counters, read by name from the METRICS verb.
  const net::MetricsReply metrics = client.metrics();
  const std::uint64_t accesses = metrics.value("icgmm_cache_accesses");
  const net::ModelInfoReply info = client.model_info();
  std::cout << "served " << accesses << " requests, hit rate "
            << (accesses ? static_cast<double>(
                               metrics.value("icgmm_cache_hits")) /
                               static_cast<double>(accesses)
                         : 0.0)
            << " (client counted " << hits << " hits)\n"
            << "policy " << info.policy_name << ", " << info.shards
            << " shards\n";

  client.flush();  // admin: zero the counters
  std::cout << "after flush: "
            << client.metrics().value("icgmm_cache_accesses")
            << " accesses\n";

  server.stop();
  std::cout << "clean shutdown\n";
  return 0;
}

// Server + Client over real loopback sockets: lifecycle, every RPC type,
// pipelined batches, concurrent connections hammering one runtime (the
// TSan target), malformed-stream rejection (retired version-1 frames
// included), FLUSH semantics, the per-connection buffer cap against a
// client that never reads, and the open-loop replay driver. Suite names
// start with "Net" so the CI sanitizer jobs pick them up via -R.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <system_error>
#include <thread>
#include <vector>

#include "cache/policies/classic.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "test_util.hpp"

namespace icgmm {
namespace {

runtime::RuntimeConfig small_runtime_config(std::uint32_t shards = 2) {
  return {.cache = test_util::tiny_cache(64, 8), .shards = shards};
}

std::vector<net::WireAccess> make_accesses(std::size_t n, std::uint64_t seed,
                                           std::uint64_t pages = 2048) {
  std::vector<net::WireAccess> out;
  out.reserve(n);
  trace::Zipf zipf(pages, 0.9);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({.page = zipf.sample(rng),
                   .timestamp = i / 32,
                   .is_write = rng.chance(0.1)});
  }
  return out;
}

TEST(NetServer, StartsOnEphemeralPortAndStopsCleanly) {
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 1});
  server.start();
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);
  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent
}

/// Cache accesses + misses the server reports on METRICS.
std::uint64_t served_misses(const net::MetricsReply& m) {
  return m.value("icgmm_cache_read_misses") +
         m.value("icgmm_cache_write_misses");
}

TEST(NetServer, PingStatsModelInfoFlushRoundTrips) {
  runtime::Runtime rt(small_runtime_config(4), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 1});
  server.start();
  net::Client client = net::Client::connect("127.0.0.1", server.port());

  client.ping();

  const auto accesses = make_accesses(500, 0x1);
  const net::AccessReply reply = client.access(accesses);
  EXPECT_EQ(reply.count, 500u);
  EXPECT_LE(reply.hits, 500u);

  net::MetricsReply stats = client.metrics();
  EXPECT_EQ(stats.value("icgmm_cache_accesses"), 500u);
  EXPECT_EQ(stats.value("icgmm_cache_hits"), reply.hits);
  EXPECT_EQ(stats.value("icgmm_cache_hits") + served_misses(stats), 500u);

  net::ModelInfoReply info = client.model_info();
  EXPECT_EQ(info.shards, 4u);
  EXPECT_EQ(info.policy_name, "LRU");
  EXPECT_EQ(info.components, 0u);  // prototype mode: no model slot

  client.flush();
  EXPECT_EQ(client.metrics().value("icgmm_cache_accesses"),
            0u);  // counters zeroed...
  const net::AccessReply after = client.access(accesses);
  // ...but cache contents stayed warm: replaying the same stream now hits
  // at least as often as the cold first pass.
  EXPECT_GE(after.hits, reply.hits);

  const net::ServerStats ss = server.stats();
  EXPECT_GE(ss.frames_served, 6u);
  EXPECT_EQ(ss.requests_served, 1000u);
  EXPECT_EQ(ss.protocol_errors, 0u);
  server.stop();
}

TEST(NetServer, PipelinedBatchesReplyInOrder) {
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 2});
  server.start();
  net::Client client = net::Client::connect("127.0.0.1", server.port());

  const auto accesses = make_accesses(1000, 0x2);
  constexpr std::size_t kDepth = 8;
  std::size_t sent = 0, received = 0;
  std::uint64_t total = 0;
  std::span<const net::WireAccess> all(accesses);
  while (received < 10) {
    while (sent < 10 && client.outstanding() < kDepth) {
      client.send_access(all.subspan(sent * 100, 100));
      ++sent;
    }
    const net::AccessReply r = client.await_access_reply();
    EXPECT_EQ(r.count, 100u);  // in-order: every window is 100 requests
    total += r.count;
    ++received;
  }
  EXPECT_EQ(total, 1000u);
  EXPECT_EQ(client.outstanding(), 0u);
  EXPECT_EQ(client.metrics().value("icgmm_cache_accesses"), 1000u);
  server.stop();
}

TEST(NetServer, ConcurrentConnectionsServeOneRuntime) {
  // The TSan-relevant test: several client threads, several workers, one
  // shared runtime. Totals must balance exactly at quiescence.
  runtime::Runtime rt(small_runtime_config(4), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 3});
  server.start();

  constexpr std::uint32_t kClients = 4;
  constexpr std::size_t kPerClient = 4000;
  std::atomic<std::uint64_t> client_hits{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        net::Client client = net::Client::connect("127.0.0.1", server.port());
        const auto accesses = make_accesses(kPerClient, 0x100 + c);
        std::uint64_t hits = 0;
        std::span<const net::WireAccess> all(accesses);
        for (std::size_t off = 0; off < kPerClient; off += 500) {
          hits += client.access(all.subspan(off, 500)).hits;
        }
        client_hits.fetch_add(hits);
      } catch (...) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  const net::ServerStats ss = server.stats();
  EXPECT_EQ(ss.requests_served, kClients * kPerClient);
  const runtime::RuntimeSnapshot snap = rt.snapshot();
  EXPECT_EQ(snap.merged.accesses, kClients * kPerClient);
  EXPECT_EQ(snap.merged.hits, client_hits.load());
  EXPECT_EQ(snap.merged.hits + snap.merged.misses(), snap.merged.accesses);
  server.stop();
}

TEST(NetServer, InlineModeServesWithoutWorkers) {
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 0});  // I/O-thread inline
  server.start();
  net::Client client = net::Client::connect("127.0.0.1", server.port());
  const auto accesses = make_accesses(2000, 0x3);
  std::uint64_t served = 0;
  std::span<const net::WireAccess> all(accesses);
  for (std::size_t off = 0; off < accesses.size(); off += 250) {
    served += client.access(all.subspan(off, 250)).count;
  }
  EXPECT_EQ(served, accesses.size());
  EXPECT_EQ(client.metrics().value("icgmm_cache_accesses"), accesses.size());
  server.stop();
}

/// Raw blocking loopback socket with a 5 s receive deadline (bypasses the
/// Client's framing); -1 on failure.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  timeval tv{.tv_sec = 5, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

/// Sends hostile bytes on a raw socket. Returns true if the server closed
/// the connection (EOF or reset observed on a subsequent blocking read).
bool raw_send_expect_close(std::uint16_t port,
                           const std::vector<std::uint8_t>& bytes) {
  const int fd = raw_connect(port);
  if (fd < 0) return false;
  (void)::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
  char buf[64];
  const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);  // EOF or reset = closed
  ::close(fd);
  return n <= 0;
}

/// Sends `bytes` on a raw socket, half-closes, and returns every byte the
/// server sent back before closing its side.
std::vector<std::uint8_t> raw_conversation(
    std::uint16_t port, const std::vector<std::uint8_t>& bytes) {
  std::vector<std::uint8_t> replies;
  const int fd = raw_connect(port);
  if (fd < 0) return replies;
  EXPECT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  ::shutdown(fd, SHUT_WR);
  char buf[256];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    replies.insert(replies.end(), buf, buf + n);
  }
  ::close(fd);
  return replies;
}

TEST(NetServer, GarbageStreamClosesConnectionAndCountsProtocolError) {
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 1});
  server.start();

  net::Client good = net::Client::connect("127.0.0.1", server.port());
  good.ping();

  // Bad magic: stream poison — the server must drop the connection
  // without replying, and must keep serving the good connection.
  std::vector<std::uint8_t> bad_magic;
  net::encode_ping(bad_magic, 1);
  bad_magic[0] = 'X';
  EXPECT_TRUE(raw_send_expect_close(server.port(), bad_magic));

  // Oversized declared payload length: rejected from the header alone.
  std::vector<std::uint8_t> oversized;
  net::encode_ping(oversized, 2);
  const std::uint32_t huge = net::kMaxPayload + 1;
  for (int i = 0; i < 4; ++i) {
    oversized[16 + i] = static_cast<std::uint8_t>(huge >> (8 * i));
  }
  EXPECT_TRUE(raw_send_expect_close(server.port(), oversized));

  // Unknown protocol version.
  std::vector<std::uint8_t> bad_version;
  net::encode_ping(bad_version, 3);
  bad_version[4] = net::kProtocolV2 + 1;
  EXPECT_TRUE(raw_send_expect_close(server.port(), bad_version));

  // The poisoned connections died; the healthy one still works.
  good.ping();
  const net::ServerStats ss = server.stats();
  EXPECT_EQ(ss.protocol_errors, 3u);
  server.stop();
}

TEST(NetServer, RequestsBeforeClientFinStillGetReplies) {
  // A client may pipeline its last batch and half-close (FIN) before
  // reading the reply; the server must serve what arrived before the EOF
  // and flush the replies before closing — in worker mode too, where the
  // frame and the FIN can land in the same read.
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 1});
  server.start();

  std::vector<std::uint8_t> request;
  const auto accesses = make_accesses(100, 0x4);
  net::encode_access_batch(request, 1, accesses);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  ::shutdown(fd, SHUT_WR);  // FIN right behind the request bytes

  timeval tv{.tv_sec = 5, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::vector<std::uint8_t> reply;
  char buf[256];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    reply.insert(reply.end(), buf, buf + n);
  }
  ::close(fd);

  net::Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(net::decode_frame(reply, frame, consumed), net::DecodeStatus::kOk);
  net::AccessReply decoded;
  ASSERT_EQ(net::decode_access_reply(frame, decoded), net::DecodeStatus::kOk);
  EXPECT_EQ(decoded.count, 100u);
  EXPECT_EQ(rt.snapshot().merged.accesses, 100u);
  server.stop();
}

TEST(NetServer, WellFramedBadRequestGetsErrorReplyAndConnectionSurvives) {
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 1});
  server.start();
  net::Client client = net::Client::connect("127.0.0.1", server.port());

  // An empty ACCESS_BATCH is well-framed but invalid: the server answers
  // with an ERROR frame, which the client surfaces as an exception —
  // and the connection keeps working afterwards.
  EXPECT_THROW(client.access({}), std::runtime_error);
  client.ping();
  EXPECT_EQ(client.metrics().value("icgmm_cache_accesses"), 0u);
  EXPECT_GE(server.stats().error_replies, 1u);
  server.stop();
}

TEST(NetServer, RetiredStatsTypeGetsUnknownTypeErrorAndConnectionLives) {
  // Type 5 was the STATS request. A well-framed frame of it is answered
  // with an ERROR (kUnknownType), and a PING behind it on the same
  // connection still gets its PONG.
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 1});
  server.start();

  std::vector<std::uint8_t> wire;
  net::encode_ping(wire, 1);
  wire[5] = 5;
  net::encode_ping(wire, 2);
  const std::vector<std::uint8_t> replies =
      raw_conversation(server.port(), wire);

  net::Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(net::decode_frame(replies, frame, consumed),
            net::DecodeStatus::kOk);
  ASSERT_EQ(frame.header.type, net::MsgType::kError);
  EXPECT_EQ(frame.header.seq, 1u);
  net::ErrorReply err;
  ASSERT_EQ(net::decode_error(frame, err), net::DecodeStatus::kOk);
  EXPECT_EQ(err.code, net::ErrorCode::kUnknownType);
  const std::span<const std::uint8_t> rest(replies.data() + consumed,
                                           replies.size() - consumed);
  ASSERT_EQ(net::decode_frame(rest, frame, consumed), net::DecodeStatus::kOk);
  EXPECT_EQ(frame.header.type, net::MsgType::kPong);
  EXPECT_EQ(frame.header.seq, 2u);
  EXPECT_EQ(consumed, rest.size());

  const net::ServerStats ss = server.stats();
  EXPECT_EQ(ss.protocol_errors, 0u);
  EXPECT_EQ(ss.error_replies, 1u);
  server.stop();
}

TEST(NetServer, V1FrameClosesTheConnectionWithOneProtocolError) {
  // A version-1 client's first frame (a 16-byte PING: magic, version 1,
  // type, flags, u32 seq, u32 payload_len) is stream poison: no reply,
  // the connection closes, and one protocol error is counted — without
  // the server waiting for the 24 bytes of a current header.
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 1});
  server.start();

  std::vector<std::uint8_t> v1_ping;
  net::put_u32(v1_ping, net::kMagic);
  v1_ping.push_back(1);  // version
  v1_ping.push_back(static_cast<std::uint8_t>(net::MsgType::kPing));
  net::put_u16(v1_ping, 0);  // flags
  net::put_u32(v1_ping, 7);  // seq
  net::put_u32(v1_ping, 0);  // payload_len
  ASSERT_EQ(v1_ping.size(), 16u);
  EXPECT_TRUE(raw_send_expect_close(server.port(), v1_ping));

  const net::ServerStats ss = server.stats();
  EXPECT_EQ(ss.protocol_errors, 1u);
  EXPECT_EQ(ss.frames_served, 0u);
  server.stop();
}

TEST(NetServer, ClientCallThrowsAfterServerDropsTheConnection) {
  // A connection the server drops mid-conversation surfaces as an
  // exception on the next call, and the client marks itself disconnected
  // so its owner knows to reconnect.
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 1});
  server.start();
  net::Client client = net::Client::connect("127.0.0.1", server.port());
  EXPECT_EQ(client.access(make_accesses(10, 0x5)).count, 10u);
  server.stop();
  EXPECT_THROW(client.ping(), std::exception);
  EXPECT_FALSE(client.connected());
}

TEST(NetServer, V2NegotiateAndEveryRpcRoundTrips) {
  // Nothing is negotiated any more: a fresh connection speaks version 2
  // from its first frame, so every RPC works without a probe, on a
  // multi-worker server that completes them out of order.
  runtime::Runtime rt(small_runtime_config(4), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 2});
  server.start();
  net::Client client = net::Client::connect("127.0.0.1", server.port());

  client.ping();
  const auto accesses = make_accesses(500, 0x21);
  const net::AccessReply reply = client.access(accesses);
  EXPECT_EQ(reply.count, 500u);

  // Pipeline a burst so the outbox actually coalesces replies.
  std::span<const net::WireAccess> all(accesses);
  for (std::size_t off = 0; off < 500; off += 50) {
    client.send_access(all.subspan(off, 50));
  }
  EXPECT_EQ(client.outstanding(), 10u);
  std::uint64_t total = 0;
  while (client.outstanding() > 0) total += client.await_access_reply().count;
  EXPECT_EQ(total, 500u);

  EXPECT_EQ(client.metrics().value("icgmm_cache_accesses"), 1000u);
  const net::ModelInfoReply info = client.model_info();
  EXPECT_EQ(info.shards, 4u);
  client.flush();
  EXPECT_EQ(client.metrics().value("icgmm_cache_accesses"), 0u);

  const net::ServerStats ss = server.stats();
  EXPECT_GE(ss.frames_served, 16u);
  EXPECT_EQ(ss.requests_served, 1000u);
  EXPECT_EQ(ss.protocol_errors, 0u);
  // Every reply leaves through the outbox's vectored writev.
  EXPECT_GT(ss.writev_calls, 0u);
  EXPECT_GE(ss.writev_replies, ss.writev_calls);
  server.stop();
}

TEST(NetServer, V2RepliesCompleteOutOfOrderAcrossWorkers) {
  // Id correlation, forced deterministically: a kMaxBatch ACCESS and a
  // PING dispatched back to back on a 2-worker server. The PING's worker
  // finishes in microseconds while the batch grinds through the cache,
  // so the PONG should overtake the ACCESS reply.
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 2});
  server.start();
  net::Client client = net::Client::connect("127.0.0.1", server.port());

  const auto accesses = make_accesses(net::kMaxBatch, 0x22);
  bool reordered = false;
  for (int attempt = 0; attempt < 20 && !reordered; ++attempt) {
    const std::uint64_t batch_id = client.send_access(accesses);
    const std::uint64_t ping_id = client.send_ping();
    const net::Completion first = client.poll_any();
    const net::Completion second = client.poll_any();
    // Both completions always arrive, whatever the order.
    EXPECT_TRUE(first.id == batch_id || first.id == ping_id);
    EXPECT_TRUE(second.id == batch_id || second.id == ping_id);
    EXPECT_NE(first.id, second.id);
    if (first.id == ping_id) reordered = true;  // PONG overtook the batch
  }
  EXPECT_TRUE(reordered)
      << "PONG never overtook a kMaxBatch ACCESS reply in 20 attempts";
  EXPECT_EQ(client.outstanding(), 0u);
  server.stop();
}

TEST(NetServer, RawByteConversationMatchesATwinRuntimeByteForByte) {
  // The wire contract at the raw byte level: a PING gets exactly the
  // encoded PONG, and an ACCESS batch exactly the reply bytes a twin
  // runtime predicts — same header layout, same u64 id echo, same
  // payload.
  const runtime::RuntimeConfig rcfg = small_runtime_config();
  runtime::Runtime rt(rcfg, cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 1});
  server.start();

  const int fd = raw_connect(server.port());
  ASSERT_GE(fd, 0);
  const auto recv_exactly = [&](std::size_t n) {
    std::vector<std::uint8_t> got(n);
    std::size_t off = 0;
    while (off < n) {
      const ssize_t r = ::recv(fd, got.data() + off, n - off, 0);
      if (r <= 0) break;
      off += static_cast<std::size_t>(r);
    }
    EXPECT_EQ(off, n);
    return got;
  };

  // PING -> PONG, byte-identical, with an id beyond the u32 range.
  const std::uint64_t ping_id = 0x1122334455667788ull;
  std::vector<std::uint8_t> wire;
  net::encode_ping(wire, ping_id);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  std::vector<std::uint8_t> expected;
  net::encode_pong(expected, ping_id);
  EXPECT_EQ(recv_exactly(expected.size()), expected);

  // ACCESS_BATCH -> the exact reply bytes a twin runtime predicts.
  const auto accesses = make_accesses(200, 0x23);
  wire.clear();
  net::encode_access_batch(wire, 2, accesses);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  runtime::Runtime twin(rcfg, cache::LruPolicy());
  std::vector<runtime::Access> batch;
  batch.reserve(accesses.size());
  for (const net::WireAccess& a : accesses) {
    batch.push_back({.page = a.page,
                     .timestamp = a.timestamp,
                     .is_write = a.is_write});
  }
  runtime::BatchOutcome outcome;
  twin.apply_batch(batch, outcome);
  expected.clear();
  net::encode_access_reply(expected, 2,
                           {.count = outcome.count,
                            .hits = outcome.hits,
                            .admitted = outcome.admitted,
                            .evictions = outcome.evictions,
                            .dirty_evictions = outcome.dirty_evictions});
  EXPECT_EQ(recv_exactly(expected.size()), expected);

  ::close(fd);
  server.stop();
}

/// Fills a raw connection that never reads its replies with one-request
/// ACCESS frames (ids 1, 2, ...) until its sends stall with the server
/// paused, then reads every reply back. The server must have stopped
/// reading at its buffer cap and must still serve every complete frame
/// exactly once.
void expect_buffer_cap_holds(std::uint32_t workers) {
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  obs::EventRing ring(1024);
  net::Server server(rt, {.port = 0, .workers = workers, .events = &ring});
  server.start();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  // Small client buffers keep what the kernel holds on both paths short
  // of the server's own cap, so the stall comes from the server.
  const int small = 64 * 1024;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);

  constexpr std::size_t kFrameBytes = net::kHeaderBytesV2 + 4 +
                                      net::kAccessWireBytes;
  constexpr std::size_t kReplyBytes = net::kHeaderBytesV2 + 20;
  // 45 MB: far past the cap plus the kernel's socket buffers, so
  // reaching it means the server never stopped reading.
  constexpr std::uint64_t kFrameLimit = 1'000'000;
  std::vector<std::uint8_t> chunk;
  std::size_t chunk_off = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t next_id = 1;
  while (true) {
    if (chunk_off == chunk.size()) {
      chunk.clear();
      chunk_off = 0;
      for (int i = 0; i < 1000; ++i) {
        const net::WireAccess a{.page = next_id % 4096,
                                .timestamp = next_id / 32};
        net::encode_access_batch(chunk, next_id++, {&a, 1});
      }
    }
    const ssize_t n = ::send(fd, chunk.data() + chunk_off,
                             chunk.size() - chunk_off, MSG_NOSIGNAL);
    if (n > 0) {
      chunk_off += static_cast<std::size_t>(n);
      bytes_sent += static_cast<std::uint64_t>(n);
      ASSERT_LT(bytes_sent / kFrameBytes, kFrameLimit)
          << "the server never stopped reading";
      continue;
    }
    ASSERT_TRUE(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
    // Stalled: writable again within 200 ms means the server still reads.
    pollfd pfd{.fd = fd, .events = POLLOUT, .revents = 0};
    if (::poll(&pfd, 1, 200) == 0 && server.stats().read_pauses > 0) break;
  }
  // A trailing partial frame never completes; only whole frames count.
  const std::uint64_t frames = bytes_sent / kFrameBytes;
  ASSERT_GT(frames, 0u);

  const net::ServerStats paused = server.stats();
  EXPECT_GE(paused.read_pauses, 1u);
  EXPECT_LE(paused.buffered_bytes_max, net::kMaxBufferedBytes + kReplyBytes);

  // Read everything back: one reply per frame, each id echoed once.
  pollfd pfd{.fd = fd, .events = POLLIN, .revents = 0};
  std::vector<std::uint8_t> rx;
  std::vector<bool> seen(frames + 1, false);
  std::uint64_t replies = 0;
  char buf[64 * 1024];
  while (replies < frames) {
    ASSERT_GT(::poll(&pfd, 1, 5000), 0) << "replies stopped at " << replies;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    rx.insert(rx.end(), buf, buf + n);
    std::size_t off = 0;
    net::Frame frame;
    std::size_t consumed = 0;
    while (net::decode_frame(std::span(rx).subspan(off), frame, consumed) ==
           net::DecodeStatus::kOk) {
      ASSERT_EQ(frame.header.type, net::MsgType::kAccessReply);
      ASSERT_GE(frame.header.seq, 1u);
      ASSERT_LE(frame.header.seq, frames);
      ASSERT_FALSE(seen[frame.header.seq]) << "id " << frame.header.seq;
      seen[frame.header.seq] = true;
      ++replies;
      off += consumed;
    }
    rx.erase(rx.begin(), rx.begin() + static_cast<std::ptrdiff_t>(off));
  }
  EXPECT_EQ(replies, frames);
  ::close(fd);

  const net::ServerStats done = server.stats();
  EXPECT_EQ(done.requests_served, frames);
  EXPECT_EQ(done.protocol_errors, 0u);
  EXPECT_LE(done.buffered_bytes_max, net::kMaxBufferedBytes + kReplyBytes);
  server.stop();
  // Each pause left one flight-recorder event.
  ASSERT_EQ(ring.dropped(), 0u);
  std::uint64_t pause_events = 0;
  for (const obs::Event& e : ring.dump()) {
    pause_events += e.type == obs::EventType::kReadPause ? 1 : 0;
  }
  EXPECT_EQ(pause_events, done.read_pauses);
}

TEST(NetServer, ClientThatNeverReadsIsPausedAtTheBufferCapInline) {
  expect_buffer_cap_holds(0);
}

TEST(NetServer, ClientThatNeverReadsIsPausedAtTheBufferCapWithWorkers) {
  expect_buffer_cap_holds(2);
}

TEST(NetClient, RecvTimeoutSurfacesAsTimedOutAndClosesTheConnection) {
  // A socket that accept()s (the kernel completes the handshake from the
  // listen backlog) but never replies: without a deadline ping() would
  // block forever; with one it must surface ETIMEDOUT and close.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  net::Client client = net::Client::connect("127.0.0.1", ntohs(addr.sin_port));
  client.set_recv_timeout(std::chrono::milliseconds(100));
  const auto t0 = std::chrono::steady_clock::now();
  try {
    client.ping();
    FAIL() << "ping() should have timed out";
  } catch (const std::system_error& e) {
    EXPECT_EQ(e.code().value(), ETIMEDOUT);
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(elapsed, std::chrono::milliseconds(100));
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  EXPECT_FALSE(client.connected());

  // Zero disables: set, then clear, against a real server round-trips.
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 1});
  server.start();
  net::Client ok = net::Client::connect("127.0.0.1", server.port());
  ok.set_recv_timeout(std::chrono::milliseconds(2000));
  ok.ping();
  ok.set_recv_timeout(std::chrono::milliseconds(0));  // off again
  ok.ping();
  server.stop();
  ::close(lfd);
}

TEST(NetClient, SyncRpcMidPipelineDrainsOutstandingReplies) {
  // A sync RPC issued with ACCESS replies still in flight drains the
  // pipeline and answers normally — a monitoring poller calling
  // metrics() must not care what the driver thread has outstanding, and
  // what it reads reflects every request already sent.
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 2});
  server.start();
  net::Client client = net::Client::connect("127.0.0.1", server.port());

  const auto accesses = make_accesses(300, 0x4);
  std::span<const net::WireAccess> all(accesses);
  client.send_access(all.subspan(0, 100));
  client.send_access(all.subspan(100, 100));
  client.send_access(all.subspan(200, 100));
  EXPECT_EQ(client.outstanding(), 3u);

  // metrics() drains the three ACCESS replies first, then does its own
  // round trip — so it reflects every request already sent.
  const net::MetricsReply stats = client.metrics();
  EXPECT_EQ(client.outstanding(), 0u);
  EXPECT_EQ(stats.value("icgmm_cache_accesses"), 300u);
  EXPECT_EQ(stats.value("icgmm_cache_hits") + served_misses(stats), 300u);

  // The connection stays healthy: further RPCs and batches round-trip.
  client.ping();
  const net::AccessReply r = client.access(all.subspan(0, 100));
  EXPECT_EQ(r.count, 100u);

  // drain_outstanding() directly: returns how many it consumed, and is a
  // no-op on a quiet pipeline.
  client.send_access(all.subspan(0, 50));
  client.send_access(all.subspan(50, 50));
  EXPECT_EQ(client.drain_outstanding(), 2u);
  EXPECT_EQ(client.outstanding(), 0u);
  EXPECT_EQ(client.drain_outstanding(), 0u);
  client.flush();  // FLUSH mid-quiet still fine after all of the above
  EXPECT_EQ(client.metrics().value("icgmm_cache_accesses"), 0u);
  server.stop();
}

TEST(NetClient, PreciseSleepNeverWakesBeforeDeadline) {
  // The hard guarantee of the hybrid pacer: it may overshoot by a little
  // (scheduler noise on the coarse phase is absorbed by the spin) but it
  // NEVER returns early. 20 consecutive 2ms ticks also bound the
  // cumulative overshoot: raw sleep_until at scheduler granularity
  // drifts; the hybrid pacer re-anchors every tick on the absolute
  // schedule.
  using Clock = std::chrono::steady_clock;
  constexpr int kTicks = 20;
  constexpr auto kInterval = std::chrono::milliseconds(2);
  const auto start = Clock::now();
  for (int i = 1; i <= kTicks; ++i) {
    const auto deadline = start + i * kInterval;
    net::precise_sleep_until(deadline);
    EXPECT_GE(Clock::now(), deadline) << "woke early at tick " << i;
  }
  const auto elapsed = Clock::now() - start;
  EXPECT_GE(elapsed, kTicks * kInterval);
  // Generous ceiling even for a loaded CI box; mostly guards against a
  // pathological regression (e.g. sleeping kInterval per call on top of
  // the absolute deadline).
  EXPECT_LT(elapsed, std::chrono::milliseconds(500));
}

TEST(NetClient, OpenLoopReplayHoldsTargetRateAtLowRate) {
  // Achieved-vs-target throughput through the real open-loop driver.
  // 40 batches of 16 requests at one batch per 2ms targets 8000 req/s;
  // loopback service time is far below the interval, so elapsed time is
  // pacing-dominated and the achieved rate must sit just under target
  // (the schedule is a floor — the driver can never finish early).
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 1});
  server.start();
  net::Client client = net::Client::connect("127.0.0.1", server.port());

  constexpr std::size_t kBatches = 40;
  constexpr std::size_t kBatch = 16;
  constexpr auto kInterval = std::chrono::milliseconds(2);
  const auto accesses = make_accesses(kBatches * kBatch, 0x5);
  net::ReplayOptions opts;
  opts.batch = kBatch;
  opts.pipeline = 4;
  opts.batch_interval = kInterval;

  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  const std::uint64_t completed = net::replay_stream(client, accesses, opts);
  const auto elapsed = Clock::now() - t0;
  EXPECT_EQ(completed, accesses.size());

  // The last batch launches at (kBatches - 1) * interval: a hard floor.
  EXPECT_GE(elapsed, (kBatches - 1) * kInterval);

  const double secs = std::chrono::duration<double>(elapsed).count();
  const double achieved = static_cast<double>(completed) / secs;
  const double target =
      static_cast<double>(kBatch) /
      std::chrono::duration<double>(kInterval).count();
  // Never above ~target (floor above), and within 2x below it even on a
  // slow, oversubscribed runner — pre-hybrid pacing sagged much further
  // at short intervals.
  EXPECT_LE(achieved, target * 1.05);
  EXPECT_GE(achieved, target * 0.5)
      << "achieved " << achieved << " req/s vs target " << target;
  server.stop();
}

TEST(NetClient, OpenLoopReplayTakesRepliesWhileWaiting) {
  // Open loop with a deep window: the driver must take each reply while
  // it waits for the next send slot, not when the window next fills —
  // otherwise every reply waits behind pipeline - 1 later sends and the
  // measured latency reads as that many intervals.
  runtime::Runtime rt(small_runtime_config(), cache::LruPolicy());
  net::Server server(rt, {.port = 0, .workers = 0});
  server.start();
  net::Client client = net::Client::connect("127.0.0.1", server.port());

  constexpr std::size_t kBatches = 200;
  constexpr std::size_t kBatch = 16;
  constexpr auto kInterval = std::chrono::milliseconds(1);
  const auto accesses = make_accesses(kBatches * kBatch, 0x6);
  net::ReplayOptions opts;
  opts.batch = kBatch;
  opts.pipeline = 64;
  opts.batch_interval = kInterval;

  using Clock = std::chrono::steady_clock;
  std::vector<Clock::duration> latency;
  const std::uint64_t completed = net::replay_stream(
      client, accesses, opts,
      [&latency](const net::AccessReply&, Clock::time_point ref,
                 std::uint32_t) { latency.push_back(Clock::now() - ref); });
  EXPECT_EQ(completed, accesses.size());
  ASSERT_EQ(latency.size(), kBatches);
  std::nth_element(latency.begin(), latency.begin() + kBatches / 2,
                   latency.end());
  const Clock::duration median = latency[kBatches / 2];
  EXPECT_LT(median, 5 * kInterval)
      << "median latency "
      << std::chrono::duration<double, std::micro>(median).count() << " us";
  server.stop();
}

}  // namespace
}  // namespace icgmm

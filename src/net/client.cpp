#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>

namespace icgmm::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

[[noreturn]] void throw_server_error(const Frame& frame) {
  ErrorReply err;
  if (decode_error(frame, err) == DecodeStatus::kOk) {
    throw std::runtime_error("Client: server error " +
                             std::to_string(static_cast<int>(err.code)) +
                             ": " + err.message);
  }
  throw std::runtime_error("Client: server error (undecodable)");
}

}  // namespace

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept { *this = std::move(other); }

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    recv_timeout_ = other.recv_timeout_;
    next_seq_ = other.next_seq_;
    send_order_ = std::move(other.send_order_);
    pending_access_ = std::move(other.pending_access_);
    pending_pings_ = std::move(other.pending_pings_);
    parked_ = std::move(other.parked_);
    rx_ = std::move(other.rx_);
    tx_ = std::move(other.tx_);
  }
  return *this;
}

void Client::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rx_.clear();
  send_order_.clear();
  pending_access_.clear();
  pending_pings_.clear();
  parked_.clear();
}

Client Client::connect(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string ip =
      (host == "localhost" || host.empty()) ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("Client::connect: bad IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::system_error(err, std::generic_category(), "connect");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  Client c;
  c.fd_ = fd;
  return c;
}

void Client::set_recv_timeout(std::chrono::milliseconds timeout) {
  recv_timeout_ =
      timeout.count() > 0 ? timeout : std::chrono::milliseconds{0};
  apply_recv_timeout();
}

void Client::apply_recv_timeout() {
  if (fd_ < 0) return;
  // SO_RCVTIMEO rather than poll(): every blocking recv() in recv_frame
  // then carries the deadline with zero extra syscalls on the fast path.
  // A zeroed timeval restores the default (block forever).
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(recv_timeout_.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((recv_timeout_.count() % 1000) * 1000);
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) < 0) {
    throw_errno("setsockopt(SO_RCVTIMEO)");
  }
}

// Transport-level failures (socket errors, EOF, receive deadline expiry,
// undecodable or uncorrelated reply streams) leave the connection
// unusable: close it before throwing so connected() turns false and a
// caller can reconnect. Server ERROR replies are NOT transport failures —
// the stream stays in sync and the connection stays open.

void Client::send_all(const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    const int err = errno;
    close();
    throw std::system_error(err, std::generic_category(), "send");
  }
}

bool Client::take_frame(std::vector<std::uint8_t>& bytes) {
  Frame frame;
  std::size_t consumed = 0;
  const DecodeStatus st = decode_frame(rx_, frame, consumed);
  if (st == DecodeStatus::kNeedMore) return false;
  if (st != DecodeStatus::kOk) {
    close();
    throw std::runtime_error(std::string("Client: malformed reply frame: ") +
                             to_string(st));
  }
  bytes.assign(rx_.begin(), rx_.begin() + consumed);
  rx_.erase(rx_.begin(), rx_.begin() + consumed);
  return true;
}

bool Client::read_some(bool block) {
  char buf[16 * 1024];
  while (true) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), block ? 0 : MSG_DONTWAIT);
    if (n > 0) {
      rx_.insert(rx_.end(), buf, buf + n);
      return true;
    }
    if (n == 0) {
      close();
      throw std::runtime_error("Client: connection closed by server");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!block) return false;
      if (recv_timeout_.count() > 0) {
        // The receive deadline expired mid-wait. The abandoned reply
        // leaves the stream unusable (its frame would desynchronize the
        // next correlation), so the connection closes with the throw.
        close();
        throw std::system_error(ETIMEDOUT, std::generic_category(),
                                "Client: receive deadline expired");
      }
    }
    const int err = errno;
    close();
    throw std::system_error(err, std::generic_category(), "recv");
  }
}

std::vector<std::uint8_t> Client::recv_frame() {
  std::vector<std::uint8_t> bytes;
  while (!take_frame(bytes)) read_some(/*block=*/true);
  return bytes;
}

void Client::decode_received(const std::vector<std::uint8_t>& bytes,
                             Frame& frame) {
  std::size_t consumed = 0;
  if (decode_frame(bytes, frame, consumed) != DecodeStatus::kOk) {
    close();
    throw std::runtime_error("Client: reply re-decode failed");
  }
}

// --- id correlation ----------------------------------------------------------

void Client::forget_pending(std::uint64_t id) {
  pending_access_.erase(id);
  pending_pings_.erase(id);
  std::erase(send_order_, id);
}

Completion Client::classify(const Frame& frame) {
  const std::uint64_t id = frame.header.seq;
  switch (frame.header.type) {
    case MsgType::kError:
      // The server rejected this request but the stream stays in sync:
      // consume the id's pending slot, keep the connection open, and let
      // the complaint surface to whoever is awaiting.
      forget_pending(id);
      throw_server_error(frame);
    case MsgType::kAccessReply: {
      if (pending_access_.erase(id) == 0) {
        close();
        throw std::runtime_error("Client: ACCESS_REPLY for unknown id " +
                                 std::to_string(id));
      }
      Completion c;
      c.id = id;
      c.type = MsgType::kAccessReply;
      if (decode_access_reply(frame, c.access) != DecodeStatus::kOk) {
        close();
        throw std::runtime_error("Client: malformed ACCESS_REPLY payload");
      }
      return c;
    }
    case MsgType::kPong: {
      if (pending_pings_.erase(id) == 0) {
        close();
        throw std::runtime_error("Client: PONG for unknown id " +
                                 std::to_string(id));
      }
      Completion c;
      c.id = id;
      c.type = MsgType::kPong;
      return c;
    }
    default:
      close();
      throw std::runtime_error(std::string("Client: unexpected reply ") +
                               to_string(frame.header.type));
  }
}

std::vector<std::uint8_t> Client::await_frame(std::uint64_t want_id,
                                              MsgType want_type,
                                              Frame& frame) {
  while (true) {
    std::vector<std::uint8_t> bytes = recv_frame();
    decode_received(bytes, frame);
    if (frame.header.seq == want_id) {
      if (frame.header.type == MsgType::kError) {
        forget_pending(want_id);
        throw_server_error(frame);
      }
      if (frame.header.type != want_type) {
        close();
        throw std::runtime_error(std::string("Client: expected ") +
                                 to_string(want_type) + ", got " +
                                 to_string(frame.header.type));
      }
      return bytes;
    }
    // Another request's completion arrived first — park it by id for its
    // own awaiter. This is what makes await(id) out-of-order safe.
    Completion parked = classify(frame);
    const std::uint64_t id = parked.id;
    parked_.insert_or_assign(id, std::move(parked));
  }
}

std::uint64_t Client::send_ping() {
  const std::uint64_t id = next_seq_++;
  tx_.clear();
  encode_ping(tx_, id);
  send_all(tx_);
  pending_pings_.insert(id);
  return id;
}

AccessReply Client::await_access(std::uint64_t id) {
  if (const auto it = parked_.find(id); it != parked_.end()) {
    const AccessReply reply = it->second.access;
    if (it->second.type != MsgType::kAccessReply) {
      throw std::logic_error("Client: await_access on a non-ACCESS id");
    }
    parked_.erase(it);
    std::erase(send_order_, id);
    return reply;
  }
  if (!pending_access_.contains(id)) {
    throw std::logic_error("Client: await_access on unknown id " +
                           std::to_string(id));
  }
  // Claim the slot up front: a server ERROR for this id still consumed it.
  std::erase(send_order_, id);
  Frame frame;
  const auto bytes = await_frame(id, MsgType::kAccessReply, frame);
  pending_access_.erase(id);
  AccessReply reply;
  if (decode_access_reply(frame, reply) != DecodeStatus::kOk) {
    close();
    throw std::runtime_error("Client: malformed ACCESS_REPLY payload");
  }
  return reply;
}

Completion Client::take_parked() {
  const auto it = parked_.begin();
  Completion c = std::move(it->second);
  parked_.erase(it);
  std::erase(send_order_, c.id);
  return c;
}

Completion Client::completion_of(const std::vector<std::uint8_t>& bytes) {
  Frame frame;
  decode_received(bytes, frame);
  Completion c = classify(frame);
  std::erase(send_order_, c.id);
  return c;
}

Completion Client::poll_any() {
  if (!parked_.empty()) return take_parked();
  if (pending_access_.empty() && pending_pings_.empty()) {
    throw std::logic_error("Client: poll_any with nothing outstanding");
  }
  return completion_of(recv_frame());
}

std::optional<Completion> Client::poll_any_until(
    std::chrono::steady_clock::time_point deadline) {
  using Clock = std::chrono::steady_clock;
  if (!parked_.empty()) return take_parked();
  if (pending_access_.empty() && pending_pings_.empty()) {
    throw std::logic_error("Client: poll_any_until with nothing outstanding");
  }
  // The kernel sleeps to within kSpinWindow of the deadline; the rest is
  // spent polling the socket without blocking, the same split
  // precise_sleep_until makes between sleep_until and its spin.
  constexpr auto kSpinWindow = std::chrono::milliseconds(1);
  std::vector<std::uint8_t> bytes;
  while (!take_frame(bytes)) {
    const auto left = deadline - Clock::now();
    if (left > kSpinWindow) {
      pollfd pfd{.fd = fd_, .events = POLLIN, .revents = 0};
      const auto sleep_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(left -
                                                                kSpinWindow);
      if (::poll(&pfd, 1, static_cast<int>(sleep_ms.count())) == 0) continue;
    }
    // Past the deadline, what already arrived is still taken.
    if (!read_some(/*block=*/false) && left <= Clock::duration::zero()) {
      return std::nullopt;
    }
  }
  return completion_of(bytes);
}

std::uint32_t Client::drain_outstanding() {
  std::uint32_t drained = 0;
  while (!parked_.empty() || !pending_access_.empty() ||
         !pending_pings_.empty()) {
    // A server ERROR for a drained request still propagates, so a sync
    // RPC over a poisoned pipeline surfaces the server's complaint rather
    // than silently eating it.
    if (poll_any().type == MsgType::kAccessReply) ++drained;
  }
  send_order_.clear();
  return drained;
}

// --- synchronous round trips ------------------------------------------------

std::vector<std::uint8_t> Client::round_trip(RequestEncoder encode,
                                             MsgType reply_type,
                                             Frame& frame) {
  drain_outstanding();
  const std::uint64_t id = next_seq_++;
  tx_.clear();
  encode(tx_, id);
  send_all(tx_);
  return await_frame(id, reply_type, frame);
}

void Client::ping() {
  Frame frame;
  round_trip(encode_ping, MsgType::kPong, frame);
}

std::uint64_t Client::send_access(std::span<const WireAccess> accesses) {
  const std::uint64_t id = next_seq_++;
  tx_.clear();
  encode_access_batch(tx_, id, accesses);
  send_all(tx_);
  send_order_.push_back(id);
  pending_access_.insert(id);
  return id;
}

AccessReply Client::await_access_reply() {
  if (send_order_.empty()) {
    throw std::logic_error("Client: no outstanding ACCESS_BATCH");
  }
  return await_access(send_order_.front());
}

AccessReply Client::access(std::span<const WireAccess> accesses) {
  send_access(accesses);
  return await_access_reply();
}

MetricsReply Client::metrics() {
  Frame frame;
  const auto bytes = round_trip(
      [](std::vector<std::uint8_t>& out, std::uint64_t id) {
        encode_metrics_request(out, id);
      },
      MsgType::kMetricsReply, frame);
  MetricsReply reply;
  if (decode_metrics_reply(frame, reply) != DecodeStatus::kOk) {
    close();
    throw std::runtime_error("Client: malformed METRICS_REPLY payload");
  }
  return reply;
}

ModelInfoReply Client::model_info() {
  Frame frame;
  const auto bytes =
      round_trip(encode_model_info_request, MsgType::kModelInfoReply, frame);
  ModelInfoReply reply;
  if (decode_model_info_reply(frame, reply) != DecodeStatus::kOk) {
    close();
    throw std::runtime_error("Client: malformed MODEL_INFO_REPLY payload");
  }
  return reply;
}

void Client::flush() {
  Frame frame;
  round_trip(
      [](std::vector<std::uint8_t>& out, std::uint64_t id) {
        encode_flush_request(out, id);
      },
      MsgType::kFlushReply, frame);
}

// --- replay_stream ----------------------------------------------------------

void precise_sleep_until(std::chrono::steady_clock::time_point deadline) {
  using Clock = std::chrono::steady_clock;
  // The hybrid: hand the bulk of the wait to the scheduler, absorb its
  // wake-up jitter (typically well under a millisecond) by spinning out
  // the remainder. The spin reads only the clock — no pause instruction
  // needed at these durations.
  constexpr auto kSpinWindow = std::chrono::milliseconds(1);
  if (deadline - Clock::now() > kSpinWindow) {
    std::this_thread::sleep_until(deadline - kSpinWindow);
  }
  while (Clock::now() < deadline) {
  }
}

std::uint64_t replay_stream(Client& client,
                            std::span<const WireAccess> stream,
                            const ReplayOptions& opts,
                            const ReplayBatchHook& on_reply) {
  using Clock = std::chrono::steady_clock;
  struct InFlight {
    Clock::time_point ref;
    std::uint32_t count;
  };
  const std::size_t batch = std::max<std::size_t>(1, opts.batch);
  const std::size_t pipeline = std::max<std::size_t>(1, opts.pipeline);
  const bool recorded_timing = !opts.send_offsets_ns.empty() &&
                               opts.send_offsets_ns.size() >= stream.size();
  const bool open_loop = recorded_timing || opts.batch_interval.count() > 0;

  // Defensive sanitize of the clear points (documented as sorted
  // ascending; zeros and duplicates dropped) so a capture's raw marker
  // positions can be passed straight through.
  std::vector<std::size_t> points(opts.clear_points);
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  points.erase(points.begin(),
               std::find_if(points.begin(), points.end(),
                            [](std::size_t p) { return p != 0; }));
  std::size_t next_point = 0;

  const auto start = Clock::now();

  // Batches complete in arrival order (keyed by id), so a slow batch
  // never head-of-line blocks the latency measurement of replies that
  // already arrived.
  std::unordered_map<std::uint64_t, InFlight> window;
  std::uint64_t completed = 0;
  const auto complete = [&](const Completion& c) {
    // Only ACCESS ids are outstanding here, so every completion maps.
    const auto it = window.find(c.id);
    if (c.type != MsgType::kAccessReply || it == window.end()) {
      throw std::runtime_error("replay_stream: unexpected completion id " +
                               std::to_string(c.id));
    }
    const InFlight batch_sent = it->second;
    window.erase(it);
    completed += c.access.count;
    if (on_reply) on_reply(c.access, batch_sent.ref, batch_sent.count);
  };

  std::size_t sent = 0;
  std::uint64_t batch_index = 0;
  while (sent < stream.size()) {
    while (next_point < points.size() && points[next_point] == sent) {
      // Drain the window first so the FLUSH is a true barrier: every
      // request before the point completed, none after it sent.
      while (!window.empty()) complete(client.poll_any());
      client.flush();
      ++next_point;
    }
    std::size_t n = std::min(batch, stream.size() - sent);
    if (next_point < points.size() && points[next_point] > sent) {
      n = std::min(n, points[next_point] - sent);  // land exactly on the point
    }
    Clock::time_point ref;
    if (recorded_timing) {
      // Pace by the batch's first request: relative to the capture's
      // first arrival, so replay spacing mirrors recorded spacing.
      ref = start + std::chrono::nanoseconds(opts.send_offsets_ns[sent] -
                                             opts.send_offsets_ns[0]);
    } else if (open_loop) {
      // Scheduled by batches launched, not requests: a split batch (a
      // clear-point boundary, the stream tail) consumes a full interval
      // slot, shifting later launches by at most one interval per split.
      ref = start + batch_index * opts.batch_interval;
    }
    if (open_loop) {
      // Take the replies that land while waiting for the send slot, so
      // none waits behind later sends; then send on time.
      while (!window.empty()) {
        const std::optional<Completion> c = client.poll_any_until(ref);
        if (!c) break;
        complete(*c);
      }
      precise_sleep_until(ref);  // no-op when behind schedule
    }
    while (window.size() >= pipeline) complete(client.poll_any());
    if (!open_loop) ref = Clock::now();
    const std::uint64_t id = client.send_access(stream.subspan(sent, n));
    window.emplace(id, InFlight{ref, static_cast<std::uint32_t>(n)});
    sent += n;
    ++batch_index;
  }
  while (!window.empty()) complete(client.poll_any());
  // Points landing exactly at the end of the stream still fire (a capture
  // that ends on a FLUSH marker), mirroring runtime replay's semantics.
  while (next_point < points.size() && points[next_point] == sent) {
    client.flush();
    ++next_point;
  }
  return completed;
}

}  // namespace icgmm::net

#include "driver.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <ctime>
#include <stdexcept>

#include "daemon.hpp"
#include "net/protocol.hpp"

namespace icgmm::e2e {

namespace {

/// Frames on the wire at once, across connections (ids index slots).
constexpr std::size_t kSlots = 1u << 16;
/// A phase that sees no reply for this long has stalled.
constexpr std::uint64_t kStallNs = 10'000'000'000ull;
/// The v2 header's request-id field: a little-endian u64 at offset 8.
constexpr std::size_t kIdOffset = 8;

void store_u64_le(std::uint8_t* p, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

double thread_cpu_s() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

timespec to_timespec(std::uint64_t ns) noexcept {
  return {.tv_sec = static_cast<time_t>(ns / 1'000'000'000ull),
          .tv_nsec = static_cast<long>(ns % 1'000'000'000ull)};
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("wire driver: " + what);
}

}  // namespace

FrameSet::FrameSet(std::span<const runtime::Access> stream, std::uint32_t batch)
    : batch_(batch),
      frames_(batch == 0 ? 0 : stream.size() / batch),
      frame_bytes_(net::kHeaderBytesV2 + 4 + batch * net::kAccessWireBytes) {
  if (batch == 0 || frames_ == 0 || stream.size() % batch != 0) {
    throw std::invalid_argument("FrameSet: stream length must be a non-zero "
                                "multiple of the batch size");
  }
  bytes_.reserve(frames_ * frame_bytes_);
  std::vector<net::WireAccess> wire(batch);
  for (std::size_t f = 0; f < frames_; ++f) {
    for (std::uint32_t j = 0; j < batch; ++j) {
      const runtime::Access& a = stream[f * batch + j];
      wire[j] = {.page = a.page, .timestamp = a.timestamp,
                 .is_write = a.is_write};
    }
    net::encode_access_batch(bytes_, 0, wire, net::kProtocolV2);
  }
}

WireDriver::WireDriver(std::uint16_t port, std::uint32_t connections)
    : conns_(connections), slots_(kSlots) {
  if (connections < 1 || connections > 2) {
    throw std::invalid_argument("WireDriver: 1 or 2 connections");
  }
  for (Conn& c : conns_) {
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (c.fd < 0) fail("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      fail("connect to port " + std::to_string(port));
    }
    int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  }
}

WireDriver::~WireDriver() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

void WireDriver::send_frames(std::uint32_t ci, FrameSet& frames,
                             std::uint64_t pos, std::size_t count,
                             std::uint64_t sched0_ns,
                             std::uint64_t interval_ns) {
  Conn& c = conns_[ci];
  const std::uint64_t send_ns = now_ns();
  std::size_t f = (pos / frames.batch()) % frames.frames();
  for (std::size_t i = 0; i < count;) {
    const std::size_t run = std::min(count - i, frames.frames() - f);
    for (std::size_t j = 0; j < run; ++j) {
      const std::uint64_t id = next_id_++;
      Slot& s = slots_[id % kSlots];
      if (s.busy) fail("more than 65536 frames in flight");
      s = {.id = id,
           .sched_ns = sched0_ns + (i + j) * interval_ns,
           .send_ns = send_ns,
           .conn = ci,
           .busy = true};
      store_u64_le(frames.frame(f + j) + kIdOffset, id);
    }
    c.tx.emplace_back(frames.frame(f), run * frames.frame_bytes());
    i += run;
    f = 0;
  }
  c.inflight += static_cast<std::uint32_t>(count);
  flush_tx(c);
}

void WireDriver::flush_tx(Conn& c) {
  while (!c.tx.empty()) {
    std::span<const std::uint8_t>& run = c.tx.front();
    const ssize_t n = ::send(c.fd, run.data(), run.size(), MSG_NOSIGNAL);
    if (n > 0) {
      if (static_cast<std::size_t>(n) == run.size()) {
        c.tx.pop_front();
      } else {
        run = run.subspan(static_cast<std::size_t>(n));
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    fail("send failed");
  }
}

void WireDriver::poll_replies(std::uint64_t deadline_ns, std::uint32_t batch,
                              std::vector<Reply>& out) {
  pollfd pfds[2];
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    pfds[i] = {.fd = conns_[i].fd,
               .events = static_cast<short>(
                   POLLIN | (conns_[i].tx.empty() ? 0 : POLLOUT)),
               .revents = 0};
  }
  const std::uint64_t now = now_ns();
  const timespec ts = to_timespec(deadline_ns > now ? deadline_ns - now : 0);
  const int r = ::ppoll(pfds, conns_.size(), &ts, nullptr);
  if (r < 0 && errno != EINTR) fail("ppoll failed");
  if (r <= 0) return;

  for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
    Conn& c = conns_[ci];
    if (pfds[ci].revents & POLLOUT) flush_tx(c);
    if (!(pfds[ci].revents & (POLLIN | POLLHUP | POLLERR))) continue;
    std::uint8_t buf[64 * 1024];
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n == 0) fail("the daemon closed the connection");
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      fail("recv failed");
    }
    const std::uint64_t recv_ns = now_ns();
    c.rx.insert(c.rx.end(), buf, buf + n);

    std::size_t off = 0;
    while (true) {
      net::Frame frame;
      std::size_t consumed = 0;
      const net::DecodeStatus st = net::decode_frame(
          std::span<const std::uint8_t>(c.rx).subspan(off), frame, consumed);
      if (st == net::DecodeStatus::kNeedMore) break;
      if (st != net::DecodeStatus::kOk) {
        fail(std::string("undecodable reply: ") + net::to_string(st));
      }
      net::AccessReply reply;
      if (frame.header.type != net::MsgType::kAccessReply ||
          net::decode_access_reply(frame, reply) != net::DecodeStatus::kOk) {
        fail(std::string("expected ACCESS_REPLY, got ") +
             net::to_string(frame.header.type));
      }
      Slot& s = slots_[frame.header.seq % kSlots];
      if (!s.busy || s.id != frame.header.seq || s.conn != ci) {
        fail("reply for an id not in flight on this connection");
      }
      if (reply.count != batch || reply.hits > reply.count) {
        fail("reply counts do not match the frame");
      }
      out.push_back({.sched_ns = s.sched_ns,
                     .send_ns = s.send_ns,
                     .recv_ns = recv_ns,
                     .hits = reply.hits});
      s.busy = false;
      --c.inflight;
      off += consumed;
    }
    c.rx.erase(c.rx.begin(), c.rx.begin() + static_cast<std::ptrdiff_t>(off));
  }
}

PhaseResult WireDriver::closed_loop(FrameSet& frames, std::uint64_t& pos,
                                    std::uint64_t requests,
                                    const LoopShape& shape) {
  PhaseResult res;
  const std::uint32_t batch = frames.batch();
  const std::uint64_t total = requests / batch;
  const std::uint32_t nconn =
      std::min<std::uint32_t>(shape.connections,
                              static_cast<std::uint32_t>(conns_.size()));
  std::uint64_t sent = 0;
  std::uint64_t done = 0;
  std::vector<Reply> replies;
  const double cpu0 = thread_cpu_s();
  const std::uint64_t t0 = now_ns();
  std::uint64_t last = t0;
  while (done < total) {
    for (std::uint32_t c = 0; c < nconn && sent < total; ++c) {
      const std::uint64_t room = shape.window - conns_[c].inflight;
      const std::uint64_t k = std::min(room, total - sent);
      if (k == 0) continue;
      send_frames(c, frames, pos, k, now_ns(), 0);
      pos += k * batch;
      sent += k;
    }
    replies.clear();
    poll_replies(last + kStallNs, batch, replies);
    for (const Reply& r : replies) {
      ++done;
      res.hits += r.hits;
      last = r.recv_ns;
    }
    if (replies.empty() && now_ns() >= last + kStallNs) fail("closed loop stalled");
  }
  res.requests_sent = sent * batch;
  res.requests_replied = done * batch;
  res.elapsed_s = static_cast<double>(last - t0) / 1e9;
  res.gen_cpu_s = thread_cpu_s() - cpu0;
  return res;
}

OpenResult WireDriver::open_loop(FrameSet& frames, std::uint64_t& pos,
                                 std::uint64_t requests, double req_per_s) {
  OpenResult res;
  const std::uint32_t batch = frames.batch();
  const std::uint64_t total = requests / batch;
  const auto interval_ns = static_cast<std::uint64_t>(
      static_cast<double>(batch) * 1e9 / req_per_s + 0.5);
  res.latency.reserve(total);
  res.rtt.reserve(total);
  res.late.reserve(total);

  std::uint64_t sent = 0;
  std::uint64_t done = 0;
  std::vector<Reply> replies;
  const double cpu0 = thread_cpu_s();
  const std::uint64_t t0 = now_ns() + 1'000'000;  // first slot: 1 ms out
  std::uint64_t last = t0;
  while (done < total) {
    const std::uint64_t now = now_ns();
    if (sent < total && t0 + sent * interval_ns <= now) {
      // Every slot already due goes out now, as one run; each keeps its
      // own scheduled time, so a stall here is charged to the requests
      // it delayed.
      const std::uint64_t due =
          std::min(total, (now - t0) / interval_ns + 1) - sent;
      send_frames(0, frames, pos, due, t0 + sent * interval_ns, interval_ns);
      pos += due * batch;
      sent += due;
    }
    const std::uint64_t deadline =
        sent < total ? t0 + sent * interval_ns : last + kStallNs;
    replies.clear();
    poll_replies(deadline, batch, replies);
    for (const Reply& r : replies) {
      ++done;
      res.hits += r.hits;
      last = std::max(last, r.recv_ns);
      res.latency.push_back(r.recv_ns - r.sched_ns);
      res.rtt.push_back(r.recv_ns - r.send_ns);
      res.late.push_back(r.send_ns - r.sched_ns);
    }
    if (sent == total && replies.empty() && now_ns() >= last + kStallNs) {
      fail("open loop stalled");
    }
  }
  res.requests_sent = sent * batch;
  res.requests_replied = done * batch;
  res.elapsed_s = static_cast<double>(last - t0) / 1e9;
  res.gen_cpu_s = thread_cpu_s() - cpu0;
  return res;
}

std::vector<std::uint8_t> WireDriver::rpc(
    const std::vector<std::uint8_t>& request, std::uint64_t id) {
  Conn& c = conns_[0];
  if (c.inflight != 0 || !c.tx.empty()) fail("control frame with ACCESS in flight");
  const std::uint64_t deadline = now_ns() + kStallNs;
  c.tx.emplace_back(request.data(), request.size());
  while (true) {
    flush_tx(c);
    net::Frame frame;
    std::size_t consumed = 0;
    const net::DecodeStatus st = net::decode_frame(c.rx, frame, consumed);
    if (st == net::DecodeStatus::kOk) {
      if (frame.header.seq != id) fail("control reply with the wrong id");
      std::vector<std::uint8_t> out(c.rx.begin(),
                                    c.rx.begin() + static_cast<std::ptrdiff_t>(consumed));
      c.rx.erase(c.rx.begin(), c.rx.begin() + static_cast<std::ptrdiff_t>(consumed));
      return out;
    }
    if (st != net::DecodeStatus::kNeedMore) fail("undecodable control reply");
    if (now_ns() >= deadline) fail("control reply timed out");
    pollfd pfd{.fd = c.fd,
               .events = static_cast<short>(POLLIN | (c.tx.empty() ? 0 : POLLOUT)),
               .revents = 0};
    if (::poll(&pfd, 1, 100) <= 0 || !(pfd.revents & (POLLIN | POLLHUP | POLLERR))) {
      continue;
    }
    std::uint8_t buf[64 * 1024];
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n == 0) fail("the daemon closed the connection");
    if (n > 0) c.rx.insert(c.rx.end(), buf, buf + n);
  }
}

std::map<std::string, std::uint64_t> WireDriver::metrics() {
  const std::uint64_t id = next_id_++;
  std::vector<std::uint8_t> req;
  net::encode_metrics_request(req, id, net::kProtocolV2);
  const std::vector<std::uint8_t> bytes = rpc(req, id);
  net::Frame frame;
  std::size_t consumed = 0;
  net::MetricsReply reply;
  if (net::decode_frame(bytes, frame, consumed) != net::DecodeStatus::kOk ||
      net::decode_metrics_reply(frame, reply) != net::DecodeStatus::kOk) {
    fail("expected METRICS_REPLY");
  }
  std::map<std::string, std::uint64_t> out;
  for (net::MetricsEntry& e : reply.entries) out[std::move(e.name)] = e.value;
  return out;
}

void WireDriver::flush() {
  const std::uint64_t id = next_id_++;
  std::vector<std::uint8_t> req;
  net::encode_flush_request(req, id, net::kProtocolV2);
  const std::vector<std::uint8_t> bytes = rpc(req, id);
  net::Frame frame;
  std::size_t consumed = 0;
  if (net::decode_frame(bytes, frame, consumed) != net::DecodeStatus::kOk ||
      frame.header.type != net::MsgType::kFlushReply) {
    fail("expected FLUSH_REPLY");
  }
}

}  // namespace icgmm::e2e

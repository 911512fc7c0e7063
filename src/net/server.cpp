#include "net/server.hpp"

#include <limits.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <utility>

namespace icgmm::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

void set_nodelay(int fd) noexcept {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Framed replies coalesced per writev syscall. IOV_MAX (1024 on Linux)
/// is the kernel's hard cap; 64 keeps the iovec array a small stack
/// object and already covers every pipeline depth the drivers use — the
/// flush loop just issues another writev for deeper backlogs.
constexpr std::size_t kIovBatch = IOV_MAX < 64 ? IOV_MAX : 64;

/// How long reactor 0 leaves the listen socket out of its epoll set after
/// an accept fails for want of a descriptor or buffer.
constexpr std::chrono::milliseconds kAcceptBackoff{5};

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

/// Per-connection state, owned by one reactor and touched only on its
/// thread.
struct Server::Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}
  ~Connection() { ::close(fd); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  const int fd;
  /// Partial inbound byte stream.
  std::vector<std::uint8_t> in;
  /// Framed replies in arrival order, drained by vectored writev.
  std::deque<std::vector<std::uint8_t>> outbox;
  std::size_t outbox_off = 0;  ///< bytes of outbox.front() already sent
  /// Unsent outbox bytes, held against kMaxBufferedBytes.
  std::size_t buffered = 0;
  std::uint32_t armed = EPOLLIN;  ///< epoll interest currently registered
  bool want_write = false;  ///< a flush hit EAGAIN; wait for EPOLLOUT
  /// At the buffer cap: not reading, and `in` may still hold frames.
  bool paused = false;
  bool eof = false;  ///< peer FIN seen; close once drained
};

/// One serving thread: its epoll set, the eventfd that wakes it, and the
/// connections it owns.
struct Server::Reactor {
  Reactor()
      : epoll_fd(::epoll_create1(EPOLL_CLOEXEC)),
        wake_fd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
    if (epoll_fd < 0 || wake_fd < 0 || !watch(wake_fd)) {
      const int err = errno;
      if (epoll_fd >= 0) ::close(epoll_fd);
      if (wake_fd >= 0) ::close(wake_fd);
      throw std::system_error(err, std::generic_category(), "reactor setup");
    }
  }
  ~Reactor() {
    conns.clear();  // closes the sockets before their epoll set goes
    ::close(wake_fd);
    ::close(epoll_fd);
  }
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Adds `fd` to the epoll set for reading; false on failure.
  bool watch(int fd) const noexcept {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    return ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) == 0;
  }
  /// Wakes the reactor's epoll_wait.
  void kick() const noexcept {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd, &one, sizeof(one));
  }

  const int epoll_fd;
  const int wake_fd;
  std::thread thread;
  /// Live connections, keyed by fd. This reactor's thread only.
  std::unordered_map<int, std::unique_ptr<Connection>> conns;
  /// Accepted sockets handed over by reactor 0, adopted on the next wake.
  std::mutex inbox_mu;
  std::vector<int> inbox;
  /// Reactor 0 only: set while an accept back-off keeps the listen socket
  /// out of the epoll set, to the time it goes back in.
  std::optional<std::chrono::steady_clock::time_point> accept_resume;
};

Server::Server(runtime::Runtime& rt, ServerConfig cfg)
    : rt_(rt), cfg_(cfg) {
  obs::MetricsRegistry& metrics = rt_.metrics();
  if (cfg_.trace_sample != 0) {
    stage_decode_ = &metrics.histogram("icgmm_server_stage_decode_ns");
    stage_apply_ = &metrics.histogram("icgmm_server_stage_apply_ns");
    stage_flush_ = &metrics.histogram("icgmm_server_stage_flush_ns");
  }
  provider_id_ = metrics.add_provider(
      [this](std::vector<obs::MetricsRegistry::Sample>& out) {
        const ServerStats s = stats();
        out.push_back(
            {"icgmm_server_connections_accepted", s.connections_accepted});
        out.push_back(
            {"icgmm_server_connections_closed", s.connections_closed});
        out.push_back(
            {"icgmm_server_connections_refused", s.connections_refused});
        out.push_back({"icgmm_server_frames_served", s.frames_served});
        out.push_back({"icgmm_server_requests_served", s.requests_served});
        out.push_back({"icgmm_server_protocol_errors", s.protocol_errors});
        out.push_back({"icgmm_server_error_replies", s.error_replies});
        out.push_back({"icgmm_server_writev_calls", s.writev_calls});
        out.push_back({"icgmm_server_writev_replies", s.writev_replies});
        out.push_back({"icgmm_server_read_pauses", s.read_pauses});
        out.push_back(
            {"icgmm_server_buffered_bytes_max", s.buffered_bytes_max});
      });
}

Server::~Server() {
  // Drop the provider before any member goes away: a concurrent scrape
  // holds the registry mutex while calling it, so after remove_provider
  // returns no scrape can touch this object again.
  rt_.metrics().remove_provider(provider_id_);
  stop();
}

bool Server::should_trace() noexcept {
  const std::uint32_t n = cfg_.trace_sample;
  if (n <= 1) return n == 1;
  return trace_tick_.fetch_add(1, std::memory_order_relaxed) % n == 0;
}

void Server::start() {
  if (started_) throw std::logic_error("Server::start: already started");
  if (cfg_.workers == 0) {
    throw std::invalid_argument(
        "Server::start: workers (serving threads) must be at least 1");
  }
  try {
    start_impl();
  } catch (...) {
    // Partial setup (e.g. bind EADDRINUSE after socket()) must not leak
    // fds — a caller retrying ports would otherwise creep toward EMFILE.
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    reactors_.clear();
    throw;
  }
}

void Server::start_impl() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr =
      htonl(cfg_.bind_any ? INADDR_ANY : INADDR_LOOPBACK);
  addr.sin_port = htons(cfg_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    throw_errno("bind");
  }
  if (::listen(listen_fd_, cfg_.listen_backlog) < 0) throw_errno("listen");

  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  for (std::uint32_t i = 0; i < cfg_.workers; ++i) {
    reactors_.push_back(std::make_unique<Reactor>());
  }
  if (!reactors_[0]->watch(listen_fd_)) throw_errno("epoll_ctl(listen)");

  started_ = true;
  running_.store(true, std::memory_order_release);
  for (const std::unique_ptr<Reactor>& r : reactors_) {
    r->thread = std::thread([this, &r = *r] { reactor_loop(r); });
  }
}

void Server::stop() {
  if (!started_) return;
  running_.store(false, std::memory_order_release);
  for (const std::unique_ptr<Reactor>& r : reactors_) r->kick();
  for (const std::unique_ptr<Reactor>& r : reactors_) r->thread.join();
  // Connections still open close like any other: counted, and announced
  // with one kConnClose each (the reactors are gone, so this is the only
  // thread touching them). Sockets handed over but never adopted close
  // the same way.
  for (const std::unique_ptr<Reactor>& r : reactors_) {
    for (const int fd : r->inbox) {
      r->conns.emplace(fd, std::make_unique<Connection>(fd));
    }
    r->inbox.clear();
    while (!r->conns.empty()) close_connection(*r, *r->conns.begin()->second);
  }
  reactors_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
  started_ = false;
}

ServerStats Server::stats() const noexcept {
  return {.connections_accepted = accepted_.load(std::memory_order_relaxed),
          .connections_closed = closed_.load(std::memory_order_relaxed),
          .connections_refused = refused_.load(std::memory_order_relaxed),
          .frames_served = frames_.load(std::memory_order_relaxed),
          .requests_served = requests_.load(std::memory_order_relaxed),
          .protocol_errors = protocol_errors_.load(std::memory_order_relaxed),
          .error_replies = error_replies_.load(std::memory_order_relaxed),
          .writev_calls = writev_calls_.load(std::memory_order_relaxed),
          .writev_replies = writev_replies_.load(std::memory_order_relaxed),
          .read_pauses = read_pauses_.load(std::memory_order_relaxed),
          .buffered_bytes_max = buffered_max_.load(std::memory_order_relaxed)};
}

void Server::note_buffered(std::size_t bytes) noexcept {
  std::uint64_t seen = buffered_max_.load(std::memory_order_relaxed);
  while (bytes > seen && !buffered_max_.compare_exchange_weak(
                             seen, bytes, std::memory_order_relaxed)) {
  }
}

void Server::reactor_loop(Reactor& r) {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (running_.load(std::memory_order_acquire)) {
    int timeout_ms = -1;
    if (r.accept_resume) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
          *r.accept_resume - std::chrono::steady_clock::now());
      timeout_ms = static_cast<int>(std::max<std::int64_t>(left.count(), 0));
    }
    const int n = ::epoll_wait(r.epoll_fd, events, kMaxEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone — shutting down
    }
    if (r.accept_resume &&
        std::chrono::steady_clock::now() >= *r.accept_resume) {
      // The back-off is over: a connection still pending makes the listen
      // socket readable on the next wait.
      r.accept_resume.reset();
      if (!r.watch(listen_fd_)) {
        r.accept_resume = std::chrono::steady_clock::now() + kAcceptBackoff;
      }
    }
    bool woken = false;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == r.wake_fd) {
        std::uint64_t drain;
        while (::read(r.wake_fd, &drain, sizeof(drain)) > 0) {
        }
        woken = true;  // running_ re-checked by the loop condition
        continue;
      }
      if (fd == listen_fd_) {
        accept_ready(r);
        continue;
      }
      const auto it = r.conns.find(fd);
      if (it == r.conns.end()) continue;  // closed earlier this wake-up
      Connection& c = *it->second;
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        close_connection(r, c);
        continue;
      }
      if (events[i].events & EPOLLOUT) {
        if (!flush_writes(c)) {
          close_connection(r, c);
          continue;
        }
        // The drain may resume a paused connection or finish a drained
        // EOF'd one.
        if (!serve_input(r, c)) continue;
      }
      if (events[i].events & EPOLLIN) read_ready(r, c);
    }
    // New sockets join after the batch, so no event of this batch can
    // reach a new connection that reuses a just-closed fd number.
    if (woken) adopt_inbox(r);
  }
}

void Server::accept_ready(Reactor& r) {
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      // Persistent failure (EMFILE/ENFILE/ENOBUFS): the connection still
      // in the backlog keeps the listen fd readable, so the
      // level-triggered loop would spin on it. Take the listen fd out of
      // the epoll set for a back-off instead; this reactor keeps serving
      // its connections meanwhile and re-arms it when the back-off ends.
      ::epoll_ctl(r.epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
      r.accept_resume = std::chrono::steady_clock::now() + kAcceptBackoff;
      return;
    }
    const std::uint64_t live = accepted_.load(std::memory_order_relaxed) -
                               closed_.load(std::memory_order_relaxed);
    if (live >= cfg_.max_connections) {
      // At capacity: refuse, counted and recorded before the peer can see
      // the close.
      refused_.fetch_add(1, std::memory_order_relaxed);
      if (cfg_.events != nullptr) {
        cfg_.events->emit(obs::EventType::kConnRefused, live);
      }
      ::close(fd);
      continue;
    }
    set_nodelay(fd);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    if (cfg_.events != nullptr) {
      cfg_.events->emit(obs::EventType::kConnOpen,
                        static_cast<std::uint64_t>(fd));
    }
    Reactor& owner = *reactors_[next_owner_++ % reactors_.size()];
    {
      std::lock_guard<std::mutex> lock(owner.inbox_mu);
      owner.inbox.push_back(fd);
    }
    owner.kick();
  }
}

void Server::adopt_inbox(Reactor& r) {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(r.inbox_mu);
    fds.swap(r.inbox);
  }
  for (const int fd : fds) {
    Connection& c =
        *r.conns.emplace(fd, std::make_unique<Connection>(fd)).first->second;
    if (!r.watch(fd)) close_connection(r, c);
  }
}

void Server::read_ready(Reactor& r, Connection& c) {
  // Drain the socket (level-triggered epoll would re-notify, but fewer
  // wake-ups means fewer epoll_wait syscalls under load).
  char buf[16 * 1024];
  while (true) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.in.insert(c.in.end(), buf, buf + n);
      if (c.in.size() > kMaxFrameBytes + sizeof(buf)) {
        break;  // stop reading; frame the backlog first
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // EOF or a hard socket error. A client that pipelines requests and
    // then half-closes (FIN) is still owed its replies: serve_input
    // serves what arrived, and the connection closes once drained.
    c.eof = true;
    break;
  }
  serve_input(r, c);
}

bool Server::serve_input(Reactor& r, Connection& c) {
  // A paused connection resumes once a flush took it below half the cap.
  while (!c.paused || c.buffered < kMaxBufferedBytes / 2) {
    c.paused = false;
    // Slice complete frames off the stream front and serve each in
    // arrival order, until the stream runs dry or the next reply could
    // take the connection past kMaxBufferedBytes.
    std::size_t off = 0;
    std::size_t served = 0;
    bool poisoned = false;
    while (true) {
      const bool trace_decode = stage_decode_ != nullptr && should_trace();
      const std::uint64_t decode_start = trace_decode ? now_ns() : 0;
      Frame frame;
      std::size_t consumed = 0;
      const DecodeStatus st = decode_frame(
          std::span<const std::uint8_t>(c.in).subspan(off), frame, consumed);
      if (st == DecodeStatus::kNeedMore) break;
      if (st != DecodeStatus::kOk) {
        poisoned = true;
        break;
      }
      if (trace_decode) stage_decode_->record(now_ns() - decode_start);
      // A 24-byte METRICS request can fetch a reply of up to a maximal
      // frame; charging that up front keeps the cap a bound on replies.
      const std::size_t charge =
          frame.header.type == MsgType::kMetrics ? kMaxFrameBytes : consumed;
      if (c.buffered + charge > kMaxBufferedBytes) {
        c.paused = true;  // the frame stays in `in`
        break;
      }
      std::vector<std::uint8_t> reply;
      serve_frame(frame, reply);
      frames_.fetch_add(1, std::memory_order_relaxed);
      c.buffered += reply.size();
      note_buffered(c.buffered);
      c.outbox.push_back(std::move(reply));
      ++served;
      off += consumed;
    }
    if (off > 0) c.in.erase(c.in.begin(), c.in.begin() + off);
    if (poisoned) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      if (cfg_.events != nullptr) {
        cfg_.events->emit(obs::EventType::kProtocolError,
                          static_cast<std::uint64_t>(c.fd));
      }
      close_connection(r, c);
      return false;
    }
    // One flush per pass: every reply the pass produced rides one writev.
    if (served > 0 && !flush_writes(c)) {
      close_connection(r, c);
      return false;
    }
    if (!c.paused) break;
    // At the cap. A flush that drained it below half serves on; else the
    // connection stops being read until EPOLLOUT drains it.
    if (c.buffered >= kMaxBufferedBytes / 2) {
      read_pauses_.fetch_add(1, std::memory_order_relaxed);
      if (cfg_.events != nullptr) {
        cfg_.events->emit(obs::EventType::kReadPause,
                          static_cast<std::uint64_t>(c.fd));
      }
    }
  }
  // The peer already FIN'd and its last reply byte is out.
  if (c.eof && !c.paused && c.outbox.empty()) {
    close_connection(r, c);
    return false;
  }
  arm(r, c);
  return true;
}

void Server::close_connection(Reactor& r, Connection& c) {
  const int fd = c.fd;
  ::epoll_ctl(r.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  closed_.fetch_add(1, std::memory_order_relaxed);
  if (cfg_.events != nullptr) {
    cfg_.events->emit(obs::EventType::kConnClose,
                      static_cast<std::uint64_t>(fd));
  }
  r.conns.erase(fd);  // destroys `c` and closes the socket
}

void Server::serve_frame(const Frame& frame, std::vector<std::uint8_t>& out) {
  // Replies go back with the id the request carried.
  const std::uint64_t seq = frame.header.seq;

  switch (frame.header.type) {
    case MsgType::kPing:
      if (decode_empty(frame) != DecodeStatus::kOk) break;
      encode_pong(out, seq);
      return;

    case MsgType::kAccessBatch: {
      // Thread-local staging keeps the hot path allocation-free after
      // warm-up; one wire batch becomes one apply_batch span, and the
      // aggregating overload folds the reply counters into the serve
      // loop — no per-request results array on the wire path.
      thread_local std::vector<WireAccess> wire;
      thread_local std::vector<runtime::Access> batch;
      if (decode_access_batch(frame, wire) != DecodeStatus::kOk) break;
      batch.clear();
      batch.reserve(wire.size());
      for (const WireAccess& a : wire) {
        batch.push_back({.page = a.page,
                         .timestamp = a.timestamp,
                         .is_write = a.is_write});
      }
      runtime::BatchOutcome outcome;
      const bool trace_apply = stage_apply_ != nullptr && should_trace();
      const std::uint64_t apply_start = trace_apply ? now_ns() : 0;
      rt_.apply_batch(batch, outcome);
      if (trace_apply) stage_apply_->record(now_ns() - apply_start);
      requests_.fetch_add(batch.size(), std::memory_order_relaxed);
      encode_access_reply(out, seq,
                          {.count = outcome.count,
                           .hits = outcome.hits,
                           .admitted = outcome.admitted,
                           .evictions = outcome.evictions,
                           .dirty_evictions = outcome.dirty_evictions});
      return;
    }

    case MsgType::kModelInfo: {
      if (decode_empty(frame) != DecodeStatus::kOk) break;
      ModelInfoReply reply;
      reply.shards = rt_.config().shards;
      reply.policy_name = rt_.policy_name();
      if (const runtime::ModelSlot* slot = rt_.model_slot()) {
        reply.components = static_cast<std::uint32_t>(slot->load()->size());
        reply.model_version = slot->version();
      }
      encode_model_info_reply(out, seq, reply);
      return;
    }

    case MsgType::kFlush:
      if (decode_empty(frame) != DecodeStatus::kOk) break;
      rt_.clear_stats();
      encode_flush_reply(out, seq);
      return;

    case MsgType::kMetrics: {
      if (decode_empty(frame) != DecodeStatus::kOk) break;
      MetricsReply reply;
      for (obs::MetricsRegistry::Sample& s : rt_.metrics().collect()) {
        reply.entries.push_back({std::move(s.name), s.value});
      }
      // The wire caps entries; a registry past it loses the tail
      // (collect() is name-sorted, so truncation is deterministic).
      if (reply.entries.size() > kMaxMetricsEntries) {
        reply.entries.resize(kMaxMetricsEntries);
      }
      encode_metrics_reply(out, seq, reply);
      return;
    }

    default:
      error_replies_.fetch_add(1, std::memory_order_relaxed);
      encode_error(out, seq,
                   {.code = ErrorCode::kUnknownType,
                    .message = std::string("not a request: ") +
                               to_string(frame.header.type)});
      return;
  }
  // A known request type whose payload failed validation.
  error_replies_.fetch_add(1, std::memory_order_relaxed);
  encode_error(out, seq,
               {.code = ErrorCode::kBadRequest,
                .message = std::string("malformed ") +
                           to_string(frame.header.type) + " payload"});
}

bool Server::flush_writes(Connection& c) {
  const bool trace = stage_flush_ != nullptr && should_trace();
  if (!trace) return flush_writes_impl(c);
  const std::uint64_t start = now_ns();
  const bool alive = flush_writes_impl(c);
  stage_flush_->record(now_ns() - start);
  return alive;
}

bool Server::flush_writes_impl(Connection& c) {
  // One vectored writev per syscall, coalescing up to kIovBatch framed
  // replies (IOV_MAX-capped). The front entry may be partially sent from
  // an earlier backpressured flush (outbox_off).
  c.want_write = false;
  while (!c.outbox.empty()) {
    iovec iov[kIovBatch];
    std::size_t cnt = 0;
    for (const std::vector<std::uint8_t>& reply : c.outbox) {
      const std::size_t skip = cnt == 0 ? c.outbox_off : 0;
      iov[cnt].iov_base = const_cast<std::uint8_t*>(reply.data()) + skip;
      iov[cnt].iov_len = reply.size() - skip;
      if (++cnt == kIovBatch) break;
    }
    const ssize_t n = ::writev(c.fd, iov, static_cast<int>(cnt));
    if (n > 0) {
      writev_calls_.fetch_add(1, std::memory_order_relaxed);
      std::size_t advanced = static_cast<std::size_t>(n);
      c.buffered -= advanced;
      while (advanced > 0) {
        const std::size_t left = c.outbox.front().size() - c.outbox_off;
        if (advanced < left) {
          c.outbox_off += advanced;
          break;
        }
        advanced -= left;
        c.outbox.pop_front();
        c.outbox_off = 0;
        writev_replies_.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      c.want_write = true;  // EPOLLOUT resumes the drain
      return true;
    }
    return false;  // the peer went away
  }
  return true;
}

void Server::arm(Reactor& r, Connection& c) {
  // Stop reading while paused, and on a half-closed socket for good: it
  // stays permanently readable, so leaving EPOLLIN armed would spin the
  // level-triggered loop while the replies drain.
  const std::uint32_t want =
      (c.eof || c.paused ? 0u : static_cast<std::uint32_t>(EPOLLIN)) |
      (c.want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  if (want == c.armed) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = c.fd;
  if (::epoll_ctl(r.epoll_fd, EPOLL_CTL_MOD, c.fd, &ev) == 0) c.armed = want;
}

}  // namespace icgmm::net

#include "net/server.hpp"

#include <fcntl.h>
#include <limits.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <system_error>
#include <thread>
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

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

/// Per-connection state. The I/O thread owns `in` (the partial byte
/// stream) exclusively; everything under `mu` is shared between the I/O
/// thread and the workers completing the connection's requests.
struct Server::Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  const int fd;

  /// Partial inbound byte stream; I/O thread only.
  std::vector<std::uint8_t> in;

  std::mutex mu;
  // --- guarded by mu ---
  /// Framed replies in completion order, drained by vectored writev.
  std::deque<std::vector<std::uint8_t>> outbox;
  std::size_t outbox_off = 0;  ///< bytes of outbox.front() already sent
  /// Requests dispatched to the pool and not yet completed. The worker
  /// that takes this to zero flushes the outbox — so concurrent
  /// completions coalesce into one writev instead of racing the socket.
  std::uint32_t pending = 0;
  /// Unsent outbox bytes plus the charges of pending requests, held
  /// against kMaxBufferedBytes.
  std::size_t buffered = 0;
  std::uint32_t armed = EPOLLIN;  ///< epoll interest currently registered
  bool want_write = false;  ///< a flush hit EAGAIN; wait for EPOLLOUT
  /// At the buffer cap: not reading, and `in` may still hold frames.
  bool paused = false;
  bool eof = false;   ///< peer FIN seen; close once drained
  bool dead = false;  ///< deregistered; drop work, never write

  bool drained() const {  // call with mu held
    return !paused && pending == 0 && outbox.empty();
  }
};

Server::Server(runtime::Runtime& rt, ServerConfig cfg)
    : rt_(rt), cfg_(cfg) {
  obs::MetricsRegistry& metrics = rt_.metrics();
  if (cfg_.trace_sample != 0) {
    stage_decode_ = &metrics.histogram("icgmm_server_stage_decode_ns");
    stage_queue_ = &metrics.histogram("icgmm_server_stage_queue_ns");
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
  try {
    start_impl();
  } catch (...) {
    // Partial setup (e.g. bind EADDRINUSE after socket()) must not leak
    // fds — a caller retrying ports would otherwise creep toward EMFILE.
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = -1;
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

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) throw_errno("eventfd");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
    throw_errno("epoll_ctl(listen)");
  }
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    throw_errno("epoll_ctl(wake)");
  }

  started_ = true;
  running_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { io_loop(); });
  workers_.reserve(cfg_.workers);
  for (std::uint32_t i = 0; i < cfg_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void Server::stop() {
  if (!started_) return;
  running_.store(false, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  if (io_thread_.joinable()) io_thread_.join();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      queue_.push_back(Work{});  // stop tokens (null conn)
    }
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(revisit_mu_);
    revisit_queue_.clear();  // entries are still in conns_, closed below
  }
  // Connections still open close like any other: counted, and announced
  // with one kConnClose each (the io thread is gone, so this is the only
  // thread touching conns_). Sockets close as the last references drop.
  while (!conns_.empty()) {
    const ConnPtr conn = conns_.begin()->second;  // erased by the close
    close_connection(conn);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = -1;
  started_ = false;
}

ServerStats Server::stats() const noexcept {
  return {.connections_accepted = accepted_.load(std::memory_order_relaxed),
          .connections_closed = closed_.load(std::memory_order_relaxed),
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

void Server::io_loop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (running_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone — shutting down
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drain;
        while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
        }
        continue;  // running_ re-checked by the loop condition
      }
      if (fd == listen_fd_) {
        accept_ready();
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // closed earlier this wake-up
      const ConnPtr conn = it->second;
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        close_connection(conn);
        continue;
      }
      if (events[i].events & EPOLLOUT) flush_writes(conn);
      if (events[i].events & EPOLLIN) read_ready(conn);
    }
    // Connections whose state changed since the last wake (queued by
    // flush_writes, signalled via wake_fd_): close the drained EOF'd
    // ones, resume reading the ones back under the buffer cap.
    std::vector<ConnPtr> to_revisit;
    {
      std::lock_guard<std::mutex> lock(revisit_mu_);
      to_revisit.swap(revisit_queue_);
    }
    for (const ConnPtr& conn : to_revisit) revisit(conn);
  }
}

void Server::accept_ready() {
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      // Persistent failure (EMFILE/ENFILE/ENOBUFS): the pending
      // connection keeps the listen fd readable, so returning immediately
      // would make the level-triggered epoll loop spin at 100% CPU. Back
      // off briefly and let an fd free up.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      return;
    }
    if (conns_.size() >= cfg_.max_connections) {
      ::close(fd);  // at capacity: refuse
      continue;
    }
    set_nodelay(fd);
    auto conn = std::make_shared<Connection>(fd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      continue;  // conn destructor closes fd
    }
    conns_.emplace(fd, std::move(conn));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    if (cfg_.events != nullptr) {
      cfg_.events->emit(obs::EventType::kConnOpen,
                        static_cast<std::uint64_t>(fd));
    }
  }
}

void Server::read_ready(const ConnPtr& conn) {
  // Drain the socket (level-triggered epoll would re-notify, but fewer
  // wake-ups means fewer epoll_wait syscalls under load).
  char buf[16 * 1024];
  while (true) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->in.insert(conn->in.end(), buf, buf + n);
      if (conn->in.size() > kMaxFrameBytes + sizeof(buf)) {
        break;  // stop reading; frame the backlog first
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // EOF or a hard socket error. A client that pipelines requests and
    // then half-closes (FIN) is still owed its replies: process_input
    // serves what arrived, and the connection closes once drained.
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->eof = true;
    break;
  }
  process_input(conn);
}

void Server::process_input(const ConnPtr& conn) {
  // Slice complete frames off the stream front. Each is dispatched as its
  // own work item any worker may complete, or served right here when
  // there are no workers, until the stream runs dry or the connection
  // holds kMaxBufferedBytes.
  const bool trace_decode = stage_decode_ != nullptr && should_trace();
  const std::uint64_t decode_start = trace_decode ? now_ns() : 0;
  std::size_t off = 0;
  bool poisoned = false;
  bool paused = false;
  std::size_t dispatched = 0;
  std::size_t served_inline = 0;
  while (true) {
    Frame frame;
    std::size_t consumed = 0;
    const DecodeStatus st = decode_frame(
        std::span<const std::uint8_t>(conn->in).subspan(off), frame, consumed);
    if (st == DecodeStatus::kNeedMore) break;
    if (st != DecodeStatus::kOk) {
      poisoned = true;
      break;
    }
    const auto frame_bytes =
        std::span<const std::uint8_t>(conn->in).subspan(off, consumed);
    // A 24-byte METRICS request can fetch a reply of up to a maximal
    // frame; charging that up front keeps the cap a bound on replies too.
    const std::size_t charge =
        frame.header.type == MsgType::kMetrics ? kMaxFrameBytes : consumed;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->buffered + charge > kMaxBufferedBytes) {
        conn->paused = paused = true;  // the frame stays in `in`
        break;
      }
      if (!workers_.empty()) {
        conn->buffered += charge;
        ++conn->pending;
        note_buffered(conn->buffered);
      }
    }
    if (!workers_.empty()) {
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        queue_.push_back(Work{
            conn,
            std::vector<std::uint8_t>(frame_bytes.begin(), frame_bytes.end()),
            charge, stage_queue_ != nullptr && should_trace() ? now_ns() : 0});
      }
      ++dispatched;
    } else {
      // Inline mode: complete in arrival order on the I/O thread; the
      // replies still coalesce into one writev after the slice loop.
      std::vector<std::uint8_t> reply;
      serve_frame(frame_bytes, reply);
      frames_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->buffered += reply.size();
      note_buffered(conn->buffered);
      conn->outbox.push_back(std::move(reply));
      ++served_inline;
    }
    off += consumed;
  }
  if (off > 0) conn->in.erase(conn->in.begin(), conn->in.begin() + off);

  // One decode sample covers the whole slice loop of this read batch —
  // framing cost per socket drain, not per frame.
  if (trace_decode && dispatched + served_inline > 0) {
    stage_decode_->record(now_ns() - decode_start);
  }
  if (dispatched == 1) {
    queue_cv_.notify_one();
  } else if (dispatched > 1) {
    queue_cv_.notify_all();
  }
  if (poisoned) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    if (cfg_.events != nullptr) {
      cfg_.events->emit(obs::EventType::kProtocolError,
                        static_cast<std::uint64_t>(conn->fd));
    }
    close_connection(conn);
    return;
  }
  if (paused) {
    read_pauses_.fetch_add(1, std::memory_order_relaxed);
    if (cfg_.events != nullptr) {
      cfg_.events->emit(obs::EventType::kReadPause,
                        static_cast<std::uint64_t>(conn->fd));
    }
  }
  if (served_inline > 0) flush_writes(conn);
  bool close = false;
  {
    // Stop reading while paused, and on a half-closed socket for good: it
    // stays permanently readable, so leaving EPOLLIN armed would spin the
    // level-triggered loop while the replies drain.
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->dead) return;
    close = conn->eof && conn->drained();
    if (!close) arm_locked(*conn);
  }
  if (close) close_connection(conn);
}

void Server::revisit(const ConnPtr& conn) {
  bool close = false;
  bool resume = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->dead) return;
    close = conn->eof && conn->drained();
    resume = conn->paused && conn->buffered < kMaxBufferedBytes / 2;
    if (resume) conn->paused = false;
  }
  if (close) {
    close_connection(conn);
  } else if (resume) {
    process_input(conn);  // the frames left in `in`, then reads again
  }
}

void Server::close_connection(const ConnPtr& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->dead) return;
    conn->dead = true;
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  conns_.erase(conn->fd);
  closed_.fetch_add(1, std::memory_order_relaxed);
  if (cfg_.events != nullptr) {
    cfg_.events->emit(obs::EventType::kConnClose,
                      static_cast<std::uint64_t>(conn->fd));
  }
  // The socket itself closes when the last reference (possibly a worker
  // mid-drain) drops — never before, so the fd number cannot be reused
  // while a worker might still write to it.
}

void Server::worker_loop() {
  while (true) {
    Work work;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return !queue_.empty(); });
      work = std::move(queue_.front());
      queue_.pop_front();
    }
    if (!work.conn) return;  // stop token
    if (work.enqueue_ns != 0 && stage_queue_ != nullptr) {
      stage_queue_->record(now_ns() - work.enqueue_ns);
    }
    serve_work(work);
  }
}

void Server::serve_work(Work& work) {
  const ConnPtr& conn = work.conn;
  bool dead;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    dead = conn->dead;
  }
  std::vector<std::uint8_t> reply;
  if (!dead) {
    serve_frame(work.frame, reply);
    frames_.fetch_add(1, std::memory_order_relaxed);
  }
  bool last_completer;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->buffered -= work.charge;
    if (!conn->dead) {
      conn->buffered += reply.size();
      note_buffered(conn->buffered);
      conn->outbox.push_back(std::move(reply));
    }
    --conn->pending;
    // Only the completion that empties the in-flight set flushes: every
    // sibling reply finished in the meantime rides the same writev, and
    // two workers never contend on send() for one socket.
    last_completer = conn->pending == 0;
  }
  if (last_completer) flush_writes(conn);
}

void Server::serve_frame(std::span<const std::uint8_t> frame_bytes,
                         std::vector<std::uint8_t>& out) {
  Frame frame;
  std::size_t consumed = 0;
  const DecodeStatus st = decode_frame(frame_bytes, frame, consumed);
  assert(st == DecodeStatus::kOk);  // process_input only takes whole frames
  if (st != DecodeStatus::kOk) return;
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

void Server::flush_writes(const ConnPtr& conn) {
  const bool trace = stage_flush_ != nullptr && should_trace();
  if (!trace) {
    flush_writes_impl(conn);
    return;
  }
  const std::uint64_t start = now_ns();
  flush_writes_impl(conn);
  stage_flush_->record(now_ns() - start);
}

void Server::flush_writes_impl(const ConnPtr& conn) {
  std::lock_guard<std::mutex> lock(conn->mu);
  if (conn->dead) return;
  // One vectored writev per syscall, coalescing up to kIovBatch framed
  // replies (IOV_MAX-capped). The front entry may be partially sent from
  // an earlier backpressured flush (outbox_off).
  bool blocked = false;
  while (!conn->outbox.empty()) {
    iovec iov[kIovBatch];
    std::size_t cnt = 0;
    for (const std::vector<std::uint8_t>& reply : conn->outbox) {
      const std::size_t skip = cnt == 0 ? conn->outbox_off : 0;
      iov[cnt].iov_base = const_cast<std::uint8_t*>(reply.data()) + skip;
      iov[cnt].iov_len = reply.size() - skip;
      if (++cnt == kIovBatch) break;
    }
    const ssize_t n = ::writev(conn->fd, iov, static_cast<int>(cnt));
    if (n > 0) {
      writev_calls_.fetch_add(1, std::memory_order_relaxed);
      std::size_t advanced = static_cast<std::size_t>(n);
      conn->buffered -= advanced;
      while (advanced > 0) {
        const std::size_t left =
            conn->outbox.front().size() - conn->outbox_off;
        if (advanced < left) {
          conn->outbox_off += advanced;
          break;
        }
        advanced -= left;
        conn->outbox.pop_front();
        conn->outbox_off = 0;
        writev_replies_.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      blocked = true;  // EPOLLOUT resumes the drain
      break;
    }
    return;  // peer went away; epoll reports ERR/HUP and the I/O thread closes
  }
  conn->want_write = blocked;
  arm_locked(*conn);
  // The I/O thread closes a drained EOF'd connection (the peer already
  // FIN'd and its last reply byte is out) and resumes reading a paused
  // one once this flush took it below half the cap.
  if ((conn->eof && conn->drained()) ||
      (conn->paused && conn->buffered < kMaxBufferedBytes / 2)) {
    request_revisit_locked(conn);
  }
}

void Server::arm_locked(Connection& conn) {
  if (conn.dead) return;
  const std::uint32_t want =
      (conn.eof || conn.paused ? 0u : static_cast<std::uint32_t>(EPOLLIN)) |
      (conn.want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  if (want == conn.armed) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = conn.fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) == 0) {
    conn.armed = want;
  }
}

void Server::request_revisit_locked(const ConnPtr& conn) {
  if (conn->dead) return;
  {
    std::lock_guard<std::mutex> lock(revisit_mu_);
    revisit_queue_.push_back(conn);
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

}  // namespace icgmm::net

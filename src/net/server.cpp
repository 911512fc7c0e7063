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
/// thread and whichever worker currently has the connection scheduled.
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
  std::deque<std::vector<std::uint8_t>> inbox;  ///< v1 frames, arrival order
  std::vector<std::uint8_t> out;                ///< v1 pending reply bytes
  std::size_t out_off = 0;
  /// v2 framed replies in completion order, drained by vectored writev.
  std::deque<std::vector<std::uint8_t>> outbox;
  std::size_t outbox_off = 0;  ///< bytes of outbox.front() already sent
  /// v2 requests dispatched to the pool and not yet completed. The worker
  /// that takes this to zero flushes the outbox — so concurrent
  /// completions coalesce into one writev instead of racing the socket.
  std::uint32_t v2_pending = 0;
  bool scheduled = false;   ///< v1 inbox queued or being drained by a worker
  bool want_write = false;  ///< EPOLLOUT armed
  bool eof = false;         ///< peer FIN seen; close once drained
  bool dead = false;        ///< deregistered; drop work, never write

  bool drained() const {  // call with mu held
    return inbox.empty() && !scheduled && v2_pending == 0 && outbox.empty() &&
           out_off >= out.size();
  }
};

Server::Server(runtime::Runtime& rt, ServerConfig cfg)
    : rt_(rt), cfg_(cfg) {
  if (cfg_.metrics != nullptr) {
    if (cfg_.trace_sample != 0) {
      stage_decode_ =
          &cfg_.metrics->histogram("icgmm_server_stage_decode_ns");
      stage_queue_ = &cfg_.metrics->histogram("icgmm_server_stage_queue_ns");
      stage_apply_ = &cfg_.metrics->histogram("icgmm_server_stage_apply_ns");
      stage_flush_ = &cfg_.metrics->histogram("icgmm_server_stage_flush_ns");
    }
    provider_id_ = cfg_.metrics->add_provider(
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
        });
  }
}

Server::~Server() {
  // Drop the provider before any member goes away: a concurrent scrape
  // holds the registry mutex while calling it, so after remove_provider
  // returns no scrape can touch this object again.
  if (provider_id_ != 0) cfg_.metrics->remove_provider(provider_id_);
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
    std::lock_guard<std::mutex> lock(close_mu_);
    close_queue_.clear();  // entries are still in conns_, closed below
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
          .writev_replies = writev_replies_.load(std::memory_order_relaxed)};
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
      if (events[i].events & EPOLLOUT) write_ready(conn);
      if (events[i].events & EPOLLIN) read_ready(conn);
    }
    // Close EOF'd connections whose drain completed since the last wake
    // (queued by flush_writes from a worker, signalled via wake_fd_).
    std::vector<ConnPtr> to_close;
    {
      std::lock_guard<std::mutex> lock(close_mu_);
      to_close.swap(close_queue_);
    }
    for (const ConnPtr& conn : to_close) close_connection(conn);
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
  bool eof = false;
  while (true) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->in.insert(conn->in.end(), buf, buf + n);
      if (conn->in.size() > kHeaderBytesV2 + kMaxPayload + sizeof(buf)) {
        break;  // stop reading; frame the backlog first
      }
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    eof = true;  // hard socket error
    break;
  }

  // Slice complete frames off the stream front, dispatching each by the
  // version it arrived with: v1 into the order-preserving inbox, v2 as
  // an individual work item any worker may complete.
  const bool trace_decode = stage_decode_ != nullptr && should_trace();
  const std::uint64_t decode_start = trace_decode ? now_ns() : 0;
  std::size_t off = 0;
  bool poisoned = false;
  bool got_v1 = false;
  bool got_v2_inline = false;
  std::size_t v2_dispatched = 0;
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
    if (frame.header.version == kProtocolV2 && !workers_.empty()) {
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        ++conn->v2_pending;
      }
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        queue_.push_back(Work{
            conn,
            std::vector<std::uint8_t>(frame_bytes.begin(), frame_bytes.end()),
            stage_queue_ != nullptr && should_trace() ? now_ns() : 0});
      }
      ++v2_dispatched;
    } else if (frame.header.version == kProtocolV2) {
      // Inline mode: complete in arrival order on the I/O thread; the
      // replies still coalesce into one writev after the slice loop.
      std::vector<std::uint8_t> reply;
      serve_frame(frame_bytes, reply);
      frames_.fetch_add(1, std::memory_order_relaxed);
      if (!reply.empty()) {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->outbox.push_back(std::move(reply));
      }
      got_v2_inline = true;
    } else {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->inbox.emplace_back(frame_bytes.begin(), frame_bytes.end());
      got_v1 = true;
    }
    off += consumed;
  }
  if (off > 0) conn->in.erase(conn->in.begin(), conn->in.begin() + off);

  // One decode sample covers the whole slice loop of this read batch —
  // framing cost per socket drain, not per frame.
  if (trace_decode && (got_v1 || got_v2_inline || v2_dispatched > 0)) {
    stage_decode_->record(now_ns() - decode_start);
  }
  if (v2_dispatched == 1) {
    queue_cv_.notify_one();
  } else if (v2_dispatched > 1) {
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
  if (got_v1) {
    if (workers_.empty()) {
      serve_connection(conn);  // inline mode
    } else {
      enqueue_ready(conn);
    }
  }
  if (got_v2_inline) flush_writes(conn);
  if (eof) {
    // A client that pipelines requests and then half-closes (FIN) is
    // still owed its replies. Close immediately only if nothing is
    // pending; otherwise mark eof and silence EPOLLIN — a half-closed
    // socket stays permanently readable, so leaving it armed would spin
    // the level-triggered loop at 100% CPU while a worker drains. The
    // drain's final flush_writes requeues the close through wake_fd_.
    bool drained;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      drained = conn->drained();
      if (!drained) {
        conn->eof = true;
        epoll_event ev{};
        ev.events = conn->want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u;
        ev.data.fd = conn->fd;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
      }
    }
    if (drained) close_connection(conn);
  }
}

void Server::enqueue_ready(const ConnPtr& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->scheduled || conn->inbox.empty() || conn->dead) return;
    conn->scheduled = true;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.push_back(Work{
        conn, {}, stage_queue_ != nullptr && should_trace() ? now_ns() : 0});
  }
  queue_cv_.notify_one();
}

void Server::write_ready(const ConnPtr& conn) { flush_writes(conn); }

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
    if (work.frame.empty()) {
      serve_connection(work.conn);  // v1: drain the inbox in order
    } else {
      serve_v2_frame(work.conn, work.frame);  // v2: one request, any order
    }
  }
}

void Server::serve_v2_frame(const ConnPtr& conn,
                            std::span<const std::uint8_t> frame_bytes) {
  bool dead;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    dead = conn->dead;
  }
  std::vector<std::uint8_t> reply;
  if (!dead) {
    serve_frame(frame_bytes, reply);
    frames_.fetch_add(1, std::memory_order_relaxed);
  }
  bool last_completer;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (!reply.empty() && !conn->dead) {
      conn->outbox.push_back(std::move(reply));
    }
    --conn->v2_pending;
    // Only the completion that empties the in-flight set flushes: every
    // sibling reply finished in the meantime rides the same writev, and
    // two workers never contend on send() for one socket.
    last_completer = conn->v2_pending == 0;
  }
  if (last_completer) flush_writes(conn);
}

void Server::serve_connection(const ConnPtr& conn) {
  std::vector<std::uint8_t> reply;
  while (true) {
    std::vector<std::uint8_t> frame_bytes;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->inbox.empty() || conn->dead) {
        conn->scheduled = false;
        break;
      }
      frame_bytes = std::move(conn->inbox.front());
      conn->inbox.pop_front();
    }
    reply.clear();
    serve_frame(frame_bytes, reply);
    frames_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->out.insert(conn->out.end(), reply.begin(), reply.end());
    }
  }
  flush_writes(conn);
}

void Server::serve_frame(std::span<const std::uint8_t> frame_bytes,
                         std::vector<std::uint8_t>& out) {
  Frame frame;
  std::size_t consumed = 0;
  const DecodeStatus st = decode_frame(frame_bytes, frame, consumed);
  assert(st == DecodeStatus::kOk);  // read_ready only enqueues whole frames
  if (st != DecodeStatus::kOk) return;
  // Replies go back in the version (and with the id) the request carried.
  const std::uint64_t seq = frame.header.seq;
  const std::uint8_t version = frame.header.version;

  switch (frame.header.type) {
    case MsgType::kPing:
      if (decode_empty(frame) != DecodeStatus::kOk) break;
      encode_pong(out, seq, version);
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
                           .dirty_evictions = outcome.dirty_evictions},
                          version);
      return;
    }

    case MsgType::kStats: {
      if (decode_empty(frame) != DecodeStatus::kOk) break;
      const runtime::RuntimeSnapshot snap = rt_.snapshot();
      StatsReply reply;
      reply.accesses = snap.merged.accesses;
      reply.hits = snap.merged.hits;
      reply.read_misses = snap.merged.read_misses;
      reply.write_misses = snap.merged.write_misses;
      reply.fills = snap.merged.fills;
      reply.bypasses = snap.merged.bypasses;
      reply.evictions = snap.merged.evictions;
      reply.dirty_evictions = snap.merged.dirty_evictions;
      reply.inferences = snap.inferences;
      reply.score_batches = snap.score_batches;
      reply.model_version = snap.model_version;
      reply.models_published = snap.models_published;
      reply.records_written = snap.records_written;
      reply.records_dropped = snap.records_dropped;
      reply.record_chunks = snap.record_chunks;
      reply.shadow_accesses = snap.shadow_accesses;
      reply.shadow_hits = snap.shadow_hits;
      reply.shadow_misses = snap.shadow_misses;
      reply.shadow_divergence = snap.shadow_divergence;
      reply.shadow_dropped = snap.shadow_dropped;
      encode_stats_reply(out, seq, reply, version);
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
      encode_model_info_reply(out, seq, reply, version);
      return;
    }

    case MsgType::kFlush:
      if (decode_empty(frame) != DecodeStatus::kOk) break;
      rt_.clear_stats();
      encode_flush_reply(out, seq, version);
      return;

    case MsgType::kMetrics: {
      if (decode_empty(frame) != DecodeStatus::kOk) break;
      MetricsReply reply;
      if (cfg_.metrics != nullptr) {
        for (obs::MetricsRegistry::Sample& s : cfg_.metrics->collect()) {
          reply.entries.push_back({std::move(s.name), s.value});
        }
        // The wire caps entries; a registry past it loses the tail
        // (collect() is name-sorted, so truncation is deterministic).
        if (reply.entries.size() > kMaxMetricsEntries) {
          reply.entries.resize(kMaxMetricsEntries);
        }
      }
      encode_metrics_reply(out, seq, reply, version);
      return;
    }

    default:
      error_replies_.fetch_add(1, std::memory_order_relaxed);
      encode_error(out, seq,
                   {.code = ErrorCode::kUnknownType,
                    .message = std::string("not a request: ") +
                               to_string(frame.header.type)},
                   version);
      return;
  }
  // A known request type whose payload failed validation.
  error_replies_.fetch_add(1, std::memory_order_relaxed);
  encode_error(out, seq,
               {.code = ErrorCode::kBadRequest,
                .message = std::string("malformed ") +
                           to_string(frame.header.type) + " payload"},
               version);
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
  while (conn->out_off < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data() + conn->out_off,
               conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->want_write) {
        epoll_event ev{};
        // Never re-arm EPOLLIN on a half-closed socket (permanently
        // readable — it would spin the level-triggered loop).
        ev.events = (conn->eof ? 0u : static_cast<std::uint32_t>(EPOLLIN)) |
                    EPOLLOUT;
        ev.data.fd = conn->fd;
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
          conn->want_write = true;
        }
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    return;  // peer went away; epoll reports ERR/HUP and the I/O thread closes
  }
  conn->out.clear();
  conn->out_off = 0;
  // v2 outbox: one vectored writev per syscall, coalescing up to
  // kIovBatch framed replies (IOV_MAX-capped). The front entry may be
  // partially sent from an earlier backpressured flush (outbox_off).
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
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->want_write) {
        epoll_event ev{};
        ev.events = (conn->eof ? 0u : static_cast<std::uint32_t>(EPOLLIN)) |
                    EPOLLOUT;
        ev.data.fd = conn->fd;
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
          conn->want_write = true;
        }
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    return;  // peer went away; epoll reports ERR/HUP and the I/O thread closes
  }
  if (conn->eof) {
    // The peer already FIN'd and its last reply byte is out: hand the
    // connection to the I/O thread for closing (never re-arm EPOLLIN on
    // a half-closed socket — that is the busy-spin this path avoids).
    if (conn->inbox.empty() && !conn->scheduled && conn->v2_pending == 0) {
      request_close_locked(conn);
    }
    return;
  }
  if (conn->want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = conn->fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
      conn->want_write = false;
    }
  }
}

void Server::request_close_locked(const ConnPtr& conn) {
  if (conn->dead) return;
  {
    std::lock_guard<std::mutex> lock(close_mu_);
    close_queue_.push_back(conn);
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

}  // namespace icgmm::net

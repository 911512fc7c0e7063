// Epoll-based non-blocking TCP serving frontend over a runtime::Runtime.
//
//   clients --> accept (reactor 0) --round-robin--> reactor i of N
//                                                       |
//       each reactor, on its own thread, for the connections it owns:
//                                                       v
//            recv --> per-connection stream buffer --> frame decoder
//                                                       |
//                                                       v
//            Runtime::apply_batch(span<Access>)   (one wire batch = one
//                                                       |   span through
//                                                       v   the miss path)
//            per-connection outbox --> writev, EPOLLOUT on backpressure
//
// `workers` is the number of serving threads. Each is an epoll reactor
// with its own epoll set, eventfd and connections. Reactor 0 also owns
// the listen socket and hands the i-th accepted socket to reactor
// i mod N through that reactor's inbox. A connection lives and dies on
// its reactor: every frame it sends is decoded, served and answered
// there, inline, in arrival order, so nothing about a connection is
// shared between threads and it needs no lock. Replies still echo the
// request's u64 id (the protocol allows any reply order); this server
// simply answers each connection in order. Connections on different
// reactors are served in parallel against the one runtime.
//
// The frames one read pass slices off the stream are served back to
// back, and their replies leave in one vectored `writev` (up to IOV_MAX
// framed replies per syscall), so a burst of pipelined requests costs
// one write syscall, not one per reply.
//
// What one connection can make the server hold is bounded: reply bytes
// waiting in its outbox stay within kMaxBufferedBytes. At the cap the
// reactor stops reading the connection (a client that never reads its
// replies stalls itself, not the server's memory) and resumes once a
// flush takes it below half, serving the frames left in its stream
// buffer first.
//
// Framing errors (bad magic/version, oversized declared length,
// unparseable payload) poison the byte stream: the server counts a
// protocol error and closes that connection. Well-framed but
// unserviceable requests get an ERROR reply and the connection lives on.
//
// Counters go out by name through the runtime's registry
// (Runtime::metrics()): the server registers its ServerStats there, so
// the METRICS verb and /metrics carry server and runtime counters alike.
//
// Linux-only (epoll, eventfd, accept4).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/protocol.hpp"
#include "obs/event_ring.hpp"
#include "obs/histogram.hpp"
#include "runtime/runtime.hpp"

namespace icgmm::net {

struct ServerConfig {
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Accept from any interface (default: loopback only).
  bool bind_any = false;
  /// Serving threads (epoll reactors), at least 1; each serves the
  /// connections handed to it.
  std::uint32_t workers = 1;
  /// Live connections across all reactors; further accepts are refused.
  std::uint32_t max_connections = 256;
  int listen_backlog = 64;
  /// Optional flight recorder (not owned; must outlive the server).
  obs::EventRing* events = nullptr;
  /// Per-stage tracing into the runtime's registry
  /// (icgmm_server_stage_{decode,apply,flush}_ns): record 1 in N
  /// stage timings (1 = every one, 0 = tracing off, no clock reads).
  /// Counters are always exact; sampling only thins the clock reads.
  std::uint32_t trace_sample = 0;
};

/// Most reply bytes one connection may hold unsent in the server (a
/// METRICS request counts as the largest reply it may fetch). Above it
/// the server stops reading the connection; below half it reads again.
/// Half of it exceeds one maximal frame, so after a resume any single
/// request fits.
inline constexpr std::size_t kMaxBufferedBytes = 4u << 20;
static_assert(kMaxBufferedBytes / 2 > kMaxFrameBytes);

/// Monitoring counters (relaxed atomics; exact at quiescence).
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  /// Sockets closed at accept because max_connections were live.
  std::uint64_t connections_refused = 0;
  std::uint64_t frames_served = 0;
  std::uint64_t requests_served = 0;  ///< individual accesses
  std::uint64_t protocol_errors = 0;  ///< stream-poison closes
  std::uint64_t error_replies = 0;    ///< well-framed ERROR replies
  // Vectored reply batching: writev_replies / writev_calls = average
  // replies coalesced per flush syscall.
  std::uint64_t writev_calls = 0;    ///< outbox flush syscalls issued
  std::uint64_t writev_replies = 0;  ///< framed replies fully written by them
  /// Times a connection hit kMaxBufferedBytes and stopped being read.
  std::uint64_t read_pauses = 0;
  /// Most bytes any one connection held buffered (see kMaxBufferedBytes).
  std::uint64_t buffered_bytes_max = 0;
};

class Server {
 public:
  /// Serves `rt` (not owned; must outlive the server). One server per
  /// runtime: its counters register in the runtime's registry under
  /// fixed names.
  Server(runtime::Runtime& rt, ServerConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the reactor threads. Throws
  /// std::invalid_argument when cfg.workers is 0, std::system_error on
  /// socket/bind failure. Not restartable.
  void start();

  /// Graceful shutdown: stop accepting, join the reactors, close
  /// connections. Idempotent; the destructor calls it.
  void stop();

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Actual bound port (resolves ephemeral binds); valid after start().
  std::uint16_t port() const noexcept { return port_; }

  ServerStats stats() const noexcept;

 private:
  struct Connection;
  struct Reactor;

  void start_impl();
  void reactor_loop(Reactor& r);
  /// Reactor 0 only: accepts what the listen socket holds and hands each
  /// socket to the next reactor's inbox. An accept that fails for want of
  /// a descriptor takes the listen socket out of `r`'s epoll set for a
  /// back-off, so `r` keeps serving its own connections.
  void accept_ready(Reactor& r);
  /// Registers the sockets handed to `r` since its last wake.
  void adopt_inbox(Reactor& r);
  /// Reads what the socket holds into the connection's stream buffer,
  /// then serves it (serve_input).
  void read_ready(Reactor& r, Connection& c);
  /// Slices complete frames off the connection's stream buffer, serves
  /// each, flushes the replies, and re-arms the connection: reading
  /// unless at the buffer cap or EOF'd, EPOLLOUT while a flush is
  /// blocked. A paused connection below half the cap resumes here; a
  /// drained EOF'd or poisoned one closes. Returns false if it closed
  /// `c` (which is then gone).
  bool serve_input(Reactor& r, Connection& c);
  void close_connection(Reactor& r, Connection& c);
  /// Serves one decoded frame; its reply goes to the end of `out`.
  void serve_frame(const Frame& frame, std::vector<std::uint8_t>& out);
  /// Sends as much of the outbox as the socket accepts, via vectored
  /// writev; a blocked send sets want_write. Returns false when the peer
  /// is gone. flush_writes is the traced wrapper; _impl does the work.
  bool flush_writes(Connection& c);
  bool flush_writes_impl(Connection& c);
  /// Brings the connection's epoll interest in line with its state.
  static void arm(Reactor& r, Connection& c);
  /// Records a connection's buffered bytes against the high-water mark.
  void note_buffered(std::size_t bytes) noexcept;
  /// 1-in-N sampling gate shared by every traced stage; one relaxed
  /// fetch_add when N > 1, branch-only when N == 1.
  bool should_trace() noexcept;

  runtime::Runtime& rt_;
  ServerConfig cfg_;
  std::uint16_t port_ = 0;

  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  bool started_ = false;
  /// Built by start_impl before any thread runs; fixed until stop().
  std::vector<std::unique_ptr<Reactor>> reactors_;
  /// Sockets accepted so far; picks the next owner. Reactor 0 only.
  std::uint64_t next_owner_ = 0;

  mutable std::atomic<std::uint64_t> accepted_{0};
  mutable std::atomic<std::uint64_t> closed_{0};
  mutable std::atomic<std::uint64_t> frames_{0};
  mutable std::atomic<std::uint64_t> requests_{0};
  mutable std::atomic<std::uint64_t> protocol_errors_{0};
  mutable std::atomic<std::uint64_t> error_replies_{0};
  mutable std::atomic<std::uint64_t> writev_calls_{0};
  mutable std::atomic<std::uint64_t> writev_replies_{0};
  mutable std::atomic<std::uint64_t> read_pauses_{0};
  mutable std::atomic<std::uint64_t> refused_{0};
  mutable std::atomic<std::uint64_t> buffered_max_{0};

  // Per-stage latency histograms, resolved once from the runtime's
  // registry at construction (null when trace_sample is 0 — every trace
  // site checks).
  obs::ConcurrentHistogram* stage_decode_ = nullptr;
  obs::ConcurrentHistogram* stage_apply_ = nullptr;
  obs::ConcurrentHistogram* stage_flush_ = nullptr;
  std::atomic<std::uint64_t> trace_tick_{0};
  std::uint64_t provider_id_ = 0;
};

}  // namespace icgmm::net

// Epoll-based non-blocking TCP serving frontend over a runtime::Runtime.
//
//   clients --> accept --> per-connection read buffer --> frame decoder
//                                                              |
//                                                              v
//                        worker pool (N threads)  <--  one work item per frame
//                               |
//                               v
//                  Runtime::apply_batch(span<Access>)   (one wire batch =
//                               |                        one span through
//                               v                        the miss path)
//                  per-connection outbox --> writev, EPOLLOUT on backpressure
//
// One I/O thread owns the epoll set: it accepts, reads, frames, and
// flushes backpressured writes. Each complete frame becomes its own work
// item; ANY worker may complete ANY request of a connection, and each
// finished reply is pushed onto the connection's outbox in completion
// order (replies correlate by the echoed u64 request id, so order does
// not matter). The outbox is drained with a single vectored `writev` per
// syscall — up to IOV_MAX framed replies coalesced — by whichever thread
// completes the connection's last in-flight request (or by the I/O
// thread on EPOLLOUT backpressure), so a burst of pipelined requests
// costs one write syscall, not one per reply. Consequence worth
// restating: the server does NOT serialize a connection's requests —
// two pipelined ACCESS batches may interleave at the cache when there
// is more than one worker. Clients that need a happens-before (e.g. a
// FLUSH barrier) must drain their own outstanding ids first, which
// Client's sync RPCs do. Work items leave the queue first-in,
// first-out, so one worker serves a connection's frames in arrival
// order.
//
// `workers = 0` processes frames inline on the I/O thread (zero
// cross-thread handoff — the deterministic mode; frames then complete in
// arrival order by construction).
//
// What one connection can make the server hold is bounded: reply bytes
// waiting in its outbox plus request bytes dispatched and not yet served
// stay within kMaxBufferedBytes. At the cap the server stops reading the
// connection (a client that never reads its replies stalls itself, not
// the server's memory) and resumes once a flush takes it below half.
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
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
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
  /// Worker threads decoding/serving frames; 0 = serve inline on the I/O
  /// thread.
  std::uint32_t workers = 1;
  std::uint32_t max_connections = 256;
  int listen_backlog = 64;
  /// Optional flight recorder (not owned; must outlive the server).
  obs::EventRing* events = nullptr;
  /// Per-stage tracing into the runtime's registry
  /// (icgmm_server_stage_{decode,queue,apply,flush}_ns): record 1 in N
  /// stage timings (1 = every one, 0 = tracing off, no clock reads).
  /// Counters are always exact; sampling only thins the clock reads.
  std::uint32_t trace_sample = 0;
};

/// Most bytes one connection may hold buffered in the server: reply bytes
/// waiting in its outbox plus request bytes dispatched and not yet
/// served (a METRICS request counts as the largest reply it may fetch).
/// Above it the server stops reading the connection; below half it reads
/// again. It exceeds one maximal frame, so any single request fits.
inline constexpr std::size_t kMaxBufferedBytes = 4u << 20;
static_assert(kMaxBufferedBytes > kMaxFrameBytes);

/// Monitoring counters (relaxed atomics; exact at quiescence).
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
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

  /// Binds, listens, and spawns the I/O + worker threads. Throws
  /// std::system_error on socket/bind failure. Not restartable.
  void start();

  /// Graceful shutdown: stop accepting, drain workers, close connections.
  /// Idempotent; the destructor calls it.
  void stop();

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Actual bound port (resolves ephemeral binds); valid after start().
  std::uint16_t port() const noexcept { return port_; }

  ServerStats stats() const noexcept;

 private:
  struct Connection;
  using ConnPtr = std::shared_ptr<Connection>;

  struct Work;

  void start_impl();
  void io_loop();
  void worker_loop();
  void accept_ready();
  /// Reads what the socket holds into the connection's stream buffer,
  /// then frames it (process_input).
  void read_ready(const ConnPtr& conn);
  /// Slices complete frames off the connection's stream buffer and
  /// dispatches each (or serves it inline), until the buffer runs dry or
  /// the connection reaches kMaxBufferedBytes. I/O thread only.
  void process_input(const ConnPtr& conn);
  void close_connection(const ConnPtr& conn);
  /// Asks the I/O thread to look at a connection again: to close it once
  /// EOF'd and drained, or to resume reading it once below the resume
  /// mark (workers cannot touch conns_, the stream buffer or epoll
  /// teardown). Call with conn->mu held.
  void request_revisit_locked(const ConnPtr& conn);
  void revisit(const ConnPtr& conn);
  /// Completes one work item: serves the frame, pushes the reply onto
  /// the connection's outbox, and flushes when it was the last in-flight
  /// request (the "last completer flushes" rule — one writev covers every
  /// reply that piled up while siblings were still being served).
  void serve_work(Work& work);
  /// Serves one complete frame, appending the reply to `out`.
  void serve_frame(std::span<const std::uint8_t> frame_bytes,
                   std::vector<std::uint8_t>& out);
  /// Sends as much of the outbox as the socket accepts, via vectored
  /// writev, and arms EPOLLOUT for the remainder. Call with conn->mu NOT
  /// held. flush_writes is the traced wrapper; _impl does the work.
  void flush_writes(const ConnPtr& conn);
  void flush_writes_impl(const ConnPtr& conn);
  /// Brings the connection's epoll interest in line with its state:
  /// EPOLLIN unless EOF'd or paused, EPOLLOUT while a flush is blocked.
  /// Call with conn->mu held.
  void arm_locked(Connection& conn);
  /// Records a connection's buffered bytes against the high-water mark.
  void note_buffered(std::size_t bytes) noexcept;
  /// 1-in-N sampling gate shared by every traced stage; one relaxed
  /// fetch_add when N > 1, branch-only when N == 1.
  bool should_trace() noexcept;

  runtime::Runtime& rt_;
  ServerConfig cfg_;
  std::uint16_t port_ = 0;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: kicks epoll_wait on stop()

  std::atomic<bool> running_{false};
  bool started_ = false;
  std::thread io_thread_;
  std::vector<std::thread> workers_;

  // Work queue: each item is one owned frame, "complete this request on
  // conn", and any number may be in flight per connection at once.
  // conn == nullptr is a worker stop token.
  struct Work {
    ConnPtr conn;
    std::vector<std::uint8_t> frame;
    /// What the frame holds against the connection's buffer cap.
    std::size_t charge = 0;
    /// steady_clock nanos at enqueue when this item was sampled for
    /// queue-wait tracing; 0 = not sampled.
    std::uint64_t enqueue_ns = 0;
  };
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Work> queue_;

  // Live connections, keyed by fd. I/O thread only (no lock needed).
  std::unordered_map<int, ConnPtr> conns_;

  // Connections for the I/O thread to revisit on its next wake (see
  // request_revisit_locked). Guarded by revisit_mu_; never locked while
  // holding a conn->mu in the pop path (push holds conn->mu then
  // revisit_mu_ — one direction only).
  std::mutex revisit_mu_;
  std::vector<ConnPtr> revisit_queue_;

  mutable std::atomic<std::uint64_t> accepted_{0};
  mutable std::atomic<std::uint64_t> closed_{0};
  mutable std::atomic<std::uint64_t> frames_{0};
  mutable std::atomic<std::uint64_t> requests_{0};
  mutable std::atomic<std::uint64_t> protocol_errors_{0};
  mutable std::atomic<std::uint64_t> error_replies_{0};
  mutable std::atomic<std::uint64_t> writev_calls_{0};
  mutable std::atomic<std::uint64_t> writev_replies_{0};
  mutable std::atomic<std::uint64_t> read_pauses_{0};
  mutable std::atomic<std::uint64_t> buffered_max_{0};

  // Per-stage latency histograms, resolved once from the runtime's
  // registry at construction (null when trace_sample is 0 — every trace
  // site checks).
  obs::ConcurrentHistogram* stage_decode_ = nullptr;
  obs::ConcurrentHistogram* stage_queue_ = nullptr;
  obs::ConcurrentHistogram* stage_apply_ = nullptr;
  obs::ConcurrentHistogram* stage_flush_ = nullptr;
  std::atomic<std::uint64_t> trace_tick_{0};
  std::uint64_t provider_id_ = 0;
};

}  // namespace icgmm::net

// Blocking client for the ICGMM wire protocol: one TCP connection per
// Client, synchronous request/reply helpers, and explicit send/await
// halves so callers can pipeline several ACCESS_BATCH frames before
// collecting replies.
//
// Every request carries a u64 id and its reply echoes it. Replies may
// arrive in ANY order — the server completes a connection's requests on
// any worker as they finish — so the client correlates by id: replies to
// ids nobody is waiting for yet are parked, and the out-of-order safe
// await_access(id) / poll_any() primitives hand them out.
//
// All failures (connect/socket errors, unexpected EOF, malformed or
// uncorrelated replies, server ERROR frames, receive deadline expiry)
// surface as std::runtime_error / std::system_error.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/protocol.hpp"

namespace icgmm::net {

/// One finished request, as surfaced by the multiplexed primitives.
struct Completion {
  std::uint64_t id = 0;
  MsgType type = MsgType::kAccessReply;
  AccessReply access;  ///< valid when type == kAccessReply
};

class Client {
 public:
  /// Disconnected client; connect() to use.
  Client() = default;
  ~Client();

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Blocking TCP connect (IPv4 dotted-quad or "localhost"). Throws on
  /// failure.
  static Client connect(const std::string& host, std::uint16_t port);

  bool connected() const noexcept { return fd_ >= 0; }
  void close() noexcept;

  /// Optional receive deadline for every subsequent blocking receive
  /// (default off): a hung or stalled server then surfaces as a clean
  /// std::system_error(ETIMEDOUT) — and the connection closes, since a
  /// reply abandoned mid-wait leaves the stream unusable — instead of
  /// blocking forever. Zero or negative disables; throws
  /// std::system_error if setsockopt fails.
  void set_recv_timeout(std::chrono::milliseconds timeout);

  // --- synchronous round trips ---------------------------------------------
  // Each sync RPC first drains the ACCESS batches still in flight
  // (drain_outstanding): the server completes a connection's requests out
  // of order, so a FLUSH or METRICS would otherwise race the batches sent
  // before it. That makes a mid-pipeline METRICS or FLUSH a true barrier
  // (monitoring pollers, admin tools), at the cost of discarding the
  // drained replies' contents.

  /// PING/PONG round trip; throws if the server misbehaves.
  void ping();
  AccessReply access(std::span<const WireAccess> accesses);
  ModelInfoReply model_info();
  /// Scrape the server's metrics registry (name/value pairs). Match
  /// entries by name (MetricsReply::value), never by position.
  MetricsReply metrics();
  /// Admin: zero the server's statistics counters.
  void flush();

  // --- pipelining ------------------------------------------------------------
  // send_access() writes one ACCESS_BATCH frame and returns its id;
  // await_access_reply() blocks for the oldest unawaited batch, parking
  // replies to later ids that arrive first. Callers bound their own
  // window (the bench and loadgen keep <= depth outstanding).

  std::uint64_t send_access(std::span<const WireAccess> accesses);
  AccessReply await_access_reply();
  /// Unawaited ACCESS batches (sent, reply not yet claimed by a caller —
  /// a reply parked out of order still counts until awaited).
  std::uint32_t outstanding() const noexcept {
    return static_cast<std::uint32_t>(send_order_.size());
  }

  /// Fire-and-await-later PING: returns the id; the PONG surfaces through
  /// poll_any(). Lets a driver prove liveness (or force an out-of-order
  /// completion) without a pipeline barrier.
  std::uint64_t send_ping();
  /// Blocks for the reply to a specific outstanding ACCESS id, however
  /// late it arrives; replies to other ids received meanwhile are parked.
  AccessReply await_access(std::uint64_t id);
  /// Blocks for the next completion in arrival order (parked ones first)
  /// — the multiplexed drain primitive. Throws std::logic_error when
  /// nothing is outstanding.
  Completion poll_any();
  /// poll_any() with a deadline: the next completion, or nullopt once
  /// `deadline` passes with none. Sleeps in the kernel until about 1 ms
  /// before the deadline, then polls the socket without blocking, so it
  /// returns within microseconds of the deadline (the precision of
  /// precise_sleep_until) — an open-loop driver waits for its next send
  /// slot here and still sends on time.
  std::optional<Completion> poll_any_until(
      std::chrono::steady_clock::time_point deadline);

  /// Awaits (and discards) every outstanding ACCESS reply and pending
  /// PONG; returns how many ACCESS replies were drained. The sync RPCs
  /// call this implicitly; drivers that need the replies' contents must
  /// await them individually first.
  std::uint32_t drain_outstanding();

 private:
  /// Moves the next complete frame out of rx_ into `bytes`, if rx_ holds
  /// one; a malformed stream closes the connection and throws.
  bool take_frame(std::vector<std::uint8_t>& bytes);
  /// Reads what the socket has into rx_. Blocks (under the receive
  /// deadline) when `block`; otherwise returns false when nothing is
  /// waiting. Closes the connection and throws on EOF or a socket error.
  bool read_some(bool block);
  /// Reads until one complete frame is buffered; returns owned bytes.
  std::vector<std::uint8_t> recv_frame();
  void send_all(const std::vector<std::uint8_t>& bytes);
  /// Sync RPC: drains the pipeline, sends the frame `encode` appends for a
  /// fresh id, and returns the reply's bytes (`frame` views into them),
  /// which must be of `reply_type`.
  using RequestEncoder = void (*)(std::vector<std::uint8_t>&, std::uint64_t);
  std::vector<std::uint8_t> round_trip(RequestEncoder encode,
                                       MsgType reply_type, Frame& frame);
  /// Reads frames until `want_id` arrives (which must decode as
  /// `want_type`), parking completions for other ids.
  std::vector<std::uint8_t> await_frame(std::uint64_t want_id,
                                        MsgType want_type, Frame& frame);
  /// Decodes received frame bytes into `frame`; a failure closes the
  /// connection and throws.
  void decode_received(const std::vector<std::uint8_t>& bytes, Frame& frame);
  /// Classifies one received frame into a Completion, consuming its
  /// pending-set entry; throws on ERROR frames and unknown ids.
  Completion classify(const Frame& frame);
  /// The oldest parked completion, claimed.
  Completion take_parked();
  /// Classifies received frame bytes into a claimed Completion.
  Completion completion_of(const std::vector<std::uint8_t>& bytes);
  void forget_pending(std::uint64_t id);
  void apply_recv_timeout();

  int fd_ = -1;
  std::chrono::milliseconds recv_timeout_{0};
  std::uint64_t next_seq_ = 1;
  // Correlation state: ids in send order that no caller has awaited yet;
  // ids on the wire (reply not received); receipts nobody claimed.
  std::deque<std::uint64_t> send_order_;
  std::unordered_set<std::uint64_t> pending_access_;
  std::unordered_set<std::uint64_t> pending_pings_;
  std::unordered_map<std::uint64_t, Completion> parked_;
  std::vector<std::uint8_t> rx_;  ///< partial inbound stream
  std::vector<std::uint8_t> tx_;  ///< scratch encode buffer
};

/// Sleeps until `deadline` with sub-interval precision: coarse
/// sleep_until to ~1ms before the deadline, then a spin on the steady
/// clock. Raw sleep_until alone wakes at scheduler granularity (often
/// 50µs–1ms+), which makes open-loop pacing coarse above ~50k QPS — the
/// achieved rate silently sags below the target. The spin window costs at
/// most ~1ms of one core per launch, which an open-loop driver is
/// dedicating to pacing anyway. No-op when the deadline already passed.
void precise_sleep_until(std::chrono::steady_clock::time_point deadline);

/// How replay_stream paces and windows one connection's request stream.
struct ReplayOptions {
  std::size_t batch = 64;
  /// Max ACCESS_BATCH frames in flight (closed-loop window).
  std::size_t pipeline = 1;
  /// Send an admin FLUSH after exactly these many requests — value k
  /// means "flush after the first k requests", mirroring
  /// runtime::ReplayConfig::clear_points so a recorded capture with any
  /// number of FLUSH markers replays exactly. Must be sorted ascending
  /// (zeros and duplicates are ignored; points past the stream never
  /// fire). At each point the batch is split so the boundary is exact
  /// and the in-flight window is drained first, so the FLUSH lands
  /// between the last request before it and the first after — the server
  /// completes requests out of order, so that drain is what makes the
  /// clear point exact. The single-point case is the classic warm-up
  /// discard.
  std::vector<std::size_t> clear_points;
  /// Open-loop pacing: time between batch launches (0 = closed loop).
  /// While it waits for the next launch slot the driver takes the
  /// replies that arrive, so a reply is timed when it lands, not when the
  /// window next fills.
  std::chrono::nanoseconds batch_interval{0};
  /// Recorded-timing pacing: per-request send offsets in nanoseconds,
  /// parallel to the stream (a recorded capture's arrival_ns column).
  /// When non-empty, each batch launches at start + (offset of its first
  /// request - offset of the stream's first request) — reproducing the
  /// captured inter-arrival spacing instead of a fixed interval. Takes
  /// precedence over batch_interval. The caller keeps the offsets alive
  /// for the duration of the replay.
  std::span<const std::uint64_t> send_offsets_ns;
};

/// Per-batch completion hook: the reply, the batch's reference time (the
/// *scheduled* send time in open loop — queueing delay counts toward
/// latency, no coordinated omission — or the actual send time in closed
/// loop), and the number of requests the batch carried.
using ReplayBatchHook =
    std::function<void(const AccessReply&,
                       std::chrono::steady_clock::time_point ref,
                       std::uint32_t count)>;

/// Replays `stream` through `client` in order with a bounded in-flight
/// window — THE closed/open-loop driver shared by icgmm_loadgen,
/// bench/throughput_net, and the end-to-end equivalence tests, so all
/// three exercise one code path. Returns the number of requests whose
/// replies were received. Exceptions from the client propagate.
std::uint64_t replay_stream(Client& client,
                            std::span<const WireAccess> stream,
                            const ReplayOptions& opts,
                            const ReplayBatchHook& on_reply = {});

/// Contiguous chunk `index` of `parts` over a request stream, remainder
/// spread over the first chunks — the per-connection split every
/// multi-connection driver uses (loadgen, net bench). Generic so a
/// side array parallel to the stream (recorded send offsets) splits
/// identically.
template <typename T>
std::span<const T> stream_chunk(std::span<const T> stream, std::size_t index,
                                std::size_t parts) {
  const std::size_t base = stream.size() / parts;
  const std::size_t extra = stream.size() % parts;
  const std::size_t first = index * base + (index < extra ? index : extra);
  return stream.subspan(first, base + (index < extra ? 1 : 0));
}

inline std::span<const WireAccess> stream_chunk(
    std::span<const WireAccess> stream, std::size_t index,
    std::size_t parts) {
  return stream_chunk<WireAccess>(stream, index, parts);
}

}  // namespace icgmm::net

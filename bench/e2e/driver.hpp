// The benchmark's load generator: one thread, at most two nonblocking
// protocol-v2 connections, every ACCESS_BATCH frame encoded before timing
// starts. Only the frame codec of net/protocol.hpp is shared with the
// program under test — not net::Client, not net::replay_stream.
//
// The open loop reads replies while it waits for the next send slot
// (ppoll until the slot, with a 1 ns timer slack), so a reply is timed
// when it arrives, not when the window next needs room. A driver that
// only reads when it needs a window slot floors its latency at
// pipeline x interval.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "runtime/runtime.hpp"
#include "workload.hpp"

namespace icgmm::e2e {

/// A request stream pre-encoded as protocol-v2 ACCESS_BATCH frames of
/// `batch` requests, contiguous in one buffer: a run of consecutive frames
/// goes out in one send(), and only each frame's request id is patched.
class FrameSet {
 public:
  /// stream.size() must be a multiple of batch.
  FrameSet(std::span<const runtime::Access> stream, std::uint32_t batch);

  std::uint32_t batch() const noexcept { return batch_; }
  std::size_t frames() const noexcept { return frames_; }
  std::size_t frame_bytes() const noexcept { return frame_bytes_; }
  std::uint8_t* frame(std::size_t i) noexcept {
    return bytes_.data() + i * frame_bytes_;
  }

 private:
  std::uint32_t batch_;
  std::size_t frames_;
  std::size_t frame_bytes_;
  std::vector<std::uint8_t> bytes_;
};

struct PhaseResult {
  std::uint64_t requests_sent = 0;
  std::uint64_t requests_replied = 0;  ///< in well-formed, matching replies
  std::uint64_t hits = 0;              ///< summed from the replies
  double elapsed_s = 0.0;              ///< first send to last reply
  double gen_cpu_s = 0.0;              ///< generator thread CPU time
};

/// Raw per-frame samples (every frame carries the same batch, so frame
/// quantiles are request quantiles), in ns.
struct OpenResult : PhaseResult {
  std::vector<std::uint64_t> latency;  ///< scheduled send -> reply
  std::vector<std::uint64_t> rtt;      ///< actual send -> reply
  std::vector<std::uint64_t> late;     ///< actual - scheduled send
};

class WireDriver {
 public:
  /// Opens `connections` (1 or 2) loopback connections to `port`.
  WireDriver(std::uint16_t port, std::uint32_t connections);
  ~WireDriver();

  WireDriver(const WireDriver&) = delete;
  WireDriver& operator=(const WireDriver&) = delete;

  /// Sends `requests` from stream position `pos` (advanced; the frame set
  /// is replayed cyclically) with `shape.window` frames in flight on each
  /// of `shape.connections` connections. Throws std::runtime_error on a
  /// malformed or unexpected reply, a closed connection or a 10 s stall.
  PhaseResult closed_loop(FrameSet& frames, std::uint64_t& pos,
                          std::uint64_t requests, const LoopShape& shape);

  /// Sends `requests` on connection 0, one frame every batch / rate
  /// seconds, timing each from its scheduled send.
  OpenResult open_loop(FrameSet& frames, std::uint64_t& pos,
                       std::uint64_t requests, double req_per_s);

  /// METRICS verb on connection 0 (nothing may be in flight).
  std::map<std::string, std::uint64_t> metrics();
  /// FLUSH on connection 0 (nothing may be in flight): zeroes the serving
  /// counters and is the daemon's drain barrier for its sidecars.
  void flush();

 private:
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> rx;
    /// Byte runs queued behind a full socket buffer (views into a
    /// FrameSet, which outlives the phase that queued them).
    std::deque<std::span<const std::uint8_t>> tx;
    std::uint32_t inflight = 0;
  };
  /// An ACCESS frame on the wire, indexed by id % slots_.size().
  struct Slot {
    std::uint64_t id = 0;
    std::uint64_t sched_ns = 0;
    std::uint64_t send_ns = 0;
    std::uint32_t conn = 0;
    bool busy = false;
  };
  struct Reply {
    std::uint64_t sched_ns = 0;
    std::uint64_t send_ns = 0;
    std::uint64_t recv_ns = 0;
    std::uint32_t hits = 0;
  };

  /// Patches ids into `count` consecutive frames from stream position
  /// `pos`, stamps their slots (frame i scheduled at sched0 + i x
  /// interval) and sends them on connection `c` as contiguous runs.
  void send_frames(std::uint32_t c, FrameSet& frames, std::uint64_t pos,
                   std::size_t count, std::uint64_t sched0_ns,
                   std::uint64_t interval_ns);
  /// Writes queued runs until the socket would block.
  void flush_tx(Conn& c);
  /// Waits until `deadline_ns` at most for a connection to become
  /// readable (or writable while it has queued runs), then decodes every
  /// complete ACCESS reply into `out`.
  void poll_replies(std::uint64_t deadline_ns, std::uint32_t batch,
                    std::vector<Reply>& out);
  /// Sends one control frame on connection 0 and returns the reply frame
  /// carrying `id`.
  std::vector<std::uint8_t> rpc(const std::vector<std::uint8_t>& request,
                                std::uint64_t id);

  std::vector<Conn> conns_;
  std::vector<Slot> slots_;
  std::uint64_t next_id_ = 1;
};

}  // namespace icgmm::e2e

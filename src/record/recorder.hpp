// TraceRecorder: captures accepted production traffic at serve time
// without ever blocking the serving path.
//
// Producers (the serving threads inside Runtime::access) call record(),
// which try-pushes a fixed-size entry into a bounded MPSC ring and
// returns immediately — on a full ring the entry is dropped and counted,
// never waited for. A dedicated writer thread drains the ring, packs
// entries into CRC-protected chunks (format.hpp), and appends them to
// the capture file. FLUSH/clear-stats boundaries travel through the same
// ring as flagged entries so their position in the record stream is
// exact.
//
// A failed write (a full disk, say) never reaches the serving path: the
// chunk it hit is charged to write_errors, and from then on the writer
// keeps draining the ring but counts every record there instead of
// writing it, so written + write_errors still accounts for every
// accepted record.
//
// Optional 1-in-N sampling thins the capture by whole windows of
// consecutive requests (window w is kept iff (w % sample_every) == 0),
// decided from one global atomic sequence counter so the decision is
// exact across producer threads.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "record/format.hpp"
#include "record/mpsc_ring.hpp"

namespace icgmm::record {

struct RecorderConfig {
  std::string path;
  /// Ring slots between the serving threads and the writer (rounded up
  /// to a power of two). At 25 B/record the default buffers ~64 K
  /// in-flight accesses.
  std::uint64_t ring_capacity = 1u << 16;
  /// Records per on-disk chunk (the torn-tail recovery granule).
  std::uint32_t chunk_records = 4096;
  /// Keep 1 window in sample_every (1 = record everything).
  std::uint32_t sample_every = 1;
  /// Requests per sampling window.
  std::uint32_t sample_window = 1024;
  /// Free-form capture provenance stored in the file header (run_env
  /// JSON fields by convention).
  std::string provenance;
  /// When false no writer thread is started and the owner drains the
  /// ring explicitly via pump() — deterministic single-threaded mode for
  /// tests. pump()/stop() are then the single consumer.
  bool writer_thread = true;
};

/// Monitoring counters; all monotonic, readable from any thread. After
/// stop(), records_written + write_errors == the records record() accepted.
struct RecorderStats {
  std::uint64_t records_written = 0;  ///< serialized into a chunk on disk
  std::uint64_t records_dropped = 0;  ///< lost to a full ring (never waited)
  std::uint64_t write_errors = 0;     ///< accepted, but never reached the file
  std::uint64_t chunks_written = 0;   ///< record chunks (markers excluded)
  std::uint64_t flush_markers = 0;
  std::uint64_t bytes_written = 0;    ///< file size including the header
};

class TraceRecorder {
 public:
  /// Opens the capture file and writes the header. Throws
  /// std::runtime_error when the file cannot be created or the config is
  /// invalid; a header that cannot be written only fails the capture.
  explicit TraceRecorder(RecorderConfig config);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Serving-path hook: never blocks. Returns false when the access was
  /// not captured (sampled out, or dropped on a full ring).
  bool record(PageIndex page, Timestamp timestamp, bool is_write) noexcept;

  /// Admin-path hook marking a clear-stats boundary in the stream. May
  /// briefly wait for ring space (the marker must not be dropped); in
  /// manual mode it drains the ring inline instead.
  void mark_flush();

  /// Manual-mode consumer: drains everything currently in the ring into
  /// the file. Only valid with writer_thread = false; single caller at a
  /// time (it IS the ring's single consumer).
  void pump();

  /// Stops the writer, drains the ring, writes the final partial chunk,
  /// and flushes the file. Idempotent; called by the destructor.
  void stop();

  RecorderStats stats() const noexcept;
  const RecorderConfig& config() const noexcept { return config_; }

 private:
  struct RingEntry {
    PageIndex page = 0;
    Timestamp timestamp = 0;
    std::uint64_t arrival_ns = 0;
    std::uint8_t flags = 0;  // bit0 = write, bit1 = flush marker
  };
  static constexpr std::uint8_t kFlagWrite = 1;
  static constexpr std::uint8_t kFlagFlush = 2;

  bool sampled_in() noexcept;
  std::uint64_t now_arrival_ns() const noexcept;
  void drain(bool blocking);
  void consume(std::span<const RingEntry> entries);
  template <typename Write>
  bool commit(Write&& write);
  void write_pending_chunk();
  void writer_loop();

  RecorderConfig config_;
  std::ofstream file_;
  MpscRing<RingEntry> ring_;
  std::chrono::steady_clock::time_point start_;

  /// Sampling sequence, all producers; untouched when sample_every == 1.
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> records_written_{0};
  std::atomic<std::uint64_t> records_dropped_{0};
  std::atomic<std::uint64_t> write_errors_{0};
  std::atomic<std::uint64_t> chunks_written_{0};
  std::atomic<std::uint64_t> flush_markers_{0};
  std::atomic<std::uint64_t> bytes_written_{0};

  /// Writer-thread-private staging for the chunk being assembled.
  std::vector<RecordedEntry> pending_;
  /// Consumer-private: set by the first failed write, never cleared.
  bool write_failed_ = false;

  std::atomic<bool> stopping_{false};
  bool stopped_ = false;
  std::thread writer_;  // declared last: joins before members it reads die
};

}  // namespace icgmm::record

#include "record/recorder.hpp"

#include <stdexcept>

namespace icgmm::record {

TraceRecorder::TraceRecorder(RecorderConfig config)
    : config_(std::move(config)),
      file_(config_.path, std::ios::binary | std::ios::trunc),
      ring_(config_.ring_capacity),
      start_(std::chrono::steady_clock::now()) {
  if (!file_) {
    throw std::runtime_error("record: cannot open for write: " + config_.path);
  }
  if (config_.chunk_records == 0 || config_.chunk_records > kMaxChunkRecords) {
    throw std::runtime_error("record: chunk_records out of range");
  }
  if (config_.sample_every == 0 || config_.sample_window == 0) {
    throw std::runtime_error("record: sampling parameters must be >= 1");
  }
  if (commit([this] {
        write_file_header(file_,
                          FileHeader{.version = kFormatVersion,
                                     .sample_every = config_.sample_every,
                                     .sample_window = config_.sample_window,
                                     .provenance = config_.provenance});
      })) {
    bytes_written_.store(kFileHeaderBytes + config_.provenance.size(),
                         std::memory_order_relaxed);
  }
  pending_.reserve(config_.chunk_records);
  if (config_.writer_thread) {
    writer_ = std::thread([this] { writer_loop(); });
  }
}

TraceRecorder::~TraceRecorder() { stop(); }

bool TraceRecorder::sampled_in() noexcept {
  // Recording everything reads no sequence: skip the shared counter.
  if (config_.sample_every == 1) return true;
  const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  return (seq / config_.sample_window) % config_.sample_every == 0;
}

std::uint64_t TraceRecorder::now_arrival_ns() const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

bool TraceRecorder::record(PageIndex page, Timestamp timestamp,
                           bool is_write) noexcept {
  if (!sampled_in()) return false;
  const RingEntry entry{
      .page = page,
      .timestamp = timestamp,
      .arrival_ns = now_arrival_ns(),
      .flags = static_cast<std::uint8_t>(is_write ? kFlagWrite : 0),
  };
  if (!ring_.try_push(entry)) {
    records_dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void TraceRecorder::mark_flush() {
  const RingEntry marker{.flags = kFlagFlush};
  while (!ring_.try_push(marker)) {
    if (config_.writer_thread) {
      // Admin path: a short wait for the writer to free a slot is fine,
      // and the marker's position must be exact so dropping it is not.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    } else {
      pump();  // manual mode: the caller is the consumer, make room
    }
  }
}

void TraceRecorder::consume(std::span<const RingEntry> entries) {
  for (const RingEntry& e : entries) {
    if (e.flags & kFlagFlush) {
      // Close out the in-progress chunk first so the marker lands at its
      // exact position in the record stream.
      write_pending_chunk();
      if (commit([this] { append_flush_marker(file_); })) {
        flush_markers_.fetch_add(1, std::memory_order_relaxed);
        bytes_written_.fetch_add(kChunkHeaderBytes, std::memory_order_relaxed);
      }
      continue;
    }
    pending_.push_back({.page = e.page,
                        .timestamp = e.timestamp,
                        .arrival_ns = e.arrival_ns,
                        .is_write = (e.flags & kFlagWrite) != 0});
    if (pending_.size() >= config_.chunk_records) write_pending_chunk();
  }
}

template <typename Write>
bool TraceRecorder::commit(Write&& write) {
  // Flushing each append charges a failure to the append that caused it,
  // not to whichever later one happens to fill the stream buffer. The
  // format layer throws on a bad stream; that must not escape the writer
  // thread (std::terminate) and take serving down with it.
  if (write_failed_) return false;
  try {
    write();
    file_.flush();
  } catch (const std::runtime_error&) {
    if (file_) throw;  // a malformed append (bad config), not a failed write
  }
  write_failed_ = !file_;
  return !write_failed_;
}

void TraceRecorder::write_pending_chunk() {
  if (pending_.empty()) return;
  if (commit([this] { append_chunk(file_, pending_); })) {
    chunks_written_.fetch_add(1, std::memory_order_relaxed);
    records_written_.fetch_add(pending_.size(), std::memory_order_relaxed);
    bytes_written_.fetch_add(
        kChunkHeaderBytes + pending_.size() * kRecordWireBytes,
        std::memory_order_relaxed);
  } else {
    write_errors_.fetch_add(pending_.size(), std::memory_order_relaxed);
  }
  pending_.clear();
}

void TraceRecorder::drain(bool blocking) {
  RingEntry buf[256];
  while (true) {
    const std::size_t n = ring_.pop_batch(buf);
    if (n > 0) {
      consume(std::span<const RingEntry>(buf, n));
      continue;
    }
    if (!blocking || stopping_.load(std::memory_order_acquire)) return;
    // Idle: poll rather than block on a producer-side notification —
    // producers must stay wait-free, so they cannot take a lock to
    // signal a condition variable.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void TraceRecorder::writer_loop() {
  drain(/*blocking=*/true);
  drain(/*blocking=*/false);  // final sweep after stop was requested
}

void TraceRecorder::pump() { drain(/*blocking=*/false); }

void TraceRecorder::stop() {
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_release);
  if (writer_.joinable()) writer_.join();
  drain(/*blocking=*/false);  // manual mode, or a race-free final check
  write_pending_chunk();  // commit() flushes every append
}

RecorderStats TraceRecorder::stats() const noexcept {
  return RecorderStats{
      .records_written = records_written_.load(std::memory_order_relaxed),
      .records_dropped = records_dropped_.load(std::memory_order_relaxed),
      .write_errors = write_errors_.load(std::memory_order_relaxed),
      .chunks_written = chunks_written_.load(std::memory_order_relaxed),
      .flush_markers = flush_markers_.load(std::memory_order_relaxed),
      .bytes_written = bytes_written_.load(std::memory_order_relaxed),
  };
}

}  // namespace icgmm::record

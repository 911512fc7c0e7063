// The traffic recorder subsystem: on-disk format invariants (CRC, header
// validation, torn-tail recovery), the MPSC ring's FIFO/full-ring
// contract, the TraceRecorder in deterministic manual-pump mode (drop
// accounting, chunking, sampling windows, FLUSH placement, failed
// writes), and the Runtime wiring (snapshot counters, clear_stats
// markers). Suite names start with Record/Recorder for the CI TSan job.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/policies/classic.hpp"
#include "obs/registry.hpp"
#include "record/format.hpp"
#include "record/mpsc_ring.hpp"
#include "record/recorder.hpp"
#include "runtime/replay.hpp"
#include "runtime/runtime.hpp"
#include "test_util.hpp"
#include "trace/io.hpp"

namespace icgmm::record {
namespace {

std::vector<RecordedEntry> sample_entries(std::size_t n,
                                          std::uint64_t page_base = 100) {
  std::vector<RecordedEntry> entries;
  entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    entries.push_back({.page = page_base + i,
                       .timestamp = 10 * i,
                       .arrival_ns = 1000 * i,
                       .is_write = (i % 3) == 0});
  }
  return entries;
}

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Every write to /dev/full fails with ENOSPC: a disk that is already
/// full. The failed-write tests skip on a host without the device.
bool dev_full_available() {
  return static_cast<bool>(std::ofstream("/dev/full", std::ios::binary));
}

// --- format ----------------------------------------------------------------

TEST(RecordFormat, Crc32MatchesTheIsoHdlcCheckVector) {
  const char* check = "123456789";
  EXPECT_EQ(crc32({reinterpret_cast<const std::uint8_t*>(check), 9}),
            0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(RecordFormat, FileHeaderRoundTripsWithProvenance) {
  const FileHeader header{.sample_every = 8,
                          .sample_window = 512,
                          .provenance = "{\"host\": \"test\"}"};
  std::stringstream ss;
  write_file_header(ss, header);
  const FileHeader back = read_file_header(ss);
  EXPECT_EQ(back.version, kFormatVersion);
  EXPECT_EQ(back.sample_every, 8u);
  EXPECT_EQ(back.sample_window, 512u);
  EXPECT_EQ(back.provenance, header.provenance);
}

TEST(RecordFormat, HeaderRejectsBadMagicVersionAndFlags) {
  std::stringstream good;
  write_file_header(good, FileHeader{});
  const std::string bytes = good.str();

  {  // wrong magic
    std::string b = bytes;
    b[0] = 'X';
    std::stringstream ss(b);
    EXPECT_THROW(read_file_header(ss), std::runtime_error);
  }
  {  // unknown version: reject, never skip
    std::string b = bytes;
    b[4] = static_cast<char>(kFormatVersion + 1);
    std::stringstream ss(b);
    EXPECT_THROW(read_file_header(ss), std::runtime_error);
  }
  {  // reserved flags set
    std::string b = bytes;
    b[8] = 1;
    std::stringstream ss(b);
    EXPECT_THROW(read_file_header(ss), std::runtime_error);
  }
  {  // truncated mid-header
    std::stringstream ss(bytes.substr(0, kFileHeaderBytes - 3));
    EXPECT_THROW(read_file_header(ss), std::runtime_error);
  }
  {  // provenance length beyond the cap must not provoke a huge read
    std::string b = bytes;
    const std::uint32_t huge = kMaxProvenanceBytes + 1;
    for (int i = 0; i < 4; ++i) {
      b[20 + i] = static_cast<char>(huge >> (8 * i));
    }
    std::stringstream ss(b);
    EXPECT_THROW(read_file_header(ss), std::runtime_error);
  }
}

TEST(RecordFormat, ChunksRoundTripThroughReadRecorded) {
  const std::vector<RecordedEntry> entries = sample_entries(7);
  std::stringstream ss;
  write_file_header(ss, FileHeader{});
  append_chunk(ss, {entries.data(), 4});
  append_chunk(ss, {entries.data() + 4, 3});

  const RecordedTrace rec = read_recorded(ss);
  EXPECT_FALSE(rec.tail_truncated);
  EXPECT_EQ(rec.chunks, 2u);
  ASSERT_EQ(rec.trace.size(), entries.size());
  ASSERT_EQ(rec.arrival_ns.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(rec.trace[i].page(), entries[i].page);
    EXPECT_EQ(rec.trace[i].time, entries[i].timestamp);
    EXPECT_EQ(rec.trace[i].is_write(), entries[i].is_write);
    EXPECT_EQ(rec.arrival_ns[i], entries[i].arrival_ns);
  }
  EXPECT_TRUE(rec.flush_points.empty());
}

TEST(RecordFormat, FlushMarkerPositionsAreExact) {
  const std::vector<RecordedEntry> entries = sample_entries(5);
  std::stringstream ss;
  write_file_header(ss, FileHeader{});
  append_flush_marker(ss);  // before any record: index 0
  append_chunk(ss, {entries.data(), 3});
  append_flush_marker(ss);
  append_chunk(ss, {entries.data() + 3, 2});
  append_flush_marker(ss);  // at EOF: index 5

  const RecordedTrace rec = read_recorded(ss);
  ASSERT_EQ(rec.flush_points.size(), 3u);
  EXPECT_EQ(rec.flush_points[0], 0u);
  EXPECT_EQ(rec.flush_points[1], 3u);
  EXPECT_EQ(rec.flush_points[2], 5u);
}

TEST(RecordFormat, TornTailIsDroppedAndPriorChunksKept) {
  const std::vector<RecordedEntry> entries = sample_entries(12);
  std::stringstream full;
  write_file_header(full, FileHeader{});
  append_chunk(full, {entries.data(), 4});
  append_chunk(full, {entries.data() + 4, 4});
  append_chunk(full, {entries.data() + 8, 4});
  const std::string bytes = full.str();

  // Cut the file anywhere inside the last chunk: a crash mid-append.
  const std::size_t chunk_bytes = kChunkHeaderBytes + 4 * kRecordWireBytes;
  for (const std::size_t cut : {1ul, kChunkHeaderBytes, chunk_bytes - 1}) {
    std::stringstream torn(bytes.substr(0, bytes.size() - cut));
    const RecordedTrace rec = read_recorded(torn);
    EXPECT_TRUE(rec.tail_truncated) << "cut " << cut;
    EXPECT_EQ(rec.chunks, 2u);
    ASSERT_EQ(rec.trace.size(), 8u);
    EXPECT_EQ(rec.trace[7].page(), entries[7].page);
  }
}

TEST(RecordFormat, CrcDamageStopsTheReadAtTheCorruptChunk) {
  const std::vector<RecordedEntry> entries = sample_entries(8);
  std::stringstream full;
  write_file_header(full, FileHeader{});
  append_chunk(full, {entries.data(), 4});
  append_chunk(full, {entries.data() + 4, 4});
  std::string bytes = full.str();

  // Flip one payload byte in the second chunk.
  const std::size_t second_payload =
      kFileHeaderBytes + 2 * kChunkHeaderBytes + 4 * kRecordWireBytes + 3;
  bytes[second_payload] ^= 0x40;
  std::stringstream damaged(bytes);
  const RecordedTrace rec = read_recorded(damaged);
  EXPECT_TRUE(rec.tail_truncated);
  EXPECT_EQ(rec.chunks, 1u);
  EXPECT_EQ(rec.trace.size(), 4u);
}

TEST(RecordFormat, InsaneChunkCountStopsCleanly) {
  std::stringstream ss;
  write_file_header(ss, FileHeader{});
  const std::vector<RecordedEntry> one = sample_entries(1);
  append_chunk(ss, one);
  std::string bytes = ss.str();
  // Rewrite the chunk's count field (offset 8 in the chunk header) to an
  // over-cap value; the reader must stop, not allocate gigabytes.
  const std::uint32_t huge = kMaxChunkRecords + 1;
  for (int i = 0; i < 4; ++i) {
    bytes[kFileHeaderBytes + 8 + i] = static_cast<char>(huge >> (8 * i));
  }
  std::stringstream damaged(bytes);
  const RecordedTrace rec = read_recorded(damaged);
  EXPECT_TRUE(rec.tail_truncated);
  EXPECT_EQ(rec.trace.size(), 0u);
}

TEST(RecordFormat, EmptyCaptureIsValid) {
  std::stringstream ss;
  write_file_header(ss, FileHeader{});
  const RecordedTrace rec = read_recorded(ss);
  EXPECT_FALSE(rec.tail_truncated);
  EXPECT_EQ(rec.trace.size(), 0u);
  EXPECT_EQ(rec.chunks, 0u);
}

TEST(RecordFormat, AppendChunkRejectsOversizedSpans) {
  std::stringstream ss;
  const std::vector<RecordedEntry> big(kMaxChunkRecords + 1);
  EXPECT_THROW(append_chunk(ss, big), std::runtime_error);
}

TEST(RecordFormat, SniffTellsTheThreeKindsApart) {
  const std::string rec_path = tmp_path("sniff.icgr");
  const std::string bin_path = tmp_path("sniff.icgt");
  const std::string csv_path = tmp_path("sniff.csv");
  {
    std::ofstream os(rec_path, std::ios::binary);
    write_file_header(os, FileHeader{});
  }
  trace::Trace t("sniff");
  t.push_back({.addr = addr_of(1), .time = 0, .type = AccessType::kRead});
  trace::write_binary_file(bin_path, t);
  trace::write_csv_file(csv_path, t);
  EXPECT_EQ(sniff_trace_file(rec_path), TraceFileKind::kRecorded);
  EXPECT_EQ(sniff_trace_file(bin_path), TraceFileKind::kBinaryTrace);
  EXPECT_EQ(sniff_trace_file(csv_path), TraceFileKind::kOther);
}

// --- the MPSC ring ---------------------------------------------------------

TEST(RecordRing, FifoOrderAndCapacityRounding) {
  MpscRing<int> ring(5);  // rounds up to 8
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));  // full: never blocks, reports
  std::vector<int> out(16);
  ASSERT_EQ(ring.pop_batch(out), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[i], i);
  EXPECT_TRUE(ring.empty());
}

TEST(RecordRing, PopFreesSlotsForTheNextLap) {
  MpscRing<int> ring(4);
  std::vector<int> out(2);
  for (int lap = 0; lap < 10; ++lap) {
    EXPECT_TRUE(ring.try_push(2 * lap));
    EXPECT_TRUE(ring.try_push(2 * lap + 1));
    ASSERT_EQ(ring.pop_batch(out), 2u);
    EXPECT_EQ(out[0], 2 * lap);
    EXPECT_EQ(out[1], 2 * lap + 1);
  }
}

TEST(RecordRing, ConcurrentProducersLoseNothingBelowCapacity) {
  // 4 producers x 1000 pushes into a ring large enough to never fill,
  // drained concurrently: every value arrives exactly once.
  constexpr int kProducers = 4;
  constexpr int kPer = 1000;
  MpscRing<int> ring(1 << 13);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (int i = 0; i < kPer; ++i) {
        while (!ring.try_push(p * kPer + i)) std::this_thread::yield();
      }
    });
  }
  std::vector<int> seen;
  std::vector<int> buf(256);
  while (seen.size() < kProducers * kPer) {
    const std::size_t n = ring.pop_batch(buf);
    seen.insert(seen.end(), buf.begin(), buf.begin() + n);
    if (n == 0) std::this_thread::yield();
  }
  for (std::thread& t : producers) t.join();
  std::vector<int> counts(kProducers * kPer, 0);
  int last_per_producer[kProducers];
  for (int p = 0; p < kProducers; ++p) last_per_producer[p] = -1;
  for (const int v : seen) {
    ++counts[v];
    // Per-producer FIFO: a producer's values arrive in push order.
    const int p = v / kPer;
    EXPECT_GT(v % kPer, last_per_producer[p]);
    last_per_producer[p] = v % kPer;
  }
  for (const int c : counts) EXPECT_EQ(c, 1);
}

// --- TraceRecorder (manual pump mode: deterministic) -----------------------

RecorderConfig manual_config(const std::string& file) {
  RecorderConfig cfg;
  cfg.path = tmp_path(file);
  cfg.writer_thread = false;
  return cfg;
}

TEST(Recorder, FullRingDropsAndCountsInsteadOfBlocking) {
  RecorderConfig cfg = manual_config("drops.icgr");
  cfg.ring_capacity = 8;
  TraceRecorder rec(cfg);
  int accepted = 0;
  for (std::uint64_t i = 0; i < 20; ++i) {
    if (rec.record(i, i, false)) ++accepted;
  }
  EXPECT_EQ(accepted, 8);
  rec.stop();
  const RecorderStats s = rec.stats();
  EXPECT_EQ(s.records_written, 8u);
  EXPECT_EQ(s.records_dropped, 12u);

  // The capture holds exactly the accepted prefix.
  const RecordedTrace back = read_recorded_file(cfg.path);
  ASSERT_EQ(back.trace.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(back.trace[i].page(), i);
}

TEST(Recorder, ChunkingSplitsAtTheConfiguredGranule) {
  RecorderConfig cfg = manual_config("chunks.icgr");
  cfg.chunk_records = 4;
  cfg.ring_capacity = 64;
  TraceRecorder rec(cfg);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(rec.record(500 + i, i, i % 2 == 1));
  }
  rec.pump();
  rec.stop();  // flushes the final partial chunk of 2
  EXPECT_EQ(rec.stats().chunks_written, 3u);
  EXPECT_EQ(rec.stats().records_written, 10u);
  EXPECT_GT(rec.stats().bytes_written, 0u);

  const RecordedTrace back = read_recorded_file(cfg.path);
  EXPECT_EQ(back.chunks, 3u);
  ASSERT_EQ(back.trace.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(back.trace[i].page(), 500 + i);
    EXPECT_EQ(back.trace[i].time, i);
    EXPECT_EQ(back.trace[i].is_write(), i % 2 == 1);
  }
}

TEST(Recorder, SamplingKeepsExactlyTheConfiguredWindows) {
  RecorderConfig cfg = manual_config("sampling.icgr");
  cfg.sample_every = 2;
  cfg.sample_window = 4;
  cfg.ring_capacity = 64;
  TraceRecorder rec(cfg);
  // Windows of 4: [0..3] kept, [4..7] out, [8..11] kept, [12..15] out.
  for (std::uint64_t i = 0; i < 16; ++i) {
    const bool captured = rec.record(i, i, false);
    const bool expected = (i / 4) % 2 == 0;
    EXPECT_EQ(captured, expected) << "request " << i;
  }
  rec.stop();
  EXPECT_EQ(rec.stats().records_written, 8u);
  EXPECT_EQ(rec.stats().records_dropped, 0u);  // sampled out != dropped

  const RecordedTrace back = read_recorded_file(cfg.path);
  ASSERT_EQ(back.trace.size(), 8u);
  const std::uint64_t kept[] = {0, 1, 2, 3, 8, 9, 10, 11};
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(back.trace[i].page(), kept[i]);
  EXPECT_EQ(back.header.sample_every, 2u);
  EXPECT_EQ(back.header.sample_window, 4u);
}

TEST(Recorder, MarkFlushLandsBetweenTheRightRecords) {
  RecorderConfig cfg = manual_config("flush.icgr");
  TraceRecorder rec(cfg);
  for (std::uint64_t i = 0; i < 3; ++i) ASSERT_TRUE(rec.record(i, i, false));
  rec.mark_flush();
  for (std::uint64_t i = 3; i < 5; ++i) ASSERT_TRUE(rec.record(i, i, false));
  rec.stop();
  EXPECT_EQ(rec.stats().flush_markers, 1u);

  const RecordedTrace back = read_recorded_file(cfg.path);
  ASSERT_EQ(back.trace.size(), 5u);
  ASSERT_EQ(back.flush_points.size(), 1u);
  EXPECT_EQ(back.flush_points[0], 3u);
}

TEST(Recorder, ArrivalOffsetsAreMonotonic) {
  RecorderConfig cfg = manual_config("arrival.icgr");
  TraceRecorder rec(cfg);
  for (std::uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(rec.record(i, i, false));
  rec.stop();
  const RecordedTrace back = read_recorded_file(cfg.path);
  ASSERT_EQ(back.arrival_ns.size(), 100u);
  for (std::size_t i = 1; i < 100; ++i) {
    EXPECT_GE(back.arrival_ns[i], back.arrival_ns[i - 1]);
  }
}

TEST(Recorder, StopIsIdempotentAndProvenancePersists) {
  RecorderConfig cfg = manual_config("prov.icgr");
  cfg.provenance = "{\"git\": \"deadbeef\"}";
  TraceRecorder rec(cfg);
  ASSERT_TRUE(rec.record(1, 1, true));
  rec.stop();
  rec.stop();
  const RecordedTrace back = read_recorded_file(cfg.path);
  EXPECT_EQ(back.header.provenance, cfg.provenance);
  ASSERT_EQ(back.trace.size(), 1u);
  EXPECT_TRUE(back.trace[0].is_write());
}

TEST(Recorder, RejectsUnwritablePathAndBadConfig) {
  RecorderConfig cfg;
  cfg.path = "/nonexistent-dir/capture.icgr";
  EXPECT_THROW(TraceRecorder{cfg}, std::runtime_error);

  RecorderConfig bad = manual_config("bad.icgr");
  bad.chunk_records = 0;
  EXPECT_THROW(TraceRecorder{bad}, std::runtime_error);
  RecorderConfig bad2 = manual_config("bad2.icgr");
  bad2.sample_every = 0;
  EXPECT_THROW(TraceRecorder{bad2}, std::runtime_error);
}

TEST(Recorder, FullDiskCountsWriteErrorsInsteadOfAborting) {
  // A failed write must not escape the writer thread (std::terminate):
  // in both consumer modes every accepted record is counted in
  // write_errors, and stop() returns normally.
  if (!dev_full_available()) GTEST_SKIP() << "/dev/full cannot be opened";
  for (const bool writer_thread : {false, true}) {
    SCOPED_TRACE(writer_thread ? "writer thread" : "manual pump");
    RecorderConfig cfg;
    cfg.path = "/dev/full";
    cfg.writer_thread = writer_thread;
    cfg.chunk_records = 16;
    cfg.ring_capacity = 2048;  // holds the whole burst: nothing dropped
    TraceRecorder rec(cfg);
    // 62 full chunks and a partial one, far more than a stream buffer
    // absorbs: a failed write cannot hide in the buffer until stop().
    constexpr std::uint64_t kRecords = 1000;
    for (std::uint64_t i = 0; i < 600; ++i) {
      ASSERT_TRUE(rec.record(i, i, false));
    }
    rec.mark_flush();
    for (std::uint64_t i = 600; i < kRecords; ++i) {
      ASSERT_TRUE(rec.record(i, i, i % 2 == 0));
    }
    if (!writer_thread) rec.pump();
    EXPECT_NO_THROW(rec.stop());
    const RecorderStats s = rec.stats();
    EXPECT_EQ(s.records_written, 0u);
    EXPECT_EQ(s.write_errors, kRecords);
    EXPECT_EQ(s.records_dropped, 0u);
    EXPECT_EQ(s.chunks_written, 0u);
    EXPECT_EQ(s.flush_markers, 0u);
    EXPECT_EQ(s.bytes_written, 0u);
  }
}

/// Lowers this process's file-size limit for one scope. Past the limit a
/// write fails with EFBIG (SIGXFSZ is ignored meanwhile): a disk that
/// fills partway through a capture.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes)
      : old_handler_(std::signal(SIGXFSZ, SIG_IGN)) {
    getrlimit(RLIMIT_FSIZE, &old_);
    rlimit lowered = old_;
    lowered.rlim_cur = bytes;
    ok_ = setrlimit(RLIMIT_FSIZE, &lowered) == 0;
  }
  ~FileSizeLimit() {
    setrlimit(RLIMIT_FSIZE, &old_);
    std::signal(SIGXFSZ, old_handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;
  bool ok() const noexcept { return ok_; }

 private:
  rlimit old_{};
  void (*old_handler_)(int);
  bool ok_ = false;
};

TEST(Recorder, FailedWriteIsChargedToItsOwnChunk) {
  // The disk fills halfway through the third chunk. The two chunks
  // before it are on disk and counted as written; the torn one and every
  // record after it are write errors, never attempted.
  RecorderConfig cfg = manual_config("fills_up.icgr");
  cfg.chunk_records = 16;
  cfg.ring_capacity = 1024;
  constexpr std::size_t kChunkBytes = kChunkHeaderBytes + 16 * kRecordWireBytes;
  constexpr std::uint64_t kRecords = 100;
  RecorderStats s;
  {
    FileSizeLimit limit(kFileHeaderBytes + 2 * kChunkBytes + kChunkBytes / 2);
    if (!limit.ok()) GTEST_SKIP() << "cannot lower RLIMIT_FSIZE";
    TraceRecorder rec(cfg);
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      ASSERT_TRUE(rec.record(i, i, false));
    }
    rec.pump();
    EXPECT_NO_THROW(rec.stop());
    s = rec.stats();
  }
  EXPECT_EQ(s.records_written, 32u);
  EXPECT_EQ(s.chunks_written, 2u);
  EXPECT_EQ(s.write_errors, kRecords - 32);
  EXPECT_EQ(s.bytes_written, kFileHeaderBytes + 2 * kChunkBytes);

  const RecordedTrace back = read_recorded_file(cfg.path);
  EXPECT_TRUE(back.tail_truncated);
  ASSERT_EQ(back.trace.size(), 32u);
  for (std::size_t i = 0; i < 32; ++i) EXPECT_EQ(back.trace[i].page(), i);
}

TEST(Recorder, WriterThreadDrainsWithoutPumping) {
  // Default mode: the background writer persists everything by stop().
  RecorderConfig cfg;
  cfg.path = tmp_path("writer.icgr");
  cfg.chunk_records = 64;
  TraceRecorder rec(cfg);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    while (!rec.record(i, i, false)) std::this_thread::yield();
  }
  rec.mark_flush();
  rec.stop();
  EXPECT_EQ(rec.stats().records_written, 1000u);
  EXPECT_EQ(rec.stats().records_dropped, 0u);
  const RecordedTrace back = read_recorded_file(cfg.path);
  ASSERT_EQ(back.trace.size(), 1000u);
  for (std::size_t i = 0; i < 1000; ++i) EXPECT_EQ(back.trace[i].page(), i);
  ASSERT_EQ(back.flush_points.size(), 1u);
  EXPECT_EQ(back.flush_points[0], 1000u);
}

}  // namespace
}  // namespace icgmm::record

// --- Runtime wiring --------------------------------------------------------

namespace icgmm::runtime {
namespace {

TEST(RecorderRuntime, RuntimeRecordsAcceptedTrafficAndCountsIt) {
  record::RecorderConfig rec_cfg;
  rec_cfg.path = ::testing::TempDir() + "/runtime.icgr";
  const RuntimeConfig rcfg{.cache = test_util::tiny_cache(16, 4),
                           .shards = 2,
                           .record = rec_cfg};
  Runtime rt(rcfg, cache::LruPolicy());
  ASSERT_NE(rt.recorder(), nullptr);
  for (std::uint64_t i = 0; i < 500; ++i) {
    rt.access(i % 64, i, i % 7 == 0);
  }
  rt.stop();  // finalizes the capture

  const RuntimeSnapshot snap = rt.snapshot();
  EXPECT_EQ(snap.records_written + snap.records_dropped, 500u);
  EXPECT_EQ(snap.records_dropped, 0u);  // ring far larger than the burst
  EXPECT_GT(snap.record_chunks, 0u);

  const record::RecordedTrace back =
      record::read_recorded_file(rec_cfg.path);
  ASSERT_EQ(back.trace.size(), 500u);
  for (std::size_t i = 0; i < 500; ++i) {
    EXPECT_EQ(back.trace[i].page(), i % 64);
    EXPECT_EQ(back.trace[i].time, i);
    EXPECT_EQ(back.trace[i].is_write(), i % 7 == 0);
  }
}

TEST(RecorderRuntime, ClearStatsMarksAFlushBoundaryInTheCapture) {
  record::RecorderConfig rec_cfg;
  rec_cfg.path = ::testing::TempDir() + "/runtime_flush.icgr";
  const RuntimeConfig rcfg{.cache = test_util::tiny_cache(16, 4),
                           .shards = 1,
                           .record = rec_cfg};
  Runtime rt(rcfg, cache::LruPolicy());
  for (std::uint64_t i = 0; i < 40; ++i) rt.access(i, i);
  rt.clear_stats();
  for (std::uint64_t i = 40; i < 70; ++i) rt.access(i, i);
  rt.stop();

  const record::RecordedTrace back =
      record::read_recorded_file(rec_cfg.path);
  ASSERT_EQ(back.trace.size(), 70u);
  ASSERT_EQ(back.flush_points.size(), 1u);
  EXPECT_EQ(back.flush_points[0], 40u);
}

TEST(RecorderRuntime, RecordingOffMeansNoRecorderAndZeroCounters) {
  const RuntimeConfig rcfg{.cache = test_util::tiny_cache(16, 4), .shards = 1};
  Runtime rt(rcfg, cache::LruPolicy());
  EXPECT_EQ(rt.recorder(), nullptr);
  rt.access(1, 1);
  const RuntimeSnapshot snap = rt.snapshot();
  EXPECT_EQ(snap.records_written, 0u);
  EXPECT_EQ(snap.records_dropped, 0u);
  EXPECT_EQ(snap.record_chunks, 0u);
}

TEST(RecorderRuntime, FullDiskKeepsServingAndCountsWriteErrors) {
  // Recording to a full disk changes nothing the runtime serves, and
  // every accepted record surfaces as a write error on METRICS.
  if (!::icgmm::record::dev_full_available()) {
    GTEST_SKIP() << "/dev/full cannot be opened";
  }
  constexpr std::uint64_t kN = 2000;
  const RuntimeConfig plain_cfg{.cache = test_util::tiny_cache(16, 4),
                                .shards = 2};
  RuntimeConfig rcfg = plain_cfg;
  rcfg.record.path = "/dev/full";
  rcfg.record.chunk_records = 64;
  rcfg.record.ring_capacity = 4096;  // holds the whole burst
  Runtime recorded(rcfg, cache::LruPolicy());
  Runtime plain(plain_cfg, cache::LruPolicy());
  for (std::uint64_t i = 0; i < kN; ++i) {
    recorded.access((i * 7) % 96, i, i % 5 == 0);
    plain.access((i * 7) % 96, i, i % 5 == 0);
  }
  recorded.stop();

  const cache::CacheStats got = recorded.cache().merged_stats();
  const cache::CacheStats want = plain.cache().merged_stats();
  EXPECT_EQ(got.accesses, kN);
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.read_misses, want.read_misses);
  EXPECT_EQ(got.write_misses, want.write_misses);
  EXPECT_EQ(got.fills, want.fills);
  EXPECT_EQ(got.evictions, want.evictions);
  EXPECT_EQ(got.dirty_evictions, want.dirty_evictions);
  EXPECT_GT(want.evictions, 0u);

  const RuntimeSnapshot snap = recorded.snapshot();
  EXPECT_EQ(snap.records_written, 0u);
  EXPECT_EQ(snap.records_dropped, 0u);
  EXPECT_EQ(snap.record_write_errors, kN);
  EXPECT_EQ(obs::MetricsRegistry::value_of(recorded.metrics().collect(),
                                           "icgmm_record_write_errors"),
            kN);
}

TEST(RecorderRuntime, RecordedCaptureReplaysToIdenticalCounts) {
  // In-process acceptance loop: replay a trace with recording on, then
  // replay the capture (raw timestamps + recorded clear points) through a
  // fresh runtime — both runs must land identical counters.
  const trace::Trace t = test_util::zipf_trace(20000, 1024, 0.9, 0x5eed);
  record::RecorderConfig rec_cfg;
  rec_cfg.path = ::testing::TempDir() + "/replay_equiv.icgr";
  rec_cfg.ring_capacity = 1u << 16;
  const RuntimeConfig rcfg{.cache = test_util::tiny_cache(32, 8),
                           .shards = 1,
                           .record = rec_cfg};
  ReplayConfig serve;
  serve.threads = 1;

  Runtime recorded_rt(rcfg, cache::LruPolicy());
  const ReplayResult first = replay_trace(recorded_rt, t, serve);
  recorded_rt.stop();
  const RuntimeSnapshot rec_snap = recorded_rt.snapshot();
  ASSERT_EQ(rec_snap.records_dropped, 0u);
  ASSERT_EQ(rec_snap.records_written, t.size());

  const record::RecordedTrace capture =
      record::read_recorded_file(rec_cfg.path);
  ASSERT_FALSE(capture.tail_truncated);
  ASSERT_EQ(capture.trace.size(), t.size());
  ASSERT_EQ(capture.flush_points.size(), 1u);  // the warm-up clear

  const RuntimeConfig replay_cfg{.cache = rcfg.cache, .shards = 1};
  Runtime replay_rt(replay_cfg, cache::LruPolicy());
  ReplayConfig again;
  again.threads = 1;
  again.raw_timestamps = true;  // the capture already holds served time
  again.clear_points = capture.flush_points;
  const ReplayResult second = replay_trace(replay_rt, capture.trace, again);

  EXPECT_EQ(second.run.stats.accesses, first.run.stats.accesses);
  EXPECT_EQ(second.run.stats.hits, first.run.stats.hits);
  EXPECT_EQ(second.run.stats.read_misses, first.run.stats.read_misses);
  EXPECT_EQ(second.run.stats.write_misses, first.run.stats.write_misses);
  EXPECT_EQ(second.run.stats.evictions, first.run.stats.evictions);
}

}  // namespace
}  // namespace icgmm::runtime

// Wire protocol: byte-level layout pins, round-trip encode/decode for
// every message type, incremental framing off a byte stream, and
// rejection of malformed frames (truncated, oversized declared length,
// bad magic/version — the retired version 1 included — reserved flag
// bits, empty/inconsistent batches).
// Pure buffer tests — no sockets. gtest-only (no gmock in the container).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/protocol.hpp"
#include "obs/histogram.hpp"

namespace icgmm::net {
namespace {

using Bytes = std::vector<std::uint8_t>;

Frame must_decode(const Bytes& buf, std::size_t* consumed_out = nullptr) {
  Frame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(buf, frame, consumed), DecodeStatus::kOk);
  EXPECT_EQ(consumed, buf.size());
  if (consumed_out) *consumed_out = consumed;
  return frame;
}

TEST(NetProtocol, HeaderWireLayoutIsLittleEndianAndPinned) {
  // A frame with a payload: the header is 24 bytes whatever the type, and
  // the payload starts right behind it.
  Bytes buf;
  encode_access_reply(buf, 0x11223344u, AccessReply{.count = 0xA1B2C3D4u});
  ASSERT_EQ(buf.size(), kHeaderBytesV2 + 20);
  EXPECT_EQ(buf[4], kProtocolV2);
  EXPECT_EQ(buf[5], static_cast<std::uint8_t>(MsgType::kAccessReply));
  // request_id, little-endian, high half zero.
  EXPECT_EQ(buf[8], 0x44);
  EXPECT_EQ(buf[9], 0x33);
  EXPECT_EQ(buf[10], 0x22);
  EXPECT_EQ(buf[11], 0x11);
  EXPECT_EQ(get_u32(buf.data() + 12), 0u);
  // payload_len at 16, reserved u32 at 20, payload at 24.
  EXPECT_EQ(get_u32(buf.data() + 16), 20u);
  EXPECT_EQ(get_u32(buf.data() + 20), 0u);
  EXPECT_EQ(buf[24], 0xD4);
  EXPECT_EQ(get_u32(buf.data() + 24), 0xA1B2C3D4u);
}

TEST(NetProtocol, LittleEndianPrimitivesRoundTrip) {
  Bytes buf;
  put_u16(buf, 0xBEEF);
  put_u32(buf, 0xDEADBEEFu);
  put_u64(buf, 0x0123456789ABCDEFull);
  ASSERT_EQ(buf.size(), 14u);
  EXPECT_EQ(get_u16(buf.data()), 0xBEEF);
  EXPECT_EQ(get_u32(buf.data() + 2), 0xDEADBEEFu);
  EXPECT_EQ(get_u64(buf.data() + 6), 0x0123456789ABCDEFull);
  EXPECT_EQ(buf[0], 0xEF);  // LSB first on the wire
  EXPECT_EQ(buf[2], 0xEF);
  EXPECT_EQ(buf[6], 0xEF);
}

TEST(NetProtocol, PingPongRoundTrip) {
  for (const bool pong : {false, true}) {
    Bytes buf;
    if (pong) {
      encode_pong(buf, 7);
    } else {
      encode_ping(buf, 7);
    }
    const Frame f = must_decode(buf);
    EXPECT_EQ(f.header.type, pong ? MsgType::kPong : MsgType::kPing);
    EXPECT_EQ(f.header.seq, 7u);
    EXPECT_EQ(decode_empty(f), DecodeStatus::kOk);
  }
}

TEST(NetProtocol, AccessBatchRoundTrip) {
  const std::vector<WireAccess> accesses = {
      {.page = 0, .timestamp = 0, .is_write = false},
      {.page = 0xFFFFFFFFFFFFFFFFull,
       .timestamp = 0x123456789ull,
       .is_write = true},
      {.page = 42, .timestamp = 7, .is_write = false},
  };
  Bytes buf;
  encode_access_batch(buf, 99, accesses);
  ASSERT_EQ(buf.size(), kHeaderBytesV2 + 4 + 3 * kAccessWireBytes);
  const Frame f = must_decode(buf);
  EXPECT_EQ(f.header.type, MsgType::kAccessBatch);
  EXPECT_EQ(f.header.seq, 99u);
  std::vector<WireAccess> decoded;
  ASSERT_EQ(decode_access_batch(f, decoded), DecodeStatus::kOk);
  ASSERT_EQ(decoded.size(), accesses.size());
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    EXPECT_EQ(decoded[i].page, accesses[i].page);
    EXPECT_EQ(decoded[i].timestamp, accesses[i].timestamp);
    EXPECT_EQ(decoded[i].is_write, accesses[i].is_write);
  }
}

TEST(NetProtocol, EncoderRejectsBatchesOverTheProtocolCap) {
  // The server treats an over-cap frame as stream poison and silently
  // drops the connection — so the encoder must refuse to build one.
  const std::vector<WireAccess> too_many(kMaxBatch + 1);
  Bytes buf;
  EXPECT_THROW(encode_access_batch(buf, 1, too_many), std::length_error);
  const std::vector<WireAccess> exactly(kMaxBatch);
  EXPECT_NO_THROW(encode_access_batch(buf, 1, exactly));
  // The encoders that keep a version argument take version 2 only.
  EXPECT_THROW(encode_access_batch(buf, 1, exactly, 1), std::invalid_argument);
  EXPECT_THROW(encode_metrics_request(buf, 1, 1), std::invalid_argument);
  EXPECT_THROW(encode_flush_request(buf, 1, 3), std::invalid_argument);
}

TEST(NetProtocol, AccessReplyRoundTrip) {
  const AccessReply reply{.count = 64,
                          .hits = 50,
                          .admitted = 10,
                          .evictions = 9,
                          .dirty_evictions = 3};
  Bytes buf;
  encode_access_reply(buf, 5, reply);
  const Frame f = must_decode(buf);
  AccessReply decoded;
  ASSERT_EQ(decode_access_reply(f, decoded), DecodeStatus::kOk);
  EXPECT_EQ(decoded.count, reply.count);
  EXPECT_EQ(decoded.hits, reply.hits);
  EXPECT_EQ(decoded.admitted, reply.admitted);
  EXPECT_EQ(decoded.evictions, reply.evictions);
  EXPECT_EQ(decoded.dirty_evictions, reply.dirty_evictions);
}

TEST(NetProtocol, ModelInfoRoundTrip) {
  const ModelInfoReply reply{.shards = 8,
                             .components = 256,
                             .model_version = 12,
                             .policy_name = "GMM-caching-eviction"};
  Bytes buf;
  encode_model_info_reply(buf, 1, reply);
  ModelInfoReply decoded;
  ASSERT_EQ(decode_model_info_reply(must_decode(buf), decoded),
            DecodeStatus::kOk);
  EXPECT_EQ(decoded.shards, reply.shards);
  EXPECT_EQ(decoded.components, reply.components);
  EXPECT_EQ(decoded.model_version, reply.model_version);
  EXPECT_EQ(decoded.policy_name, reply.policy_name);

  // Empty policy name is legal.
  Bytes buf2;
  encode_model_info_reply(buf2, 2, ModelInfoReply{});
  ASSERT_EQ(decode_model_info_reply(must_decode(buf2), decoded),
            DecodeStatus::kOk);
  EXPECT_EQ(decoded.policy_name, "");
}

TEST(NetProtocol, FlushAndErrorRoundTrip) {
  Bytes req;
  encode_flush_request(req, 21);
  EXPECT_EQ(must_decode(req).header.type, MsgType::kFlush);
  Bytes rep;
  encode_flush_reply(rep, 21);
  EXPECT_EQ(decode_empty(must_decode(rep)), DecodeStatus::kOk);

  Bytes err;
  encode_error(err, 9,
               {.code = ErrorCode::kBadRequest, .message = "count == 0"});
  ErrorReply decoded;
  ASSERT_EQ(decode_error(must_decode(err), decoded), DecodeStatus::kOk);
  EXPECT_EQ(decoded.code, ErrorCode::kBadRequest);
  EXPECT_EQ(decoded.message, "count == 0");
}

TEST(NetProtocol, StreamFramingSlicesBackToBackFrames) {
  // Three frames concatenated arrive as one stream; the decoder slices
  // them in order, byte-exactly.
  Bytes stream;
  encode_ping(stream, 1);
  encode_access_batch(stream, 2, std::vector<WireAccess>{{.page = 5}});
  encode_metrics_request(stream, 3);

  std::span<const std::uint8_t> rest(stream);
  const MsgType expected[] = {MsgType::kPing, MsgType::kAccessBatch,
                              MsgType::kMetrics};
  for (const MsgType type : expected) {
    Frame f;
    std::size_t consumed = 0;
    ASSERT_EQ(decode_frame(rest, f, consumed), DecodeStatus::kOk);
    EXPECT_EQ(f.header.type, type);
    rest = rest.subspan(consumed);
  }
  EXPECT_TRUE(rest.empty());
}

TEST(NetProtocol, TruncatedFramesNeedMoreAtEveryPrefixLength) {
  Bytes full;
  encode_access_batch(full, 4, std::vector<WireAccess>{{.page = 1},
                                                       {.page = 2}});
  // Every strict prefix is incomplete — never an error, never a frame.
  for (std::size_t len = 0; len < full.size(); ++len) {
    Frame f;
    std::size_t consumed = 0;
    EXPECT_EQ(decode_frame(std::span(full.data(), len), f, consumed),
              DecodeStatus::kNeedMore)
        << "prefix length " << len;
  }
}

TEST(NetProtocol, BadMagicRejected) {
  Bytes buf;
  encode_ping(buf, 1);
  buf[0] = 'X';
  Frame f;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(buf, f, consumed), DecodeStatus::kBadMagic);
}

TEST(NetProtocol, BadVersionRejected) {
  // Every version but 2 is stream poison at the header stage — the
  // retired version 1 included.
  for (const std::uint8_t bad : {std::uint8_t{0}, std::uint8_t{1},
                                 std::uint8_t{3}, std::uint8_t{0x7F},
                                 std::uint8_t{0xFF}}) {
    Bytes buf;
    encode_ping(buf, 1);
    buf[4] = bad;
    Frame f;
    std::size_t consumed = 0;
    EXPECT_EQ(decode_frame(buf, f, consumed), DecodeStatus::kBadVersion)
        << "version " << static_cast<int>(bad);
  }
  // Judged from the 8-byte prefix alone: a version-1 PING was 16 bytes,
  // and its sender waits for a reply rather than sending the rest of a
  // 24-byte header, so the decoder must not wait for it either.
  Bytes v1_ping;
  encode_ping(v1_ping, 1);
  v1_ping[4] = 1;
  Frame f;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(std::span(v1_ping.data(), 8), f, consumed),
            DecodeStatus::kBadVersion);
  EXPECT_EQ(decode_frame(std::span(v1_ping.data(), 7), f, consumed),
            DecodeStatus::kNeedMore);
}

TEST(NetProtocol, V2HeaderWireLayoutIsLittleEndianAndPinned) {
  Bytes buf;
  encode_ping(buf, 0x1122334455667788ull);
  ASSERT_EQ(buf.size(), kHeaderBytesV2);
  EXPECT_EQ(buf[0], 'I');
  EXPECT_EQ(buf[1], 'C');
  EXPECT_EQ(buf[2], 'G');
  EXPECT_EQ(buf[3], 'M');
  EXPECT_EQ(buf[4], kProtocolV2);
  EXPECT_EQ(buf[5], static_cast<std::uint8_t>(MsgType::kPing));
  EXPECT_EQ(buf[6], 0);  // flags lo
  EXPECT_EQ(buf[7], 0);  // flags hi
  // request_id, full u64 little-endian at offset 8.
  EXPECT_EQ(get_u64(buf.data() + 8), 0x1122334455667788ull);
  EXPECT_EQ(buf[8], 0x88);
  EXPECT_EQ(buf[15], 0x11);
  // payload_len at 16, reserved u32 (must be zero) at 20.
  EXPECT_EQ(get_u32(buf.data() + 16), 0u);
  EXPECT_EQ(get_u32(buf.data() + 20), 0u);
}

TEST(NetProtocol, V2RoundTripsEveryMessageType) {
  // Every message type with a u64 id beyond the u32 range.
  const std::uint64_t id = 0xDEADBEEF00000001ull;

  Bytes ping;
  encode_ping(ping, id);
  Frame f = must_decode(ping);
  EXPECT_EQ(f.header.seq, id);
  EXPECT_EQ(decode_empty(f), DecodeStatus::kOk);

  Bytes batch;
  encode_access_batch(batch, id + 1,
                      std::vector<WireAccess>{{.page = 9, .timestamp = 3}});
  ASSERT_EQ(batch.size(), kHeaderBytesV2 + 4 + kAccessWireBytes);
  f = must_decode(batch);
  EXPECT_EQ(f.header.seq, id + 1);
  std::vector<WireAccess> accesses;
  ASSERT_EQ(decode_access_batch(f, accesses), DecodeStatus::kOk);
  ASSERT_EQ(accesses.size(), 1u);
  EXPECT_EQ(accesses[0].page, 9u);

  Bytes reply;
  encode_access_reply(reply, id + 2, AccessReply{.count = 3, .hits = 2});
  f = must_decode(reply);
  AccessReply r;
  ASSERT_EQ(decode_access_reply(f, r), DecodeStatus::kOk);
  EXPECT_EQ(r.count, 3u);
  EXPECT_EQ(r.hits, 2u);

  Bytes metrics_req;
  encode_metrics_request(metrics_req, id + 3);
  f = must_decode(metrics_req);
  EXPECT_EQ(f.header.type, MsgType::kMetrics);
  EXPECT_EQ(decode_empty(f), DecodeStatus::kOk);
  Bytes metrics_rep;
  MetricsReply mr;
  mr.entries.push_back({"icgmm_cache_accesses", 77});
  encode_metrics_reply(metrics_rep, id + 3, mr);
  MetricsReply decoded_mr;
  ASSERT_EQ(decode_metrics_reply(must_decode(metrics_rep), decoded_mr),
            DecodeStatus::kOk);
  EXPECT_EQ(decoded_mr.value("icgmm_cache_accesses"), 77u);
  EXPECT_EQ(decoded_mr.value("icgmm_absent"), 0u);

  Bytes info_req;
  encode_model_info_request(info_req, id + 4);
  EXPECT_EQ(must_decode(info_req).header.type, MsgType::kModelInfo);
  Bytes info;
  encode_model_info_reply(info, id + 4,
                          ModelInfoReply{.shards = 2, .policy_name = "lru"});
  ModelInfoReply mi;
  ASSERT_EQ(decode_model_info_reply(must_decode(info), mi), DecodeStatus::kOk);
  EXPECT_EQ(mi.policy_name, "lru");

  Bytes flush_req;
  encode_flush_request(flush_req, id + 5);
  EXPECT_EQ(must_decode(flush_req).header.type, MsgType::kFlush);
  Bytes flush_rep;
  encode_flush_reply(flush_rep, id + 5);
  EXPECT_EQ(decode_empty(must_decode(flush_rep)), DecodeStatus::kOk);

  Bytes err;
  encode_error(err, id + 6,
               {.code = ErrorCode::kBadRequest, .message = "nope"});
  ErrorReply er;
  ASSERT_EQ(decode_error(must_decode(err), er), DecodeStatus::kOk);
  EXPECT_EQ(er.message, "nope");
}

TEST(NetProtocol, V2ReservedHeaderTailMustBeZero) {
  // The reserved u32 at offset 20 pads the payload to 8-byte alignment;
  // a nonzero value is a framing error, reserved for future meaning.
  for (const std::size_t byte : {20u, 21u, 22u, 23u}) {
    Bytes buf;
    encode_ping(buf, 1);
    buf[byte] = 0x01;
    Frame f;
    std::size_t consumed = 0;
    EXPECT_EQ(decode_frame(buf, f, consumed), DecodeStatus::kBadPayload)
        << "reserved byte " << byte;
  }
}

TEST(NetProtocol, V2TruncatedHeaderNeedsMoreAtEveryPrefixLength) {
  // A header prefix — including lengths 8..23, past the judged 8-byte
  // prefix — must wait for all 24 bytes, never misparse.
  Bytes full;
  encode_access_batch(full, 42, std::vector<WireAccess>{{.page = 1}});
  for (std::size_t len = 0; len < full.size(); ++len) {
    Frame f;
    std::size_t consumed = 0;
    EXPECT_EQ(decode_frame(std::span(full.data(), len), f, consumed),
              DecodeStatus::kNeedMore)
        << "prefix length " << len;
  }
}

TEST(NetProtocol, MixedVersionStreamSlicesFrameByFrame) {
  // A stream that switches version mid-way slices frame by frame up to
  // the first frame of another version, which poisons the stream there:
  // the frames before it decode, nothing after it is ever read.
  Bytes stream;
  encode_ping(stream, 1);
  encode_metrics_request(stream, 0x100000000ull);
  const std::size_t v1_at = stream.size();
  encode_ping(stream, 2);
  stream[v1_at + 4] = 1;  // a version-1 header

  std::span<const std::uint8_t> rest(stream);
  Frame f;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_frame(rest, f, consumed), DecodeStatus::kOk);
  EXPECT_EQ(f.header.type, MsgType::kPing);
  EXPECT_EQ(f.header.seq, 1u);
  rest = rest.subspan(consumed);
  ASSERT_EQ(decode_frame(rest, f, consumed), DecodeStatus::kOk);
  EXPECT_EQ(f.header.type, MsgType::kMetrics);
  EXPECT_EQ(f.header.seq, 0x100000000ull);
  rest = rest.subspan(consumed);
  EXPECT_EQ(rest.size(), kHeaderBytesV2);
  EXPECT_EQ(decode_frame(rest, f, consumed), DecodeStatus::kBadVersion);
}

TEST(NetProtocol, RetiredStatsTypeNumbersStayWellFramed) {
  // 5 and 6 (once STATS and its reply) are unassigned but inside the type
  // range: a frame of either type decodes, so the server can answer it
  // with an ERROR instead of dropping the connection.
  for (const std::uint8_t type : {std::uint8_t{5}, std::uint8_t{6}}) {
    Bytes buf;
    encode_ping(buf, 9);
    buf[5] = type;
    const Frame f = must_decode(buf);
    EXPECT_EQ(static_cast<std::uint8_t>(f.header.type), type);
    EXPECT_STREQ(to_string(f.header.type), "UNKNOWN");
  }
}

TEST(NetProtocol, UnknownTypeAndReservedFlagsRejected) {
  Bytes buf;
  encode_ping(buf, 1);
  buf[5] = 0xEE;  // type far outside the enum
  Frame f;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(buf, f, consumed), DecodeStatus::kBadPayload);

  Bytes buf2;
  encode_ping(buf2, 1);
  buf2[6] = 0x01;  // reserved flag bit
  EXPECT_EQ(decode_frame(buf2, f, consumed), DecodeStatus::kBadPayload);
}

TEST(NetProtocol, OversizedDeclaredLengthRejectedBeforePayloadArrives) {
  Bytes buf;
  encode_ping(buf, 1);
  // Declare a payload over the cap. Header alone must already reject —
  // a server must not wait for (or allocate) a bogus gigabyte.
  const std::uint32_t huge = kMaxPayload + 1;
  buf[16] = static_cast<std::uint8_t>(huge);
  buf[17] = static_cast<std::uint8_t>(huge >> 8);
  buf[18] = static_cast<std::uint8_t>(huge >> 16);
  buf[19] = static_cast<std::uint8_t>(huge >> 24);
  Frame f;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(buf, f, consumed), DecodeStatus::kBadLength);
}

TEST(NetProtocol, EmptyBatchRejected) {
  // Hand-build an ACCESS_BATCH with count == 0 (the encoder cannot).
  Bytes buf;
  encode_access_batch(buf, 1, std::vector<WireAccess>{{.page = 1}});
  // Rewrite payload to just the count field, zeroed.
  buf.resize(kHeaderBytesV2 + 4);
  buf[16] = 4;  // payload_len = 4
  buf[17] = buf[18] = buf[19] = 0;
  buf[24] = buf[25] = buf[26] = buf[27] = 0;  // count = 0
  const Frame f = must_decode(buf);
  std::vector<WireAccess> out;
  EXPECT_EQ(decode_access_batch(f, out), DecodeStatus::kBadPayload);
}

TEST(NetProtocol, BatchCountInconsistentWithPayloadRejected) {
  Bytes buf;
  encode_access_batch(buf, 1, std::vector<WireAccess>{{.page = 1},
                                                      {.page = 2}});
  // Claim 3 records while carrying 2.
  buf[kHeaderBytesV2] = 3;
  Frame f;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_frame(buf, f, consumed), DecodeStatus::kOk);
  std::vector<WireAccess> out;
  EXPECT_EQ(decode_access_batch(f, out), DecodeStatus::kBadPayload);

  // Count over the protocol cap.
  Bytes buf2;
  encode_access_batch(buf2, 1, std::vector<WireAccess>{{.page = 1}});
  const std::uint32_t over = kMaxBatch + 1;
  buf2[kHeaderBytesV2] = static_cast<std::uint8_t>(over);
  buf2[kHeaderBytesV2 + 1] = static_cast<std::uint8_t>(over >> 8);
  buf2[kHeaderBytesV2 + 2] = static_cast<std::uint8_t>(over >> 16);
  buf2[kHeaderBytesV2 + 3] = static_cast<std::uint8_t>(over >> 24);
  ASSERT_EQ(decode_frame(buf2, f, consumed), DecodeStatus::kOk);
  EXPECT_EQ(decode_access_batch(f, out), DecodeStatus::kBadPayload);
}

TEST(NetProtocol, ReservedAccessFlagBitsRejected) {
  Bytes buf;
  encode_access_batch(buf, 1, std::vector<WireAccess>{{.page = 1}});
  buf[kHeaderBytesV2 + 4 + 16] = 0x02;  // flags byte: reserved bit set
  Frame f;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_frame(buf, f, consumed), DecodeStatus::kOk);
  std::vector<WireAccess> out;
  EXPECT_EQ(decode_access_batch(f, out), DecodeStatus::kBadPayload);
}

TEST(NetProtocol, WrongPayloadSizeForFixedSizeRepliesRejected) {
  Bytes buf;
  encode_access_reply(buf, 1, AccessReply{.count = 1});
  buf.pop_back();
  buf[16] = 19;  // payload_len 20 -> 19
  Frame f;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_frame(buf, f, consumed), DecodeStatus::kOk);
  AccessReply out;
  EXPECT_EQ(decode_access_reply(f, out), DecodeStatus::kBadPayload);

  Bytes ping;
  encode_ping(ping, 1);
  ping.push_back(0);  // non-empty payload on an empty-payload type
  ping[16] = 1;
  ASSERT_EQ(decode_frame(ping, f, consumed), DecodeStatus::kOk);
  EXPECT_EQ(decode_empty(f), DecodeStatus::kBadPayload);
}

// --- the loadgen's latency recorder ----------------------------------------

TEST(NetLatencyRecorder, QuantilesBoundTrueValuesWithinBucketError) {
  obs::LatencyHistogram rec;
  // 1..1000 us, uniformly.
  for (std::uint64_t us = 1; us <= 1000; ++us) rec.record(us * 1000);
  EXPECT_EQ(rec.count(), 1000u);
  const double p50 = static_cast<double>(rec.quantile_ns(0.50));
  const double p99 = static_cast<double>(rec.quantile_ns(0.99));
  // Bucket upper bounds: within ~2 * 1/32 relative of the true quantile.
  EXPECT_GE(p50, 500e3 * 0.97);
  EXPECT_LE(p50, 500e3 * 1.07);
  EXPECT_GE(p99, 990e3 * 0.97);
  EXPECT_LE(p99, 990e3 * 1.07);
  EXPECT_GE(rec.quantile_ns(1.0), rec.quantile_ns(0.9999));
  EXPECT_EQ(rec.max_ns(), 1000000u);
}

TEST(NetLatencyRecorder, MergeAndWeightedRecordMatchLoopedRecord) {
  obs::LatencyHistogram a, b, c;
  for (int i = 0; i < 10; ++i) a.record(1000, 8);
  for (int i = 0; i < 80; ++i) b.record(1000);
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.quantile_ns(0.5), b.quantile_ns(0.5));
  EXPECT_DOUBLE_EQ(a.mean_ns(), b.mean_ns());
  c.merge(a);
  c.merge(b);
  EXPECT_EQ(c.count(), 160u);
  EXPECT_EQ(c.quantile_ns(0.999), a.quantile_ns(0.999));
}

TEST(NetLatencyRecorder, EmptyAndExtremeValues) {
  obs::LatencyHistogram rec;
  EXPECT_EQ(rec.quantile_ns(0.5), 0u);
  EXPECT_EQ(rec.count(), 0u);
  rec.record(0);
  rec.record(~0ull);  // clamps into the top band, does not crash
  EXPECT_EQ(rec.count(), 2u);
  EXPECT_EQ(rec.quantile_ns(0.0), 0u);
  EXPECT_GT(rec.quantile_ns(1.0), 0u);
}

}  // namespace
}  // namespace icgmm::net

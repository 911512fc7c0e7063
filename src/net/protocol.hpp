// ICGMM binary wire protocol — the length-prefixed frame format the RPC
// serving frontend speaks on a TCP stream.
//
// Every frame is a 24-byte header followed by `payload_len` bytes of
// payload, all integers explicitly little-endian on the wire regardless
// of host byte order:
//
//   offset  size  field
//   0       4     magic       "ICGM" (0x4d474349 as a LE u32)
//   4       1     version     2
//   5       1     type        MsgType
//   6       2     flags       reserved, must be 0
//   8       8     request_id  echoed verbatim in the reply
//   16      4     payload_len bytes following the header
//   20      4     reserved    must be 0 (keeps the payload 8-aligned and
//                             leaves room for stream/priority bits)
//
// Every request carries a u64 request id and its reply echoes it, so
// replies correlate by id, not by arrival order: replies on one
// connection may arrive in ANY order (net::Server answers each
// connection in arrival order, but clients must not rely on it). Any
// version byte other than 2 (the retired order-correlated version 1
// included) is stream poison (kBadVersion — the connection is dropped).
//
// Request/reply payloads (LE throughout):
//   ACCESS_BATCH  u32 count, then count x {u64 page, u64 timestamp,
//                 u8 flags (bit0 = write)} — 17 bytes per access.
//   ACCESS_REPLY  u32 count, u32 hits, u32 admitted, u32 evictions,
//                 u32 dirty_evictions (per-batch aggregate).
//   MODEL_INFO    empty request; reply: u32 shards, u32 components,
//                 u64 model_version, u16 name_len, name bytes.
//   PING          empty request; PONG reply echoes the id.
//   FLUSH         admin: zeroes the runtime's statistics counters
//                 (cache contents stay warm); empty reply.
//   METRICS       empty request; reply: u32 count, then count x
//                 {u16 name_len, name bytes, u64 value} — the server's
//                 whole metrics registry as length-prefixed name/value
//                 pairs. The entry set is open-ended: clients match
//                 names, never positions.
//   ERROR         u16 code (ErrorCode), u16 msg_len, msg bytes — sent by
//                 the server for well-framed but unserviceable requests.
//
// Framing errors (bad magic/version, oversized or truncated declared
// lengths, payloads that do not parse) are not answerable on a byte
// stream — the decoder reports them and the server closes the
// connection. Limits: payload_len <= kMaxPayload, ACCESS_BATCH count in
// [1, kMaxBatch] and consistent with payload_len.
//
// Everything here is pure encode/decode over byte buffers — no sockets —
// so the whole protocol is unit-testable in isolation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace icgmm::net {

inline constexpr std::uint32_t kMagic = 0x4d474349u;  // "ICGM" little-endian
inline constexpr std::uint8_t kProtocolV2 = 2;  ///< the header's version byte
inline constexpr std::size_t kHeaderBytesV2 = 24;  ///< header size
/// Hard cap on a frame payload; a declared length above this is a
/// malformed frame (protects the server from hostile allocations).
inline constexpr std::uint32_t kMaxPayload = 1u << 20;  // 1 MiB
/// Largest ACCESS_BATCH count (kMaxPayload still binds first for big
/// batches: 17 bytes per access).
inline constexpr std::uint32_t kMaxBatch = 60000;
inline constexpr std::size_t kAccessWireBytes = 17;
/// Largest frame either side can send: a header plus a maximal payload.
inline constexpr std::size_t kMaxFrameBytes = kHeaderBytesV2 + kMaxPayload;

enum class MsgType : std::uint8_t {
  kPing = 1,
  kPong = 2,
  kAccessBatch = 3,
  kAccessReply = 4,
  // 5 and 6 are unassigned: a well-framed request of either type gets an
  // ERROR (kUnknownType) reply.
  kModelInfo = 7,
  kModelInfoReply = 8,
  kFlush = 9,
  kFlushReply = 10,
  kError = 11,
  kMetrics = 12,
  kMetricsReply = 13,
};

const char* to_string(MsgType t) noexcept;

enum class ErrorCode : std::uint16_t {
  kUnknownType = 1,    ///< well-framed request type the server cannot serve
  kBadRequest = 2,     ///< payload malformed for its declared type
};

/// Decoder outcome for header/frame parsing off a byte stream.
enum class DecodeStatus : std::uint8_t {
  kOk = 0,
  kNeedMore,     ///< not enough bytes yet — keep reading
  kBadMagic,
  kBadVersion,
  kBadLength,    ///< payload_len > kMaxPayload or inconsistent payload
  kBadPayload,   ///< payload bytes do not parse for the frame's type
};

const char* to_string(DecodeStatus s) noexcept;

struct FrameHeader {
  MsgType type = MsgType::kPing;
  std::uint16_t flags = 0;
  std::uint64_t seq = 0;  ///< the u64 request id
  std::uint32_t payload_len = 0;
};

/// One request's worth of access, as carried on the wire.
struct WireAccess {
  PageIndex page = 0;
  Timestamp timestamp = 0;
  bool is_write = false;
};

struct AccessReply {
  std::uint32_t count = 0;
  std::uint32_t hits = 0;
  std::uint32_t admitted = 0;
  std::uint32_t evictions = 0;
  std::uint32_t dirty_evictions = 0;
};

struct ModelInfoReply {
  std::uint32_t shards = 0;
  std::uint32_t components = 0;   ///< mixture K (0 in prototype mode)
  std::uint64_t model_version = 0;
  std::string policy_name;
};

struct ErrorReply {
  ErrorCode code = ErrorCode::kBadRequest;
  std::string message;
};

/// One registry sample on the wire.
struct MetricsEntry {
  std::string name;
  std::uint64_t value = 0;
};

struct MetricsReply {
  std::vector<MetricsEntry> entries;

  /// Value of the entry named `name`, or 0 when there is none — the same
  /// rule as MetricsRegistry::value_of.
  std::uint64_t value(std::string_view name) const noexcept;
};

/// Largest METRICS reply entry count (kMaxPayload still binds first for
/// long names; a sane registry is a few dozen entries).
inline constexpr std::uint32_t kMaxMetricsEntries = 4096;

// --- low-level little-endian primitives (exposed for tests) ---------------

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v);
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v);
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v);
std::uint16_t get_u16(const std::uint8_t* p) noexcept;
std::uint32_t get_u32(const std::uint8_t* p) noexcept;
std::uint64_t get_u64(const std::uint8_t* p) noexcept;

// --- frame encoding --------------------------------------------------------
// Encoders append one complete frame (header + payload) to `out`. The
// three request encoders the end-to-end benchmark's raw driver calls keep
// a trailing `version` argument; it must be kProtocolV2, and any other
// value throws std::invalid_argument.

void encode_ping(std::vector<std::uint8_t>& out, std::uint64_t seq);
void encode_pong(std::vector<std::uint8_t>& out, std::uint64_t seq);
void encode_access_batch(std::vector<std::uint8_t>& out, std::uint64_t seq,
                         std::span<const WireAccess> accesses,
                         std::uint8_t version = kProtocolV2);
void encode_access_reply(std::vector<std::uint8_t>& out, std::uint64_t seq,
                         const AccessReply& reply);
void encode_model_info_request(std::vector<std::uint8_t>& out,
                               std::uint64_t seq);
void encode_model_info_reply(std::vector<std::uint8_t>& out, std::uint64_t seq,
                             const ModelInfoReply& reply);
void encode_flush_request(std::vector<std::uint8_t>& out, std::uint64_t seq,
                          std::uint8_t version = kProtocolV2);
void encode_flush_reply(std::vector<std::uint8_t>& out, std::uint64_t seq);
void encode_error(std::vector<std::uint8_t>& out, std::uint64_t seq,
                  const ErrorReply& reply);
void encode_metrics_request(std::vector<std::uint8_t>& out, std::uint64_t seq,
                            std::uint8_t version = kProtocolV2);
/// Throws std::length_error past kMaxMetricsEntries or a name over u16.
void encode_metrics_reply(std::vector<std::uint8_t>& out, std::uint64_t seq,
                          const MetricsReply& reply);

// --- frame decoding --------------------------------------------------------

/// Parses a header from the front of `buf`. kNeedMore when buf has fewer
/// than kHeaderBytesV2 bytes; kBadMagic / kBadVersion / kBadLength /
/// kBadPayload on a frame that can never become valid (the connection
/// should be dropped). The 8-byte prefix (magic, version, type, flags)
/// is judged as soon as it arrives, so a shorter frame of another
/// version is rejected rather than waited on.
DecodeStatus decode_header(std::span<const std::uint8_t> buf,
                           FrameHeader& out) noexcept;

/// A fully-received frame: header plus its payload bytes (view into the
/// receive buffer — valid only while the buffer is stable).
struct Frame {
  FrameHeader header;
  std::span<const std::uint8_t> payload;
};

/// Extracts the next complete frame from the front of `buf`. On kOk,
/// `frame` views into `buf` and `consumed` is the total frame size to
/// drop from the stream. kNeedMore when the payload has not fully
/// arrived; other statuses poison the stream.
DecodeStatus decode_frame(std::span<const std::uint8_t> buf, Frame& frame,
                          std::size_t& consumed) noexcept;

// Payload decoders. Each validates the payload for its type; kBadPayload
// on any inconsistency (wrong size, count out of [1, kMaxBatch], count
// inconsistent with payload length, non-zero reserved flag bits).

DecodeStatus decode_access_batch(const Frame& frame,
                                 std::vector<WireAccess>& out);
DecodeStatus decode_access_reply(const Frame& frame, AccessReply& out) noexcept;
DecodeStatus decode_model_info_reply(const Frame& frame, ModelInfoReply& out);
DecodeStatus decode_error(const Frame& frame, ErrorReply& out);
DecodeStatus decode_metrics_reply(const Frame& frame, MetricsReply& out);
/// PING/PONG/MODEL_INFO/FLUSH/METRICS requests and the FLUSH reply carry
/// no payload; this enforces that.
DecodeStatus decode_empty(const Frame& frame) noexcept;

}  // namespace icgmm::net

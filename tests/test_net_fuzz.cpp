// Decoder robustness sweep: every frame type pushed through the decoders
// at every truncation point, with seeded single-byte mutations, and as
// pure random garbage. The contract under test is narrow and absolute —
// decode_frame / decode_* always return a DecodeStatus and never crash,
// over-read, or report consuming more bytes than they were given. This
// suite is the sanitizer job's target (ASan+UBSan catch the over-reads
// gtest alone cannot), so the suite name starts with "Net" for the CI -R
// filters.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/protocol.hpp"

namespace icgmm::net {
namespace {

using Bytes = std::vector<std::uint8_t>;

struct CorpusFrame {
  std::string name;
  Bytes bytes;
};

/// One well-formed frame of every message type.
std::vector<CorpusFrame> full_corpus() {
  // An id beyond the u32 range exercises the full u64 header field.
  const std::uint64_t seq = 0xA1B2C3D400000007ull;
  std::vector<CorpusFrame> frames;
  const auto add = [&](const char* name, auto encode) {
    CorpusFrame f{name, {}};
    encode(f.bytes);
    frames.push_back(std::move(f));
  };
  add("ping", [&](Bytes& b) { encode_ping(b, seq); });
  add("pong", [&](Bytes& b) { encode_pong(b, seq); });
  add("access_batch", [&](Bytes& b) {
    encode_access_batch(b, seq,
                        std::vector<WireAccess>{
                            {.page = 1, .timestamp = 2, .is_write = false},
                            {.page = ~0ull, .timestamp = 3, .is_write = true},
                        });
  });
  add("access_reply", [&](Bytes& b) {
    encode_access_reply(b, seq,
                        AccessReply{.count = 5, .hits = 3, .admitted = 2});
  });
  add("model_info_request",
      [&](Bytes& b) { encode_model_info_request(b, seq); });
  add("model_info_reply", [&](Bytes& b) {
    encode_model_info_reply(
        b, seq, ModelInfoReply{.shards = 4, .policy_name = "GMM"});
  });
  add("flush_request", [&](Bytes& b) { encode_flush_request(b, seq); });
  add("flush_reply", [&](Bytes& b) { encode_flush_reply(b, seq); });
  add("error", [&](Bytes& b) {
    encode_error(b, seq,
                 {.code = ErrorCode::kBadRequest, .message = "bad batch"});
  });
  add("metrics_request", [&](Bytes& b) { encode_metrics_request(b, seq); });
  add("metrics_reply", [&](Bytes& b) {
    MetricsReply reply;
    reply.entries.push_back({"icgmm_cache_accesses", 12345});
    reply.entries.push_back({"icgmm_server_stage_apply_ns_count", ~0ull});
    reply.entries.push_back({"", 0});  // empty names are legal on the wire
    encode_metrics_reply(b, seq, reply);
  });
  return frames;
}

bool valid_status(DecodeStatus st) {
  switch (st) {
    case DecodeStatus::kOk:
    case DecodeStatus::kNeedMore:
    case DecodeStatus::kBadMagic:
    case DecodeStatus::kBadVersion:
    case DecodeStatus::kBadLength:
    case DecodeStatus::kBadPayload:
      return true;
  }
  return false;
}

/// Frame-decodes `buf` and, when it frames OK, runs the payload decoder
/// matching the decoded type — the exact sequence the server and client
/// run on received bytes. Every step must produce a status, not a crash.
void decode_everything(const Bytes& buf) {
  Frame frame;
  std::size_t consumed = 0;
  const DecodeStatus st = decode_frame(buf, frame, consumed);
  EXPECT_TRUE(valid_status(st));
  if (st != DecodeStatus::kOk) return;
  EXPECT_LE(consumed, buf.size());  // never claim bytes it was not given
  switch (frame.header.type) {
    case MsgType::kAccessBatch: {
      std::vector<WireAccess> accesses;
      EXPECT_TRUE(valid_status(decode_access_batch(frame, accesses)));
      break;
    }
    case MsgType::kAccessReply: {
      AccessReply reply;
      EXPECT_TRUE(valid_status(decode_access_reply(frame, reply)));
      break;
    }
    case MsgType::kModelInfoReply: {
      ModelInfoReply reply;
      EXPECT_TRUE(valid_status(decode_model_info_reply(frame, reply)));
      break;
    }
    case MsgType::kError: {
      ErrorReply reply;
      EXPECT_TRUE(valid_status(decode_error(frame, reply)));
      break;
    }
    case MsgType::kMetricsReply: {
      MetricsReply reply;
      EXPECT_TRUE(valid_status(decode_metrics_reply(frame, reply)));
      break;
    }
    default:
      EXPECT_TRUE(valid_status(decode_empty(frame)));
      break;
  }
}

TEST(NetFuzz, EveryTruncationPointOfEveryFrameNeedsMoreOrDecodes) {
  for (const CorpusFrame& f : full_corpus()) {
    SCOPED_TRACE(f.name);
    for (std::size_t len = 0; len <= f.bytes.size(); ++len) {
      Frame frame;
      std::size_t consumed = 0;
      const DecodeStatus st =
          decode_frame(std::span(f.bytes.data(), len), frame, consumed);
      if (len < f.bytes.size()) {
        EXPECT_EQ(st, DecodeStatus::kNeedMore) << "prefix " << len;
      } else {
        EXPECT_EQ(st, DecodeStatus::kOk);
        EXPECT_EQ(consumed, f.bytes.size());
      }
    }
  }
}

TEST(NetFuzz, SingleByteMutationsAlwaysReturnAStatus) {
  // Flip every byte position of every corpus frame to seeded random
  // values; whatever the result frames as must decode to *some* status.
  // (A mutation may legally still be kOk — flipping a page number — so
  // only the no-crash/no-over-read contract is asserted, which is what
  // the sanitizer job turns into a hard failure.)
  Rng rng(0xF022u);
  for (const CorpusFrame& f : full_corpus()) {
    SCOPED_TRACE(f.name);
    for (std::size_t pos = 0; pos < f.bytes.size(); ++pos) {
      for (int variant = 0; variant < 4; ++variant) {
        Bytes mutated = f.bytes;
        const auto flip = static_cast<std::uint8_t>(rng() & 0xFF);
        mutated[pos] ^= flip == 0 ? std::uint8_t{0xFF} : flip;
        decode_everything(mutated);
      }
    }
  }
}

TEST(NetFuzz, MutatedFramesTruncatedAtEveryPointStillReturnAStatus) {
  // Mutation x truncation: the nastiest combination — a corrupted length
  // or version field with the stream cut mid-frame must still land in a
  // status (typically kNeedMore or a kBad*), never a read past the end.
  Rng rng(0xF023u);
  for (const CorpusFrame& f : full_corpus()) {
    SCOPED_TRACE(f.name);
    for (int variant = 0; variant < 8; ++variant) {
      Bytes mutated = f.bytes;
      const std::size_t pos = rng.below(mutated.size());
      mutated[pos] ^= static_cast<std::uint8_t>(rng.below(255) + 1);
      for (std::size_t len = 0; len <= mutated.size(); ++len) {
        Frame frame;
        std::size_t consumed = 0;
        const DecodeStatus st =
            decode_frame(std::span(mutated.data(), len), frame, consumed);
        EXPECT_TRUE(valid_status(st));
        if (st == DecodeStatus::kOk) {
          EXPECT_LE(consumed, len);
        }
      }
    }
  }
}

TEST(NetFuzz, RandomGarbageBuffersAlwaysReturnAStatus) {
  Rng rng(0xF024u);
  for (int round = 0; round < 2000; ++round) {
    const std::size_t len = rng.below(96);
    Bytes garbage(len);
    for (std::uint8_t& b : garbage) {
      b = static_cast<std::uint8_t>(rng() & 0xFF);
    }
    decode_everything(garbage);
  }
}

TEST(NetFuzz, GarbageBehindAValidMagicPrefixAlwaysReturnsAStatus) {
  // Random bytes are unlikely to pass the magic check, which would leave
  // the deeper header/payload validation unexercised — so pin the magic
  // (and, every other round, the valid version) and randomize everything
  // after it.
  Rng rng(0xF025u);
  for (int round = 0; round < 2000; ++round) {
    const std::size_t len = 4 + rng.below(92);
    Bytes buf(len);
    for (std::uint8_t& b : buf) {
      b = static_cast<std::uint8_t>(rng() & 0xFF);
    }
    buf[0] = 'I';
    buf[1] = 'C';
    buf[2] = 'G';
    buf[3] = 'M';
    if (buf.size() > 4 && round % 2 == 0) buf[4] = kProtocolV2;
    decode_everything(buf);
  }
}

}  // namespace
}  // namespace icgmm::net

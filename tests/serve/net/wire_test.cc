// Wire-protocol tests (serve/net/wire.h): typed round trips for every
// opcode, loud specific rejection of bad magic / reserved bytes /
// unknown opcodes / oversized payloads, and the fuzz-style robustness
// sweep the snapshot-v2 corruption tests established: a byte flip at
// every offset and a truncation at every length of a valid frame must
// be classified cleanly (frame / need-more / error) and must never
// invoke UB — the ASan+UBSan CI job runs this suite.
#include "serve/net/wire.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ptucker {
namespace {

std::vector<std::uint8_t> ValidPredictFrame() {
  return EncodePredictRequest(0x1122334455667788ULL, {7, -0, 42});
}

TEST(WireTest, PredictRoundTrip) {
  const std::vector<std::int64_t> coords = {3, 0, 1234567890123LL, -1};
  const std::vector<std::uint8_t> bytes = EncodePredictRequest(99, coords);
  WireFrame frame;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed,
                        &error),
            DecodeResult::kFrame)
      << error;
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(frame.opcode, Opcode::kPredict);
  EXPECT_EQ(frame.status, WireStatus::kOk);
  EXPECT_EQ(frame.request_id, 99u);
  PredictRequest request;
  ASSERT_TRUE(ParsePredictRequest(frame.payload, &request, &error)) << error;
  EXPECT_EQ(request.coords, coords);
}

TEST(WireTest, TopKRoundTrip) {
  const std::vector<std::int64_t> coords = {5, 0, 2};
  const std::vector<std::uint8_t> bytes = EncodeTopKRequest(7, 1, 10, coords);
  WireFrame frame;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed,
                        &error),
            DecodeResult::kFrame)
      << error;
  TopKRequest request;
  ASSERT_TRUE(ParseTopKRequest(frame.payload, &request, &error)) << error;
  EXPECT_EQ(request.mode, 1);
  EXPECT_EQ(request.k, 10);
  EXPECT_EQ(request.coords, coords);

  // Reply side: scores survive bit-exactly (raw IEEE-754 bytes).
  const std::vector<ScoredIndex> results = {{4, 1.25}, {0, -3.5e-7}};
  const std::vector<std::uint8_t> reply = EncodeTopKReply(7, results);
  ASSERT_EQ(DecodeFrame(reply.data(), reply.size(), &frame, &consumed,
                        &error),
            DecodeResult::kFrame);
  std::vector<ScoredIndex> decoded;
  ASSERT_TRUE(ParseTopKReply(frame, &decoded, &error)) << error;
  ASSERT_EQ(decoded.size(), results.size());
  for (std::size_t r = 0; r < results.size(); ++r) {
    EXPECT_EQ(decoded[r].index, results[r].index);
    EXPECT_EQ(decoded[r].score, results[r].score);
  }
}

TEST(WireTest, PredictReplyRoundTripAndErrorReply) {
  const std::vector<std::uint8_t> reply = EncodePredictReply(11, 2.75);
  WireFrame frame;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(DecodeFrame(reply.data(), reply.size(), &frame, &consumed,
                        &error),
            DecodeResult::kFrame);
  double value = 0.0;
  ASSERT_TRUE(ParsePredictReply(frame, &value, &error)) << error;
  EXPECT_EQ(value, 2.75);

  const std::vector<std::uint8_t> err_reply = EncodeErrorReply(
      Opcode::kPredict, 11, WireStatus::kBadRequest, "coordinate out of bounds");
  ASSERT_EQ(DecodeFrame(err_reply.data(), err_reply.size(), &frame, &consumed,
                        &error),
            DecodeResult::kFrame);
  EXPECT_EQ(frame.status, WireStatus::kBadRequest);
  EXPECT_FALSE(ParsePredictReply(frame, &value, &error));
  EXPECT_NE(error.find("coordinate out of bounds"), std::string::npos);
}

TEST(WireTest, RejectsBadMagicAtItsFirstWrongByte) {
  std::vector<std::uint8_t> bytes = ValidPredictFrame();
  bytes[2] ^= 0x20;
  WireFrame frame;
  std::size_t consumed = 0;
  std::string error;
  // Even a 3-byte prefix is enough to convict a wrong magic byte.
  EXPECT_EQ(DecodeFrame(bytes.data(), 3, &frame, &consumed, &error),
            DecodeResult::kError);
  EXPECT_NE(error.find("bad magic byte at offset 2"), std::string::npos);
}

TEST(WireTest, RejectsReservedBytesUnknownOpcodeAndOversizedPayload) {
  WireFrame frame;
  std::size_t consumed = 0;
  std::string error;

  std::vector<std::uint8_t> reserved = ValidPredictFrame();
  reserved[6] = 1;
  EXPECT_EQ(DecodeFrame(reserved.data(), reserved.size(), &frame, &consumed,
                        &error),
            DecodeResult::kError);
  EXPECT_NE(error.find("reserved"), std::string::npos);

  std::vector<std::uint8_t> opcode = ValidPredictFrame();
  opcode[4] = 0x77;
  EXPECT_EQ(DecodeFrame(opcode.data(), opcode.size(), &frame, &consumed,
                        &error),
            DecodeResult::kError);
  EXPECT_NE(error.find("unknown opcode 119"), std::string::npos);

  // Byte 4 was the positional STATS opcode; it stays reserved and is
  // rejected exactly like a never-assigned value.
  std::vector<std::uint8_t> retired = EncodeEmptyFrame(Opcode::kPing, 3);
  retired[4] = 4;
  EXPECT_EQ(DecodeFrame(retired.data(), retired.size(), &frame, &consumed,
                        &error),
            DecodeResult::kError);
  EXPECT_NE(error.find("unknown opcode 4"), std::string::npos);

  std::vector<std::uint8_t> oversized = ValidPredictFrame();
  oversized[19] = 0xFF;  // length's top byte: ~4 GB payload claim
  EXPECT_EQ(DecodeFrame(oversized.data(), oversized.size(), &frame, &consumed,
                        &error),
            DecodeResult::kError);
  EXPECT_NE(error.find("exceeds"), std::string::npos);
}

// Truncation sweep: every proper prefix of a valid frame is a valid
// prefix — the decoder must ask for more bytes, never error, never
// fabricate a frame, and never read past the prefix (ASan-checked).
TEST(WireTest, TruncationSweepAlwaysNeedsMore) {
  const std::vector<std::uint8_t> bytes = ValidPredictFrame();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    // A fresh exact-size copy puts poisoned redzones right past `len`.
    const std::vector<std::uint8_t> prefix(bytes.begin(),
                                           bytes.begin() +
                                               static_cast<std::ptrdiff_t>(len));
    WireFrame frame;
    std::size_t consumed = 0;
    std::string error;
    EXPECT_EQ(DecodeFrame(prefix.data(), prefix.size(), &frame, &consumed,
                          &error),
              DecodeResult::kNeedMore)
        << "prefix length " << len;
  }
}

// Byte-flip sweep (the snapshot_v2_test discipline): two flips at every
// offset of a valid frame. Every mutation must classify cleanly —
// header corruption is a loud error, payload/id corruption may still
// decode (those bytes are opaque at the framing layer) but the typed
// parser must then either reject it or produce a well-formed request.
// Nothing may crash, hang, or touch memory out of bounds.
TEST(WireTest, ByteFlipSweepNeverMisbehaves) {
  const std::vector<std::uint8_t> bytes = ValidPredictFrame();
  for (std::size_t offset = 0; offset < bytes.size(); ++offset) {
    for (const std::uint8_t flip : {std::uint8_t{0x01}, std::uint8_t{0xFF}}) {
      std::vector<std::uint8_t> mutated = bytes;
      mutated[offset] ^= flip;
      WireFrame frame;
      std::size_t consumed = 0;
      std::string error;
      const DecodeResult result = DecodeFrame(
          mutated.data(), mutated.size(), &frame, &consumed, &error);
      if (offset < 4 || offset == 6 || offset == 7) {
        // Magic and reserved bytes: always a specific, fatal error.
        EXPECT_EQ(result, DecodeResult::kError)
            << "offset " << offset << " flip " << int(flip);
        EXPECT_FALSE(error.empty());
        continue;
      }
      switch (result) {
        case DecodeResult::kFrame: {
          ASSERT_LE(consumed, mutated.size());
          // The typed layer must stay crash-free on whatever survived.
          PredictRequest request;
          std::string parse_error;
          if (!ParsePredictRequest(frame.payload, &request, &parse_error)) {
            EXPECT_FALSE(parse_error.empty());
          }
          break;
        }
        case DecodeResult::kNeedMore:
          break;  // a shrunken length field wants more bytes — fine
        case DecodeResult::kError:
          EXPECT_FALSE(error.empty())
              << "offset " << offset << " flip " << int(flip);
          break;
      }
    }
  }
}

TEST(WireTest, TypedParsersRejectSizeAndRangeViolations) {
  std::string error;
  PredictRequest predict;
  EXPECT_FALSE(ParsePredictRequest({}, &predict, &error));
  EXPECT_NE(error.find("too short"), std::string::npos);

  std::vector<std::uint8_t> zero_order;
  AppendU32(&zero_order, 0);
  EXPECT_FALSE(ParsePredictRequest(zero_order, &predict, &error));
  EXPECT_NE(error.find("outside"), std::string::npos);

  std::vector<std::uint8_t> huge_order;
  AppendU32(&huge_order, kMaxWireOrder + 1);
  EXPECT_FALSE(ParsePredictRequest(huge_order, &predict, &error));

  std::vector<std::uint8_t> short_coords;
  AppendU32(&short_coords, 3);
  AppendI64(&short_coords, 1);  // promises 3 coords, ships 1
  EXPECT_FALSE(ParsePredictRequest(short_coords, &predict, &error));
  EXPECT_NE(error.find("want"), std::string::npos);

  TopKRequest topk;
  std::vector<std::uint8_t> bad_mode;
  AppendU32(&bad_mode, 3);
  AppendU32(&bad_mode, 3);  // mode == order
  AppendU32(&bad_mode, 5);
  for (int n = 0; n < 3; ++n) AppendI64(&bad_mode, 0);
  EXPECT_FALSE(ParseTopKRequest(bad_mode, &topk, &error));
  EXPECT_NE(error.find("mode"), std::string::npos);

  std::vector<std::uint8_t> bad_k;
  AppendU32(&bad_k, 3);
  AppendU32(&bad_k, 1);
  AppendU32(&bad_k, 0);  // k == 0
  for (int n = 0; n < 3; ++n) AppendI64(&bad_k, 0);
  EXPECT_FALSE(ParseTopKRequest(bad_k, &topk, &error));
  EXPECT_NE(error.find("k 0"), std::string::npos);
}

}  // namespace
}  // namespace ptucker

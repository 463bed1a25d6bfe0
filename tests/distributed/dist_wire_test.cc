#include "distributed/proc/dist_wire.h"

#include <gtest/gtest.h>

#include "serve/net/wire.h"

namespace ptucker {
namespace {

TEST(DistWireTest, FrameRoundTripCarriesOpcodeTagAndPayload) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 255};
  const std::vector<std::uint8_t> bytes =
      EncodeDistFrame(DistOpcode::kRows, 42, payload);
  ASSERT_EQ(bytes.size(), kFrameHeaderSize + payload.size());
  DistFrame frame;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(DecodeDistFrame(bytes.data(), bytes.size(), &frame, &consumed,
                            &error),
            DecodeResult::kFrame)
      << error;
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(frame.opcode, DistOpcode::kRows);
  EXPECT_EQ(frame.tag, 42u);
  EXPECT_EQ(frame.payload, payload);
}

TEST(DistWireTest, EveryTruncatedPrefixAsksForMoreBytes) {
  const std::vector<std::uint8_t> bytes =
      EncodeDistFrame(DistOpcode::kSolveMode, 7, EncodeSolveMode(2));
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    DistFrame frame;
    std::size_t consumed = 0;
    std::string error;
    EXPECT_EQ(DecodeDistFrame(bytes.data(), len, &frame, &consumed, &error),
              DecodeResult::kNeedMore)
        << "prefix length " << len;
  }
}

TEST(DistWireTest, MagicCorruptionConvictedAtFirstBadByte) {
  const std::vector<std::uint8_t> bytes =
      EncodeDistFrame(DistOpcode::kHello, 0, EncodeHello(0, 2, 1));
  for (std::size_t b = 0; b < 4; ++b) {
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[b] ^= 0x20;
    DistFrame frame;
    std::size_t consumed = 0;
    std::string error;
    // Conviction must not need more than the bad byte itself.
    EXPECT_EQ(DecodeDistFrame(corrupt.data(), b + 1, &frame, &consumed,
                              &error),
              DecodeResult::kError);
    EXPECT_NE(error.find("bad magic byte at offset " + std::to_string(b)),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("not a PTKD stream"), std::string::npos) << error;
  }
}

TEST(DistWireTest, ReservedBytesAndUnknownOpcodesRejected) {
  const std::vector<std::uint8_t> bytes =
      EncodeDistFrame(DistOpcode::kAck, 1, {});
  DistFrame frame;
  std::size_t consumed = 0;
  std::string error;

  std::vector<std::uint8_t> corrupt = bytes;
  corrupt[6] = 1;
  EXPECT_EQ(DecodeDistFrame(corrupt.data(), corrupt.size(), &frame, &consumed,
                            &error),
            DecodeResult::kError);
  EXPECT_NE(error.find("reserved header bytes"), std::string::npos) << error;

  corrupt = bytes;
  corrupt[4] = 0;  // below kHello
  EXPECT_EQ(DecodeDistFrame(corrupt.data(), corrupt.size(), &frame, &consumed,
                            &error),
            DecodeResult::kError);
  EXPECT_NE(error.find("unknown opcode"), std::string::npos) << error;

  corrupt = bytes;
  corrupt[4] = 200;  // above kAbort
  EXPECT_EQ(DecodeDistFrame(corrupt.data(), corrupt.size(), &frame, &consumed,
                            &error),
            DecodeResult::kError);
  EXPECT_NE(error.find("unknown opcode"), std::string::npos) << error;
}

TEST(DistWireTest, HostilePayloadLengthRejected) {
  std::vector<std::uint8_t> bytes = EncodeDistFrame(DistOpcode::kRows, 3, {});
  // Overwrite the length field with something past the 1 GiB cap.
  const std::uint32_t huge = kMaxDistPayload + 1;
  bytes[16] = static_cast<std::uint8_t>(huge & 0xFF);
  bytes[17] = static_cast<std::uint8_t>((huge >> 8) & 0xFF);
  bytes[18] = static_cast<std::uint8_t>((huge >> 16) & 0xFF);
  bytes[19] = static_cast<std::uint8_t>((huge >> 24) & 0xFF);
  DistFrame frame;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(DecodeDistFrame(bytes.data(), bytes.size(), &frame, &consumed,
                            &error),
            DecodeResult::kError);
  EXPECT_NE(error.find("exceeds the"), std::string::npos) << error;
}

TEST(DistWireTest, CrossProtocolFramesRejectedThroughSharedCodec) {
  // A PTKN serving frame fed to the DIST decoder dies on the magic
  // mismatch — and vice versa — through the one shared header codec.
  const std::vector<std::uint8_t> ptkn = EncodePredictRequest(9, {1, 2, 3});
  DistFrame dist_frame;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(DecodeDistFrame(ptkn.data(), ptkn.size(), &dist_frame, &consumed,
                            &error),
            DecodeResult::kError);
  EXPECT_NE(error.find("not a PTKD stream"), std::string::npos) << error;

  const std::vector<std::uint8_t> ptkd =
      EncodeDistFrame(DistOpcode::kHello, 0, EncodeHello(1, 2, 1));
  WireFrame wire_frame;
  EXPECT_EQ(DecodeFrame(ptkd.data(), ptkd.size(), &wire_frame, &consumed,
                        &error),
            DecodeResult::kError);
  EXPECT_NE(error.find("not a PTKN stream"), std::string::npos) << error;
}

TEST(DistWireTest, HelloRoundTrip) {
  std::int64_t rank = 0, workers = 0;
  std::uint32_t version = 0;
  std::string error;
  ASSERT_TRUE(ParseHello(EncodeHello(3, 8, kDistProtocolVersion), &rank,
                         &workers, &version, &error))
      << error;
  EXPECT_EQ(rank, 3);
  EXPECT_EQ(workers, 8);
  EXPECT_EQ(version, kDistProtocolVersion);
  EXPECT_FALSE(ParseHello({1, 2, 3}, &rank, &workers, &version, &error));
}

TEST(DistWireTest, RowBlockRoundTripIsBitExact) {
  Matrix factor(5, 3);
  for (std::int64_t i = 0; i < 5; ++i) {
    for (std::int64_t j = 0; j < 3; ++j) {
      // Include values with no short decimal form: bit-exactness matters.
      *(factor.Row(i) + j) = (static_cast<double>(i * 3 + j) + 0.1) / 0.7;
    }
  }
  DistRowBlock block;
  std::string error;
  ASSERT_TRUE(ParseRowBlock(EncodeRowBlock(1, factor, 2, 3), &block, &error))
      << error;
  EXPECT_EQ(block.mode, 1);
  EXPECT_EQ(block.row_begin, 2);
  EXPECT_EQ(block.row_count, 3);
  EXPECT_EQ(block.cols, 3);
  ASSERT_EQ(block.values.size(), 9u);
  for (std::size_t i = 0; i < block.values.size(); ++i) {
    EXPECT_EQ(block.values[i], *(factor.Row(2) + static_cast<std::int64_t>(i)));
  }
}

TEST(DistWireTest, EmptyRowBlockRoundTrips) {
  // Workers owning no rows of a small mode still answer with a (valid,
  // empty) block.
  Matrix factor(2, 4);
  DistRowBlock block;
  std::string error;
  ASSERT_TRUE(ParseRowBlock(EncodeRowBlock(0, factor, 0, 0), &block, &error))
      << error;
  EXPECT_EQ(block.row_count, 0);
  EXPECT_TRUE(block.values.empty());
}

TEST(DistWireTest, RowBlockSizeMismatchRejected) {
  Matrix factor(4, 2);
  std::vector<std::uint8_t> payload = EncodeRowBlock(0, factor, 0, 4);
  payload.pop_back();
  DistRowBlock block;
  std::string error;
  EXPECT_FALSE(ParseRowBlock(payload, &block, &error));
  EXPECT_NE(error.find("want"), std::string::npos) << error;
}

TEST(DistWireTest, RowBlockSizeOverflowRejected) {
  // Header-only payloads whose row_count · cols · 8 overflows: the parser
  // must refuse them before sizing anything from the header.
  struct Header {
    std::int64_t row_count;
    std::uint32_t cols;
  };
  for (const Header& header : {Header{std::int64_t{1} << 61, 1u},
                               Header{std::int64_t{1} << 33, 1u << 31}}) {
    std::vector<std::uint8_t> payload;
    AppendU32(&payload, 0);          // mode
    AppendI64(&payload, 0);          // row_begin
    AppendI64(&payload, header.row_count);
    AppendU32(&payload, header.cols);
    ASSERT_EQ(payload.size(), 24u);
    DistRowBlock block;
    std::string error;
    EXPECT_FALSE(ParseRowBlock(payload, &block, &error));
    EXPECT_NE(error.find("row_count " + std::to_string(header.row_count)),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("cols " + std::to_string(header.cols)),
              std::string::npos)
        << error;
    EXPECT_TRUE(block.values.empty());
  }
}

TEST(DistWireTest, DoubleVectorSizeErrorNamesTheFullWant) {
  // The wanted size of a 2^32 − 1 element vector does not fit 32 bits.
  std::vector<std::uint8_t> payload;
  AppendU32(&payload, 0xffffffffu);
  std::vector<double> values;
  std::string error;
  EXPECT_FALSE(ParseDoubleVector(payload, &values, &error));
  EXPECT_NE(error.find("want 34359738364 "), std::string::npos) << error;
}

TEST(DistWireTest, DoubleVectorRoundTripIsBitExact) {
  const std::vector<double> values = {0.1, -2.5e300, 3.0 / 7.0, 0.0};
  std::vector<double> decoded;
  std::string error;
  ASSERT_TRUE(ParseDoubleVector(EncodeDoubleVector(values), &decoded, &error))
      << error;
  ASSERT_EQ(decoded.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(decoded[i], values[i]);
  }
}

TEST(DistWireTest, LaneBlockRoundTripAndRangeValidation) {
  const double values[] = {1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5};
  DistLaneBlock block;
  std::string error;
  ASSERT_TRUE(ParseLaneBlock(EncodeLaneBlock(10, 3, 2, values), &block,
                             &error))
      << error;
  EXPECT_EQ(block.first_lane, 10);
  EXPECT_EQ(block.lane_count, 3);
  EXPECT_EQ(block.width, 2);
  ASSERT_EQ(block.values.size(), 6u);
  EXPECT_EQ(block.values[5], 6.5);

  // A lane range past the fixed 64-lane partition is a protocol error.
  EXPECT_FALSE(ParseLaneBlock(EncodeLaneBlock(60, 8, 1, values), &block,
                              &error));
  EXPECT_NE(error.find("64-lane partition"), std::string::npos) << error;
}

}  // namespace
}  // namespace ptucker

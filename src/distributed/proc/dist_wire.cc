#include "distributed/proc/dist_wire.h"

namespace ptucker {

namespace {

bool KnownDistOpcode(std::uint8_t value) {
  return value >= static_cast<std::uint8_t>(DistOpcode::kHello) &&
         value <= static_cast<std::uint8_t>(DistOpcode::kAbort);
}

}  // namespace

const FrameProtocol& DistProtocol() {
  static const FrameProtocol protocol = {
      {kDistMagic[0], kDistMagic[1], kDistMagic[2], kDistMagic[3]},
      "PTKD",
      kMaxDistPayload,
      &KnownDistOpcode};
  return protocol;
}

std::vector<std::uint8_t> EncodeDistFrame(
    DistOpcode opcode, std::uint64_t tag,
    const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  EncodeFrameHeader(DistProtocol(), static_cast<std::uint8_t>(opcode),
                    /*status=*/0, tag, payload.data(), payload.size(), &out);
  return out;
}

DecodeResult DecodeDistFrame(const std::uint8_t* data, std::size_t size,
                             DistFrame* frame, std::size_t* consumed,
                             std::string* error) {
  RawFrame raw;
  const DecodeResult result =
      DecodeFrameHeader(DistProtocol(), data, size, &raw, consumed, error);
  if (result == DecodeResult::kFrame) {
    frame->opcode = static_cast<DistOpcode>(raw.opcode);
    frame->tag = raw.request_id;
    frame->payload = std::move(raw.payload);
  }
  return result;
}

std::vector<std::uint8_t> EncodeHello(std::int64_t rank, std::int64_t workers,
                                      std::uint32_t version) {
  std::vector<std::uint8_t> payload;
  AppendU32(&payload, static_cast<std::uint32_t>(rank));
  AppendU32(&payload, static_cast<std::uint32_t>(workers));
  AppendU32(&payload, version);
  return payload;
}

bool ParseHello(const std::vector<std::uint8_t>& payload, std::int64_t* rank,
                std::int64_t* workers, std::uint32_t* version,
                std::string* error) {
  if (payload.size() != 12) {
    *error = "hello payload is " + std::to_string(payload.size()) +
             " bytes, want 12";
    return false;
  }
  *rank = ReadU32(payload.data());
  *workers = ReadU32(payload.data() + 4);
  *version = ReadU32(payload.data() + 8);
  return true;
}

std::vector<std::uint8_t> EncodeSolveMode(std::int64_t mode) {
  std::vector<std::uint8_t> payload;
  AppendU32(&payload, static_cast<std::uint32_t>(mode));
  return payload;
}

bool ParseSolveMode(const std::vector<std::uint8_t>& payload,
                    std::int64_t* mode, std::string* error) {
  if (payload.size() != 4) {
    *error = "solve-mode payload is " + std::to_string(payload.size()) +
             " bytes, want 4";
    return false;
  }
  *mode = ReadU32(payload.data());
  return true;
}

std::vector<std::uint8_t> EncodeRowBlock(std::int64_t mode,
                                         const Matrix& factor,
                                         std::int64_t row_begin,
                                         std::int64_t row_count) {
  std::vector<std::uint8_t> payload;
  const std::int64_t cols = factor.cols();
  payload.reserve(28 + static_cast<std::size_t>(row_count * cols) * 8);
  AppendU32(&payload, static_cast<std::uint32_t>(mode));
  AppendI64(&payload, row_begin);
  AppendI64(&payload, row_count);
  AppendU32(&payload, static_cast<std::uint32_t>(cols));
  if (row_count > 0) {
    const double* data = factor.Row(row_begin);
    for (std::int64_t i = 0; i < row_count * cols; ++i) {
      AppendF64(&payload, data[i]);
    }
  }
  return payload;
}

bool ParseRowBlock(const std::vector<std::uint8_t>& payload,
                   DistRowBlock* block, std::string* error) {
  if (payload.size() < 24) {
    *error = "row-block payload too short for its header fields";
    return false;
  }
  block->mode = ReadU32(payload.data());
  block->row_begin = ReadI64(payload.data() + 4);
  block->row_count = ReadI64(payload.data() + 12);
  block->cols = ReadU32(payload.data() + 20);
  if (block->row_begin < 0 || block->row_count < 0 || block->cols < 1) {
    *error = "row-block range [" + std::to_string(block->row_begin) + ", +" +
             std::to_string(block->row_count) + ") x " +
             std::to_string(block->cols) + " is invalid";
    return false;
  }
  // Bound row_count by the bytes present before multiplying, so a hostile
  // header cannot overflow row_count · cols · 8.
  const std::size_t value_bytes = payload.size() - 24;
  const std::size_t row_bytes = static_cast<std::size_t>(block->cols) * 8;
  const std::size_t max_rows = value_bytes / row_bytes;
  if (static_cast<std::uint64_t>(block->row_count) > max_rows) {
    *error = "row-block row_count " + std::to_string(block->row_count) +
             " x cols " + std::to_string(block->cols) + " overruns the " +
             std::to_string(value_bytes) + " value bytes present (want " +
             "row_count <= " + std::to_string(max_rows) + ")";
    return false;
  }
  const std::size_t want =
      24 + static_cast<std::size_t>(block->row_count) * row_bytes;
  if (payload.size() != want) {
    *error = "row-block payload is " + std::to_string(payload.size()) +
             " bytes, want " + std::to_string(want) + " for " +
             std::to_string(block->row_count) + "x" +
             std::to_string(block->cols) + " rows";
    return false;
  }
  block->values.resize(
      static_cast<std::size_t>(block->row_count * block->cols));
  for (std::size_t i = 0; i < block->values.size(); ++i) {
    block->values[i] = ReadF64(payload.data() + 24 + i * 8);
  }
  return true;
}

std::vector<std::uint8_t> EncodeDoubleVector(
    const std::vector<double>& values) {
  std::vector<std::uint8_t> payload;
  payload.reserve(4 + values.size() * 8);
  AppendU32(&payload, static_cast<std::uint32_t>(values.size()));
  for (const double v : values) AppendF64(&payload, v);
  return payload;
}

bool ParseDoubleVector(const std::vector<std::uint8_t>& payload,
                       std::vector<double>* values, std::string* error) {
  if (payload.size() < 4) {
    *error = "vector payload too short for its length field";
    return false;
  }
  const std::uint32_t count = ReadU32(payload.data());
  const std::size_t want = 4 + static_cast<std::size_t>(count) * 8;
  if (payload.size() != want) {
    *error = "vector payload is " + std::to_string(payload.size()) +
             " bytes, want " + std::to_string(want) +
             " for length " + std::to_string(count);
    return false;
  }
  values->resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    (*values)[i] = ReadF64(payload.data() + 4 + i * 8);
  }
  return true;
}

std::vector<std::uint8_t> EncodeLaneBlock(std::int64_t first_lane,
                                          std::int64_t lane_count,
                                          std::int64_t width,
                                          const double* values) {
  std::vector<std::uint8_t> payload;
  payload.reserve(12 + static_cast<std::size_t>(lane_count * width) * 8);
  AppendU32(&payload, static_cast<std::uint32_t>(first_lane));
  AppendU32(&payload, static_cast<std::uint32_t>(lane_count));
  AppendU32(&payload, static_cast<std::uint32_t>(width));
  for (std::int64_t i = 0; i < lane_count * width; ++i) {
    AppendF64(&payload, values[i]);
  }
  return payload;
}

bool ParseLaneBlock(const std::vector<std::uint8_t>& payload,
                    DistLaneBlock* block, std::string* error) {
  if (payload.size() < 12) {
    *error = "lane-block payload too short for its header fields";
    return false;
  }
  block->first_lane = ReadU32(payload.data());
  block->lane_count = ReadU32(payload.data() + 4);
  block->width = ReadU32(payload.data() + 8);
  if (block->first_lane >= kReductionLanes ||
      block->first_lane + block->lane_count > kReductionLanes ||
      block->width < 1) {
    *error = "lane-block range [" + std::to_string(block->first_lane) + ", +" +
             std::to_string(block->lane_count) + ") x " +
             std::to_string(block->width) + " exceeds the " +
             std::to_string(kReductionLanes) + "-lane partition";
    return false;
  }
  const std::size_t want =
      12 + static_cast<std::size_t>(block->lane_count) *
               static_cast<std::size_t>(block->width) * 8;
  if (payload.size() != want) {
    *error = "lane-block payload is " + std::to_string(payload.size()) +
             " bytes, want " + std::to_string(want);
    return false;
  }
  block->values.resize(
      static_cast<std::size_t>(block->lane_count * block->width));
  for (std::size_t i = 0; i < block->values.size(); ++i) {
    block->values[i] = ReadF64(payload.data() + 12 + i * 8);
  }
  return true;
}

}  // namespace ptucker

#include "serve/net/wire.h"

namespace ptucker {

namespace {

// Valid wire opcodes; anything else in the opcode byte is a framing
// error (the stream may be garbage, so the connection is torn down).
// Byte 4, the retired STATS opcode, stays reserved and is rejected.
bool KnownOpcode(std::uint8_t value) {
  switch (static_cast<Opcode>(value)) {
    case Opcode::kPredict:
    case Opcode::kTopK:
    case Opcode::kPing:
    case Opcode::kMetrics:
      return true;
  }
  return false;
}

}  // namespace

const FrameProtocol& PtknProtocol() {
  static const FrameProtocol protocol = {
      {kWireMagic[0], kWireMagic[1], kWireMagic[2], kWireMagic[3]},
      "PTKN",
      kMaxWirePayload,
      &KnownOpcode};
  return protocol;
}

DecodeResult DecodeFrame(const std::uint8_t* data, std::size_t size,
                         WireFrame* frame, std::size_t* consumed,
                         std::string* error) {
  RawFrame raw;
  const DecodeResult result =
      DecodeFrameHeader(PtknProtocol(), data, size, &raw, consumed, error);
  if (result == DecodeResult::kFrame) {
    frame->opcode = static_cast<Opcode>(raw.opcode);
    frame->status = static_cast<WireStatus>(raw.status);
    frame->request_id = raw.request_id;
    frame->payload = std::move(raw.payload);
  }
  return result;
}

void EncodeFrame(Opcode opcode, WireStatus status, std::uint64_t request_id,
                 const std::uint8_t* payload, std::size_t payload_size,
                 std::vector<std::uint8_t>* out) {
  EncodeFrameHeader(PtknProtocol(), static_cast<std::uint8_t>(opcode),
                    static_cast<std::uint8_t>(status), request_id, payload,
                    payload_size, out);
}

std::vector<std::uint8_t> EncodePredictRequest(
    std::uint64_t request_id, const std::vector<std::int64_t>& coords) {
  std::vector<std::uint8_t> payload;
  AppendU32(&payload, static_cast<std::uint32_t>(coords.size()));
  for (const std::int64_t c : coords) AppendI64(&payload, c);
  std::vector<std::uint8_t> out;
  EncodeFrame(Opcode::kPredict, WireStatus::kOk, request_id, payload.data(),
              payload.size(), &out);
  return out;
}

bool ParsePredictRequest(const std::vector<std::uint8_t>& payload,
                         PredictRequest* out, std::string* error) {
  if (payload.size() < 4) {
    *error = "predict payload too short for the order field";
    return false;
  }
  const std::uint32_t order = ReadU32(payload.data());
  if (order < 1 || order > kMaxWireOrder) {
    *error = "predict order " + std::to_string(order) + " outside [1, " +
             std::to_string(kMaxWireOrder) + "]";
    return false;
  }
  if (payload.size() != 4 + static_cast<std::size_t>(order) * 8) {
    *error = "predict payload is " + std::to_string(payload.size()) +
             " bytes, want " + std::to_string(4 + order * 8) + " for order " +
             std::to_string(order);
    return false;
  }
  out->coords.resize(order);
  for (std::uint32_t n = 0; n < order; ++n) {
    out->coords[n] = ReadI64(payload.data() + 4 + n * 8);
  }
  return true;
}

std::vector<std::uint8_t> EncodeTopKRequest(
    std::uint64_t request_id, std::int64_t mode, std::int64_t k,
    const std::vector<std::int64_t>& coords) {
  std::vector<std::uint8_t> payload;
  AppendU32(&payload, static_cast<std::uint32_t>(coords.size()));
  AppendU32(&payload, static_cast<std::uint32_t>(mode));
  AppendU32(&payload, static_cast<std::uint32_t>(k));
  for (const std::int64_t c : coords) AppendI64(&payload, c);
  std::vector<std::uint8_t> out;
  EncodeFrame(Opcode::kTopK, WireStatus::kOk, request_id, payload.data(),
              payload.size(), &out);
  return out;
}

bool ParseTopKRequest(const std::vector<std::uint8_t>& payload,
                      TopKRequest* out, std::string* error) {
  if (payload.size() < 12) {
    *error = "topk payload too short for the order/mode/k fields";
    return false;
  }
  const std::uint32_t order = ReadU32(payload.data());
  const std::uint32_t mode = ReadU32(payload.data() + 4);
  const std::uint32_t k = ReadU32(payload.data() + 8);
  if (order < 1 || order > kMaxWireOrder) {
    *error = "topk order " + std::to_string(order) + " outside [1, " +
             std::to_string(kMaxWireOrder) + "]";
    return false;
  }
  if (mode >= order) {
    *error = "topk mode " + std::to_string(mode) + " out of range for order " +
             std::to_string(order);
    return false;
  }
  if (k < 1 || k > kMaxWireTopK) {
    *error = "topk k " + std::to_string(k) + " outside [1, " +
             std::to_string(kMaxWireTopK) + "]";
    return false;
  }
  if (payload.size() != 12 + static_cast<std::size_t>(order) * 8) {
    *error = "topk payload is " + std::to_string(payload.size()) +
             " bytes, want " + std::to_string(12 + order * 8) + " for order " +
             std::to_string(order);
    return false;
  }
  out->mode = mode;
  out->k = k;
  out->coords.resize(order);
  for (std::uint32_t n = 0; n < order; ++n) {
    out->coords[n] = ReadI64(payload.data() + 12 + n * 8);
  }
  return true;
}

std::vector<std::uint8_t> EncodePredictReply(std::uint64_t request_id,
                                             double value) {
  std::vector<std::uint8_t> payload;
  AppendF64(&payload, value);
  std::vector<std::uint8_t> out;
  EncodeFrame(Opcode::kPredict, WireStatus::kOk, request_id, payload.data(),
              payload.size(), &out);
  return out;
}

bool ParsePredictReply(const WireFrame& frame, double* value,
                       std::string* error) {
  if (frame.status != WireStatus::kOk) {
    *error = "server error " +
             std::to_string(static_cast<unsigned>(frame.status)) + ": " +
             std::string(frame.payload.begin(), frame.payload.end());
    return false;
  }
  if (frame.opcode != Opcode::kPredict || frame.payload.size() != 8) {
    *error = "malformed predict reply";
    return false;
  }
  *value = ReadF64(frame.payload.data());
  return true;
}

std::vector<std::uint8_t> EncodeTopKReply(
    std::uint64_t request_id, const std::vector<ScoredIndex>& results) {
  std::vector<std::uint8_t> payload;
  AppendU32(&payload, static_cast<std::uint32_t>(results.size()));
  for (const ScoredIndex& r : results) {
    AppendI64(&payload, r.index);
    AppendF64(&payload, r.score);
  }
  std::vector<std::uint8_t> out;
  EncodeFrame(Opcode::kTopK, WireStatus::kOk, request_id, payload.data(),
              payload.size(), &out);
  return out;
}

bool ParseTopKReply(const WireFrame& frame, std::vector<ScoredIndex>* results,
                    std::string* error) {
  if (frame.status != WireStatus::kOk) {
    *error = "server error " +
             std::to_string(static_cast<unsigned>(frame.status)) + ": " +
             std::string(frame.payload.begin(), frame.payload.end());
    return false;
  }
  if (frame.opcode != Opcode::kTopK || frame.payload.size() < 4) {
    *error = "malformed topk reply";
    return false;
  }
  const std::uint32_t count = ReadU32(frame.payload.data());
  if (frame.payload.size() != 4 + static_cast<std::size_t>(count) * 16) {
    *error = "topk reply count disagrees with its payload size";
    return false;
  }
  results->resize(count);
  for (std::uint32_t r = 0; r < count; ++r) {
    (*results)[r].index = ReadI64(frame.payload.data() + 4 + r * 16);
    (*results)[r].score = ReadF64(frame.payload.data() + 4 + r * 16 + 8);
  }
  return true;
}

std::vector<std::uint8_t> EncodeMetricsReply(std::uint64_t request_id,
                                             const std::string& text) {
  // The exposition text is served verbatim — the payload cap bounds it
  // the same way it bounds a top-K reply. A registry would need
  // thousands of metrics to approach 1 MiB; truncation here would be a
  // parse error on the client, so oversized text is a programming error
  // EncodeFrameHeader's length check turns into a loud throw.
  std::vector<std::uint8_t> out;
  EncodeFrame(Opcode::kMetrics, WireStatus::kOk, request_id,
              reinterpret_cast<const std::uint8_t*>(text.data()), text.size(),
              &out);
  return out;
}

bool ParseMetricsReply(const WireFrame& frame, std::string* text,
                       std::string* error) {
  if (frame.status != WireStatus::kOk) {
    *error = "server error " +
             std::to_string(static_cast<unsigned>(frame.status)) + ": " +
             std::string(frame.payload.begin(), frame.payload.end());
    return false;
  }
  if (frame.opcode != Opcode::kMetrics) {
    *error = "malformed metrics reply";
    return false;
  }
  text->assign(frame.payload.begin(), frame.payload.end());
  return true;
}

std::vector<std::uint8_t> EncodeEmptyFrame(Opcode opcode,
                                           std::uint64_t request_id) {
  std::vector<std::uint8_t> out;
  EncodeFrame(opcode, WireStatus::kOk, request_id, nullptr, 0, &out);
  return out;
}

std::vector<std::uint8_t> EncodeErrorReply(Opcode opcode,
                                           std::uint64_t request_id,
                                           WireStatus status,
                                           const std::string& message) {
  std::vector<std::uint8_t> out;
  EncodeFrame(opcode, status, request_id,
              reinterpret_cast<const std::uint8_t*>(message.data()),
              message.size(), &out);
  return out;
}

}  // namespace ptucker

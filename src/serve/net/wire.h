/// \file
/// \brief The serving wire protocol: little-endian length-prefixed
/// binary frames carrying predict / top-K / ping / metrics requests and
/// their replies. The framing layer (EncodeFrame/DecodeFrame) is shared
/// by the server's per-connection decoder, the NetClient, and the load
/// generator, so the two sides cannot drift. Malformed input is
/// rejected loudly and specifically — bad magic, nonzero reserved
/// bytes, unknown opcodes, and oversized payloads are framing errors
/// the connection cannot recover from, while bad payload *contents*
/// (wrong sizes, out-of-range coordinates) are request-level errors
/// answered with an error reply on a still-healthy connection. The
/// decoder never reads past the bytes it is given and never invokes UB
/// on hostile input (tests/serve/net/wire_test.cc sweeps byte flips and
/// truncations over valid frames, the snapshot-v2 corruption-sweep
/// discipline). The header encode/decode itself lives in the
/// protocol-agnostic codec serve/net/frame.h, which this protocol shares
/// with the PTKD distributed family — reserved-byte, magic, opcode, and
/// length violations are rejected through one code path for both. See
/// docs/serving.md for the spec tables.
#ifndef PTUCKER_SERVE_NET_WIRE_H_
#define PTUCKER_SERVE_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/net/frame.h"
#include "serve/service.h"

namespace ptucker {

/// Frame layout (all integers little-endian):
///
///   offset  size  field
///        0     4  magic "PTKN"
///        4     1  opcode (Opcode below; replies echo the request's)
///        5     1  status (requests: 0; replies: 0 = OK, else WireStatus)
///        6     2  reserved, must be zero
///        8     8  request id (echoed verbatim in the reply)
///       16     4  payload length in bytes, <= kMaxWirePayload
///       20     …  payload
constexpr std::size_t kWireHeaderSize = kFrameHeaderSize;

/// Hard cap on a frame's payload: large enough for a 64k-entry top-K
/// reply, small enough that one hostile length field cannot balloon a
/// connection's buffer.
constexpr std::uint32_t kMaxWirePayload = 1u << 20;

/// The protocol magic, byte-for-byte ('P','T','K','N').
constexpr std::uint8_t kWireMagic[4] = {0x50, 0x54, 0x4B, 0x4E};

/// Request/reply opcodes. Values are wire bytes — never renumber. Byte
/// 4 (the retired positional STATS) is reserved: never reused, and
/// rejected as an unknown opcode like any other value not listed here.
enum class Opcode : std::uint8_t {
  kPredict = 1,  ///< x̂ at one coordinate; reply payload = f64
  kTopK = 2,     ///< top-K along one mode; reply payload = scored list
  kPing = 3,     ///< liveness probe; empty payload both ways
  kMetrics = 5,  ///< self-describing telemetry; reply payload = UTF-8
                 ///< Prometheus-style exposition text
                 ///< (docs/observability.md)
};

/// Reply status codes (the `status` header byte). Values are wire
/// bytes — never renumber.
enum class WireStatus : std::uint8_t {
  kOk = 0,          ///< success; reply payload is the typed result
  kMalformed = 1,   ///< framing broken (bad magic/reserved/opcode/length);
                    ///< the server replies once with request id 0 and
                    ///< closes, since byte sync is unrecoverable
  kBadRequest = 2,  ///< payload contents invalid (sizes, ranges, modes);
                    ///< connection stays open
  kOverloaded = 3,  ///< load shed: the request queue refused the push
                    ///< past the server's overload deadline; retry
                    ///< later (connection stays open)
  kInternal = 4,    ///< unexpected server-side failure
};

/// One decoded frame. `payload` is copied out of the connection buffer
/// so the frame outlives further reads.
struct WireFrame {
  Opcode opcode = Opcode::kPing;
  WireStatus status = WireStatus::kOk;
  std::uint64_t request_id = 0;
  std::vector<std::uint8_t> payload;
};

/// The PTKN protocol descriptor for the shared frame codec
/// (serve/net/frame.h): magic, payload cap, and opcode table in one
/// place, so PTKN and PTKD validate headers through the same path.
const FrameProtocol& PtknProtocol();

/// Decodes at most one frame from `data[0..size)`. On kFrame, fills
/// `frame` and sets `*consumed` to the frame's full size. On kError,
/// `*error` describes the specific violation (bad magic, reserved
/// bytes, unknown opcode, oversized payload). Never reads outside
/// `data[0..size)`.
DecodeResult DecodeFrame(const std::uint8_t* data, std::size_t size,
                         WireFrame* frame, std::size_t* consumed,
                         std::string* error);

/// Appends one encoded frame (header + payload) to `out`.
void EncodeFrame(Opcode opcode, WireStatus status, std::uint64_t request_id,
                 const std::uint8_t* payload, std::size_t payload_size,
                 std::vector<std::uint8_t>* out);

/// Decoded PREDICT request: payload = u32 order N, then N i64 0-based
/// coordinates.
struct PredictRequest {
  std::vector<std::int64_t> coords;
};

/// Decoded TOPK request: payload = u32 order N, u32 mode, u32 k, then
/// N i64 coordinates (the `mode` slot is a placeholder).
struct TopKRequest {
  std::int64_t mode = 0;
  std::int64_t k = 0;
  std::vector<std::int64_t> coords;
};

/// Orders above this are rejected as kBadRequest — no model in this
/// codebase is remotely close, and the bound keeps request memory tiny.
constexpr std::uint32_t kMaxWireOrder = 16;
/// k above this is rejected as kBadRequest: it bounds the reply to
/// kMaxWirePayload.
constexpr std::uint32_t kMaxWireTopK = 65535;

/// \name Typed request payload codecs
/// Parse* return false and fill `*error` on size/range violations (the
/// caller answers kBadRequest); they never throw and never read outside
/// the payload.
///@{
std::vector<std::uint8_t> EncodePredictRequest(
    std::uint64_t request_id, const std::vector<std::int64_t>& coords);
bool ParsePredictRequest(const std::vector<std::uint8_t>& payload,
                         PredictRequest* out, std::string* error);
std::vector<std::uint8_t> EncodeTopKRequest(
    std::uint64_t request_id, std::int64_t mode, std::int64_t k,
    const std::vector<std::int64_t>& coords);
bool ParseTopKRequest(const std::vector<std::uint8_t>& payload,
                      TopKRequest* out, std::string* error);
///@}

/// \name Reply codecs
/// Replies echo the request id; error replies carry the UTF-8 message
/// as their payload.
///@{
std::vector<std::uint8_t> EncodePredictReply(std::uint64_t request_id,
                                             double value);
bool ParsePredictReply(const WireFrame& frame, double* value,
                       std::string* error);
std::vector<std::uint8_t> EncodeTopKReply(
    std::uint64_t request_id, const std::vector<ScoredIndex>& results);
bool ParseTopKReply(const WireFrame& frame, std::vector<ScoredIndex>* results,
                    std::string* error);
std::vector<std::uint8_t> EncodeMetricsReply(std::uint64_t request_id,
                                             const std::string& text);
bool ParseMetricsReply(const WireFrame& frame, std::string* text,
                       std::string* error);
std::vector<std::uint8_t> EncodeEmptyFrame(Opcode opcode,
                                           std::uint64_t request_id);
std::vector<std::uint8_t> EncodeErrorReply(Opcode opcode,
                                           std::uint64_t request_id,
                                           WireStatus status,
                                           const std::string& message);
///@}

}  // namespace ptucker

#endif  // PTUCKER_SERVE_NET_WIRE_H_

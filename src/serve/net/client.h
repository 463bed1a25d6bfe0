/// \file
/// \brief NetClient: a deliberately tiny blocking TCP client for the
/// PTKN wire protocol — the counterpart the smoke/reload tests and the
/// bench_serving_net load generator drive the server with. One socket,
/// sequential request/reply, no internal threading: each typed call
/// sends one frame and blocks until its reply decodes. SendBytes lets
/// robustness tests ship deliberately hostile bytes down the same
/// socket.
#ifndef PTUCKER_SERVE_NET_CLIENT_H_
#define PTUCKER_SERVE_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/net/wire.h"
#include "serve/service.h"

namespace ptucker {

/// Blocking loopback/LAN client. Methods throw std::runtime_error on
/// socket failure, a closed connection, or an error reply (the server's
/// message is included verbatim).
class NetClient {
 public:
  /// Connects to `host`:`port` (dotted-quad IPv4, e.g. "127.0.0.1").
  NetClient(const std::string& host, int port);
  ~NetClient();

  /// x̂ at `coords` (0-based, one per mode).
  double Predict(const std::vector<std::int64_t>& coords);

  /// Top-`k` along `mode`; `coords`' scanned slot is a placeholder.
  std::vector<ScoredIndex> TopK(std::int64_t mode, std::int64_t k,
                                const std::vector<std::int64_t>& coords);

  /// Liveness round trip; throws if the reply id or opcode mismatches.
  void Ping();

  /// The server's self-describing telemetry: Prometheus-style
  /// exposition text from the METRICS opcode (docs/observability.md).
  std::string Metrics();

  /// Ships raw bytes as-is (hostile-input tests).
  void SendBytes(const std::uint8_t* data, std::size_t size);

  /// Blocks for the next frame. Returns false on orderly server close;
  /// throws on socket errors or an undecodable byte stream.
  bool ReceiveFrame(WireFrame* frame);

  /// Closes the socket early (destructor otherwise).
  void Close();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

 private:
  /// Sends `request`, receives one frame, and checks it echoes
  /// `request_id`. Throws on error replies and protocol violations.
  WireFrame RoundTrip(const std::vector<std::uint8_t>& request,
                      std::uint64_t request_id);

  int fd_ = -1;
  std::uint64_t next_id_ = 1;
  std::vector<std::uint8_t> buffer_;  ///< received, not yet decoded
};

}  // namespace ptucker

#endif  // PTUCKER_SERVE_NET_CLIENT_H_

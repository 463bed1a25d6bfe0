#include "serve/net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace ptucker {

namespace {

[[noreturn]] void ThrowErrno(const std::string& what) {
  throw std::runtime_error("net-client: " + what + ": " +
                           std::strerror(errno));
}

}  // namespace

NetClient::NetClient(const std::string& host, int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) ThrowErrno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("net-client: bad IPv4 address '" + host + "'");
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    ThrowErrno("connect to " + host + ":" + std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

NetClient::~NetClient() { Close(); }

void NetClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void NetClient::SendBytes(const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    ThrowErrno("send");
  }
}

bool NetClient::ReceiveFrame(WireFrame* frame) {
  while (true) {
    std::size_t consumed = 0;
    std::string error;
    const DecodeResult result = DecodeFrame(
        buffer_.data(), buffer_.size(), frame, &consumed, &error);
    if (result == DecodeResult::kFrame) {
      buffer_.erase(buffer_.begin(),
                    buffer_.begin() + static_cast<std::ptrdiff_t>(consumed));
      return true;
    }
    if (result == DecodeResult::kError) {
      throw std::runtime_error("net-client: undecodable reply stream: " +
                               error);
    }
    std::uint8_t chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer_.insert(buffer_.end(), chunk, chunk + n);
      continue;
    }
    if (n == 0) return false;  // orderly server close
    if (errno == EINTR) continue;
    ThrowErrno("recv");
  }
}

WireFrame NetClient::RoundTrip(const std::vector<std::uint8_t>& request,
                               std::uint64_t request_id) {
  SendBytes(request.data(), request.size());
  WireFrame frame;
  if (!ReceiveFrame(&frame)) {
    throw std::runtime_error(
        "net-client: server closed the connection mid-request");
  }
  if (frame.request_id != request_id) {
    throw std::runtime_error("net-client: reply id " +
                             std::to_string(frame.request_id) +
                             " does not echo request id " +
                             std::to_string(request_id));
  }
  return frame;
}

double NetClient::Predict(const std::vector<std::int64_t>& coords) {
  const std::uint64_t id = next_id_++;
  const WireFrame frame = RoundTrip(EncodePredictRequest(id, coords), id);
  double value = 0.0;
  std::string error;
  if (!ParsePredictReply(frame, &value, &error)) {
    throw std::runtime_error("net-client: " + error);
  }
  return value;
}

std::vector<ScoredIndex> NetClient::TopK(
    std::int64_t mode, std::int64_t k,
    const std::vector<std::int64_t>& coords) {
  const std::uint64_t id = next_id_++;
  const WireFrame frame =
      RoundTrip(EncodeTopKRequest(id, mode, k, coords), id);
  std::vector<ScoredIndex> results;
  std::string error;
  if (!ParseTopKReply(frame, &results, &error)) {
    throw std::runtime_error("net-client: " + error);
  }
  return results;
}

void NetClient::Ping() {
  const std::uint64_t id = next_id_++;
  const WireFrame frame =
      RoundTrip(EncodeEmptyFrame(Opcode::kPing, id), id);
  if (frame.opcode != Opcode::kPing || frame.status != WireStatus::kOk) {
    throw std::runtime_error("net-client: malformed ping reply");
  }
}

std::string NetClient::Metrics() {
  const std::uint64_t id = next_id_++;
  const WireFrame frame =
      RoundTrip(EncodeEmptyFrame(Opcode::kMetrics, id), id);
  std::string text;
  std::string error;
  if (!ParseMetricsReply(frame, &text, &error)) {
    throw std::runtime_error("net-client: " + error);
  }
  return text;
}

}  // namespace ptucker

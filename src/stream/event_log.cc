#include "stream/event_log.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace ptucker {

namespace {

[[noreturn]] void Malformed(std::size_t line, const std::string& what) {
  throw std::runtime_error("event log line " + std::to_string(line) + ": " +
                           what);
}

char OpChar(StreamOp op) {
  switch (op) {
    case StreamOp::kAppend:
      return 'a';
    case StreamOp::kUpdate:
      return 'u';
    case StreamOp::kDelete:
      return 'd';
  }
  throw std::logic_error("event log: unknown op");
}

}  // namespace

std::string FormatEventLog(const std::vector<StreamEvent>& events,
                           std::int64_t order) {
  if (order < 1) {
    throw std::invalid_argument("event log: order must be >= 1");
  }
  std::ostringstream out;
  out << "ptucker-stream v1 " << order << "\n";
  char value_buf[64];
  for (std::size_t e = 0; e < events.size(); ++e) {
    const StreamEvent& event = events[e];
    if (static_cast<std::int64_t>(event.index.size()) != order) {
      throw std::invalid_argument(
          "event log: event coordinate count does not match order");
    }
    if (event.op != StreamOp::kDelete && !std::isfinite(event.value)) {
      // The parser would reject the line: refuse to write it.
      throw std::invalid_argument("event log: events[" + std::to_string(e) +
                                  "] has a value that is not a finite number");
    }
    out << event.timestamp << ' ' << OpChar(event.op);
    for (const std::int64_t i : event.index) out << ' ' << i + 1;
    if (event.op != StreamOp::kDelete) {
      std::snprintf(value_buf, sizeof(value_buf), "%.*g",
                    std::numeric_limits<double>::max_digits10, event.value);
      out << ' ' << value_buf;
    }
    out << "\n";
  }
  return out.str();
}

std::vector<StreamEvent> ParseEventLog(const std::string& text,
                                       std::int64_t* order) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;

  if (!std::getline(in, line)) Malformed(1, "missing header");
  ++line_no;
  std::int64_t log_order = 0;
  {
    std::istringstream header(line);
    std::string magic, version;
    if (!(header >> magic >> version >> log_order) ||
        magic != "ptucker-stream" || version != "v1" || log_order < 1) {
      Malformed(line_no, "bad header (want 'ptucker-stream v1 <order>')");
    }
    std::string extra;
    if (header >> extra) Malformed(line_no, "trailing tokens in header");
  }
  if (order != nullptr) *order = log_order;

  std::vector<StreamEvent> events;
  std::int64_t previous_timestamp = std::numeric_limits<std::int64_t>::min();
  std::string value_token;  // reused across lines
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream fields(line);
    StreamEvent event;
    std::string op_token;
    if (!(fields >> event.timestamp >> op_token)) {
      Malformed(line_no, "expected '<timestamp> <op> ...'");
    }
    if (op_token == "a") {
      event.op = StreamOp::kAppend;
    } else if (op_token == "u") {
      event.op = StreamOp::kUpdate;
    } else if (op_token == "d") {
      event.op = StreamOp::kDelete;
    } else {
      Malformed(line_no, "unknown op '" + op_token + "' (want a, u, or d)");
    }
    if (event.timestamp < previous_timestamp) {
      Malformed(line_no, "timestamp decreases");
    }
    previous_timestamp = event.timestamp;
    event.index.resize(static_cast<std::size_t>(log_order));
    for (std::int64_t m = 0; m < log_order; ++m) {
      std::int64_t coord = 0;
      if (!(fields >> coord)) Malformed(line_no, "too few coordinates");
      if (coord < 1) Malformed(line_no, "coordinates are 1-based (got <= 0)");
      event.index[static_cast<std::size_t>(m)] = coord - 1;
    }
    if (event.op != StreamOp::kDelete) {
      if (!(fields >> value_token)) Malformed(line_no, "missing value");
      char* end = nullptr;
      event.value = std::strtod(value_token.c_str(), &end);
      if (end != value_token.c_str() + value_token.size() ||
          !std::isfinite(event.value)) {
        Malformed(line_no,
                  "value '" + value_token + "' is not a finite number");
      }
    }
    std::string extra;
    if (fields >> extra) Malformed(line_no, "trailing tokens");
    events.push_back(std::move(event));
  }
  return events;
}

void WriteEventLog(const std::string& path,
                   const std::vector<StreamEvent>& events,
                   std::int64_t order) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("event log: cannot write " + path);
  out << FormatEventLog(events, order);
  out.flush();
  if (!out) throw std::runtime_error("event log: write failed for " + path);
}

std::vector<StreamEvent> ReadEventLog(const std::string& path,
                                      std::int64_t* order) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("event log: cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseEventLog(buffer.str(), order);
}

}  // namespace ptucker

#ifndef PTUCKER_STREAM_EVENT_LOG_H_
#define PTUCKER_STREAM_EVENT_LOG_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ptucker {

/// One mutation of the observed set Ω.
enum class StreamOp : std::uint8_t {
  kAppend = 0,  ///< a new entry at a previously unobserved coordinate
  kUpdate = 1,  ///< a new value for an already-observed coordinate
  kDelete = 2,  ///< removal of an observed coordinate from Ω
};

/// A timestamped Ω mutation. Deletes carry no value (it is ignored).
struct StreamEvent {
  std::int64_t timestamp = 0;        ///< event time, non-decreasing in a log
  StreamOp op = StreamOp::kAppend;   ///< what happened at `index`
  std::vector<std::int64_t> index;   ///< coordinate (0-based, length = order)
  double value = 0.0;                ///< new value for append/update
};

/// Renders events as a replay log:
///
/// ```
/// ptucker-stream v1 <order>
/// <timestamp> a <i1> ... <iN> <value>
/// <timestamp> u <i1> ... <iN> <value>
/// <timestamp> d <i1> ... <iN>
/// ```
///
/// Coordinates are 1-based on the wire (matching the .tns convention);
/// values print with max_digits10 so a round trip is bit-exact. Every
/// event must have `order` coordinates, and every append or update a
/// finite value; otherwise throws std::invalid_argument naming the
/// event's position.
std::string FormatEventLog(const std::vector<StreamEvent>& events,
                           std::int64_t order);

/// Parses a replay log produced by FormatEventLog (or by hand). Throws
/// std::runtime_error with a line number on malformed input: bad header,
/// wrong coordinate count, non-positive coordinates, unknown op, a value
/// on a delete / a missing value elsewhere, a value that is not a finite
/// number, or a timestamp that decreases. `order` (if non-null) receives
/// the header's order.
std::vector<StreamEvent> ParseEventLog(const std::string& text,
                                       std::int64_t* order);

/// FormatEventLog straight to a file. Throws std::runtime_error when the
/// file cannot be written.
void WriteEventLog(const std::string& path,
                   const std::vector<StreamEvent>& events, std::int64_t order);

/// ParseEventLog straight from a file. Throws std::runtime_error when the
/// file cannot be read or is malformed.
std::vector<StreamEvent> ReadEventLog(const std::string& path,
                                      std::int64_t* order);

}  // namespace ptucker

#endif  // PTUCKER_STREAM_EVENT_LOG_H_

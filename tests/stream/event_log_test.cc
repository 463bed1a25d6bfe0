// The replay-log codec (stream/event_log.h): byte-exact round trips
// (including doubles printed at max_digits10), the documented header /
// coordinate / op grammar, and line-numbered rejection of every
// malformed shape — the same loud-parser discipline io.cc's .tns reader
// established.
#include "stream/event_log.h"

#include <cstdio>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ptucker {
namespace {

std::vector<StreamEvent> SampleEvents() {
  std::vector<StreamEvent> events;
  StreamEvent append;
  append.timestamp = 5;
  append.op = StreamOp::kAppend;
  append.index = {0, 2, 1};
  append.value = 0.1234567890123456789;  // exercises max_digits10
  events.push_back(append);
  StreamEvent update;
  update.timestamp = 5;  // equal timestamps are legal (non-decreasing)
  update.op = StreamOp::kUpdate;
  update.index = {3, 0, 4};
  update.value = -1.5e-17;
  events.push_back(update);
  StreamEvent del;
  del.timestamp = 9;
  del.op = StreamOp::kDelete;
  del.index = {0, 2, 1};
  events.push_back(del);
  return events;
}

TEST(EventLogTest, RoundTripIsExact) {
  const std::vector<StreamEvent> events = SampleEvents();
  const std::string text = FormatEventLog(events, 3);
  std::int64_t order = 0;
  const std::vector<StreamEvent> parsed = ParseEventLog(text, &order);
  EXPECT_EQ(order, 3);
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t e = 0; e < events.size(); ++e) {
    EXPECT_EQ(parsed[e].timestamp, events[e].timestamp);
    EXPECT_EQ(parsed[e].op, events[e].op);
    EXPECT_EQ(parsed[e].index, events[e].index);
    if (parsed[e].op != StreamOp::kDelete) {
      EXPECT_EQ(parsed[e].value, events[e].value);  // bit-exact
    }
  }
  // Formatting the parse reproduces the text byte for byte.
  EXPECT_EQ(FormatEventLog(parsed, order), text);
}

TEST(EventLogTest, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "event_log_test.log")
          .string();
  const std::vector<StreamEvent> events = SampleEvents();
  WriteEventLog(path, events, 3);
  std::int64_t order = 0;
  const std::vector<StreamEvent> parsed = ReadEventLog(path, &order);
  EXPECT_EQ(order, 3);
  EXPECT_EQ(FormatEventLog(parsed, order), FormatEventLog(events, 3));
  std::filesystem::remove(path);
  EXPECT_THROW(ReadEventLog(path, nullptr), std::runtime_error);
}

TEST(EventLogTest, EmptyLogRoundTrips) {
  std::int64_t order = 0;
  EXPECT_TRUE(ParseEventLog(FormatEventLog({}, 4), &order).empty());
  EXPECT_EQ(order, 4);
}

// The writer refuses what the parser would reject: a NaN or Inf append
// or update value, naming the event's position. A delete's value is not
// written, so it may be anything.
TEST(EventLogTest, FormatRejectsNonFiniteValues) {
  std::vector<StreamEvent> events = SampleEvents();
  events[0].value = std::numeric_limits<double>::quiet_NaN();
  try {
    FormatEventLog(events, 3);
    FAIL() << "formatted a NaN append";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("events[0]"), std::string::npos)
        << error.what();
  }
  events = SampleEvents();
  events[1].value = std::numeric_limits<double>::infinity();
  EXPECT_THROW(FormatEventLog(events, 3), std::invalid_argument);
  events = SampleEvents();
  events[2].value = std::numeric_limits<double>::quiet_NaN();  // the delete
  EXPECT_EQ(FormatEventLog(events, 3), FormatEventLog(SampleEvents(), 3));
}

// Every malformed shape dies loudly, naming the line.
TEST(EventLogTest, RejectsMalformedInput) {
  const auto expect_throw_mentioning = [](const std::string& text,
                                          const std::string& needle) {
    try {
      ParseEventLog(text, nullptr);
      FAIL() << "accepted: " << text;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
          << "message '" << error.what() << "' lacks '" << needle << "'";
    }
  };
  expect_throw_mentioning("", "header");
  expect_throw_mentioning("ptucker-stream v2 3\n", "header");
  expect_throw_mentioning("ptucker-stream v1 0\n", "header");
  expect_throw_mentioning("ptucker-stream v1 3 extra\n", "header");
  // unknown op
  expect_throw_mentioning("ptucker-stream v1 3\n1 x 1 2 3 0.5\n", "op");
  // too few coordinates
  expect_throw_mentioning("ptucker-stream v1 3\n1 a 1 2 0.5\n", "line 2");
  // 0-based (non-positive) coordinate
  expect_throw_mentioning("ptucker-stream v1 3\n1 a 0 2 3 0.5\n", "line 2");
  // missing value on an append
  expect_throw_mentioning("ptucker-stream v1 3\n1 a 1 2 3\n", "line 2");
  expect_throw_mentioning("ptucker-stream v1 3\n1 a 1 2 3\n",
                          "missing value");
  // a value token that is not a finite number
  expect_throw_mentioning("ptucker-stream v1 3\n1 a 1 2 3 nan\n",
                          "line 2: value 'nan' is not a finite number");
  expect_throw_mentioning("ptucker-stream v1 3\n1 u 1 2 3 inf\n",
                          "is not a finite number");
  expect_throw_mentioning("ptucker-stream v1 3\n1 a 1 2 3 1e999\n",
                          "is not a finite number");
  expect_throw_mentioning("ptucker-stream v1 3\n1 a 1 2 3 0.5x\n",
                          "is not a finite number");
  // trailing tokens after a delete
  expect_throw_mentioning("ptucker-stream v1 3\n1 d 1 2 3 0.5\n", "line 2");
  // decreasing timestamps
  expect_throw_mentioning(
      "ptucker-stream v1 3\n5 a 1 2 3 0.5\n4 a 1 2 4 0.5\n", "line 3");
}

}  // namespace
}  // namespace ptucker

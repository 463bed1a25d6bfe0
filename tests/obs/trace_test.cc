// obs/trace.h: the span tracer. The ring buffers must be bounded
// (overflow overwrites the oldest event and counts it — never blocks,
// never UB), the serialize/import path that ships worker rings in kBye
// must round-trip and reject malformed payloads gracefully, and —
// the core invariant — tracing must never perturb solver numerics:
// a traced solve's trajectory is bit-identical to an untraced one.
#include "obs/trace.h"

#if defined(__SANITIZE_THREAD__)
#define PTUCKER_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PTUCKER_TEST_TSAN 1
#endif
#endif

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ptucker.h"
#include "data/synthetic.h"
#include "util/random.h"

namespace ptucker {
namespace obs {
namespace {

bool ContainsName(const std::vector<TraceEvent>& events, const char* name) {
  for (const TraceEvent& event : events) {
    if (std::strcmp(event.name, name) == 0) return true;
  }
  return false;
}

TEST(ObsTraceTest, SpanMacroRecordsOnlyWhenEnabled) {
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  tracer.Enable();
  { PTUCKER_TRACE_SPAN("obs_test.enabled_span"); }
  EXPECT_TRUE(ContainsName(tracer.Snapshot(), "obs_test.enabled_span"));

  tracer.Disable();
  tracer.Clear();
  { PTUCKER_TRACE_SPAN("obs_test.disabled_span"); }
  EXPECT_TRUE(tracer.Snapshot().empty());
}

TEST(ObsTraceTest, RingOverflowOverwritesOldestAndCountsDrops) {
  Tracer tracer;
  tracer.SetCapacity(8);
  tracer.Enable();
  for (std::int64_t i = 0; i < 100; ++i) {
    tracer.Record("overflow", /*ts_us=*/i, /*dur_us=*/1);
  }
  const std::vector<TraceEvent> events = tracer.Snapshot();
  EXPECT_EQ(events.size(), 8u);
  EXPECT_EQ(tracer.dropped(), 92u);
  for (const TraceEvent& event : events) {
    // The survivors are the newest events; the oldest were overwritten.
    EXPECT_GE(event.ts_us, 92);
    EXPECT_LT(event.ts_us, 100);
  }
  tracer.Clear();
  EXPECT_TRUE(tracer.Snapshot().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(ObsTraceTest, SerializeImportRoundTripStampsPid) {
  Tracer source;
  source.Enable();
  source.Record("alpha", 10, 5);
  source.Record("beta", 20, 7);
  const std::vector<std::uint8_t> payload = source.SerializeEvents();

  Tracer sink;
  std::string error;
  ASSERT_TRUE(sink.ImportSerialized(payload, /*pid=*/3, &error)) << error;
  const std::vector<TraceEvent> events = sink.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  for (const TraceEvent& event : events) {
    EXPECT_EQ(event.pid, 3);
  }
  EXPECT_TRUE(ContainsName(events, "alpha"));
  EXPECT_TRUE(ContainsName(events, "beta"));
  for (const TraceEvent& event : events) {
    if (std::strcmp(event.name, "alpha") == 0) {
      EXPECT_EQ(event.ts_us, 10);
      EXPECT_EQ(event.dur_us, 5);
    }
  }
}

TEST(ObsTraceTest, ImportRejectsMalformedPayloads) {
  Tracer source;
  source.Enable();
  source.Record("gamma", 1, 2);
  const std::vector<std::uint8_t> good = source.SerializeEvents();

  Tracer sink;
  std::string error;

  std::vector<std::uint8_t> truncated(good.begin(),
                                      good.begin() + good.size() / 2);
  EXPECT_FALSE(sink.ImportSerialized(truncated, 1, &error));
  EXPECT_FALSE(error.empty());

  std::vector<std::uint8_t> bad_version = good;
  bad_version[0] ^= 0xff;
  EXPECT_FALSE(sink.ImportSerialized(bad_version, 1, &error));
  EXPECT_NE(error.find("version"), std::string::npos);

  std::vector<std::uint8_t> trailing = good;
  trailing.push_back(0);
  EXPECT_FALSE(sink.ImportSerialized(trailing, 1, &error));

  EXPECT_FALSE(sink.ImportSerialized({}, 1, &error));
}

TEST(ObsTraceTest, ChromeTraceJsonEscapesAndShapesEvents) {
  Tracer tracer;
  tracer.Enable();
  tracer.Record("quote\"back\\slash", 10, 5);
  const std::string json = tracer.ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"ptucker\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":10"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":5"), std::string::npos);
}

TEST(ObsTraceTest, WriteChromeTraceReportsIoErrors) {
  Tracer tracer;
  std::string error;
  EXPECT_FALSE(tracer.WriteChromeTrace(
      "/nonexistent-ptucker-dir/trace.json", &error));
  EXPECT_NE(error.find("/nonexistent-ptucker-dir/trace.json"),
            std::string::npos);
}

TEST(ObsTraceTest, SolveTrajectoryBitIdenticalTracingOnVsOff) {
  Rng rng(5);
  SparseTensor x = UniformSparseTensor({20, 16, 12}, 600, rng);
  x.BuildModeIndex();
  PTuckerOptions options;
  options.core_dims = {3, 2, 2};
  options.max_iterations = 3;
  options.tolerance = 0.0;
  options.num_threads = 3;
#if defined(PTUCKER_TEST_TSAN)
  // TSan cannot see libgomp's fork/join barriers and reports the OpenMP
  // worker handoff as a race. Trajectories are thread-count invariant
  // (the repo's core guarantee), so running the solve single-threaded
  // under TSan tests the same bit-identity claim without the false
  // positive; the multi-writer tracer paths get their TSan coverage
  // from std::thread-based tests.
  options.num_threads = 1;
#endif
  options.seed = 11;

  Tracer& tracer = Tracer::Global();
  tracer.Disable();
  tracer.Clear();
  const PTuckerResult off = PTuckerDecompose(x, options);

  tracer.Enable();
  const PTuckerResult on = PTuckerDecompose(x, options);
  const std::vector<TraceEvent> events = tracer.Snapshot();
  tracer.Disable();
  tracer.Clear();

  EXPECT_TRUE(ContainsName(events, "als.iteration"));
  EXPECT_TRUE(ContainsName(events, "als.factor_update"));
  EXPECT_TRUE(ContainsName(events, "als.orthogonalize"));
  EXPECT_TRUE(ContainsName(events, "als.final_error"));

  ASSERT_EQ(off.iterations.size(), on.iterations.size());
  for (std::size_t i = 0; i < off.iterations.size(); ++i) {
    // memcmp on the raw doubles: bit-identity, not approximate equality.
    EXPECT_EQ(std::memcmp(&off.iterations[i].error, &on.iterations[i].error,
                          sizeof(double)),
              0)
        << "iteration " << i;
  }
  EXPECT_EQ(std::memcmp(&off.final_error, &on.final_error, sizeof(double)),
            0);
}

TEST(ObsTraceTest, IterationSpansShareTheClockOfIterationStats) {
  // IterationStats::seconds and the als.iteration span come from the same
  // two clock reads: one span per iteration, each as long as its stats.
  Rng rng(6);
  SparseTensor x = UniformSparseTensor({18, 14, 10}, 500, rng);
  x.BuildModeIndex();
  PTuckerOptions options;
  options.core_dims = {3, 2, 2};
  options.max_iterations = 4;
  options.tolerance = 0.0;
  options.num_threads = 1;
  options.seed = 12;

  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  tracer.Enable();
  const PTuckerResult result = PTuckerDecompose(x, options);
  const std::vector<TraceEvent> events = tracer.Snapshot();
  tracer.Disable();
  tracer.Clear();

  std::vector<TraceEvent> iterations;
  for (const TraceEvent& event : events) {
    if (std::strcmp(event.name, "als.iteration") == 0) {
      iterations.push_back(event);
    }
  }
  std::sort(iterations.begin(), iterations.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_us < b.ts_us;
            });
  ASSERT_EQ(iterations.size(), result.iterations.size());
  for (std::size_t i = 0; i < iterations.size(); ++i) {
    EXPECT_EQ(iterations[i].dur_us,
              std::llround(result.iterations[i].seconds * 1e6))
        << "iteration " << i + 1;
  }
}

}  // namespace
}  // namespace obs
}  // namespace ptucker

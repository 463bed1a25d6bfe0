// BatchCoalescer unit tests, socket-free: a fake ReplySink captures the
// encoded reply frames, so these tests pin down the queue/batch/window
// semantics in isolation — requests pushed from many producers coalesce
// into single PredictBatch calls, a partial batch launches when the
// window expires, one bad request cannot poison its batchmates, TryPush
// refuses at capacity and the space callback fires after the drain, and
// Stop() serves everything already queued.
#include "serve/net/coalescer.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/ptucker.h"
#include "linalg/matrix.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/service.h"
#include "tensor/dense_tensor.h"
#include "util/random.h"

namespace ptucker {
namespace {

TuckerFactorization MakeModel(const std::vector<std::int64_t>& dims,
                              const std::vector<std::int64_t>& ranks,
                              std::uint64_t seed) {
  Rng rng(seed);
  TuckerFactorization model;
  for (std::size_t n = 0; n < dims.size(); ++n) {
    Matrix factor(dims[n], ranks[n]);
    factor.FillUniform(rng);
    model.factors.push_back(std::move(factor));
  }
  model.core = DenseTensor(ranks);
  model.core.FillUniform(rng);
  return model;
}

// Captures PostReply calls and lets tests block until N frames arrived.
class FakeSink : public ReplySink {
 public:
  void PostReply(std::uint64_t connection_id,
                 std::vector<std::uint8_t> frame) override {
    WireFrame decoded;
    std::size_t consumed = 0;
    std::string error;
    const DecodeResult result = DecodeFrame(frame.data(), frame.size(),
                                            &decoded, &consumed, &error);
    std::lock_guard<std::mutex> lock(mu_);
    EXPECT_EQ(result, DecodeResult::kFrame) << error;
    EXPECT_EQ(consumed, frame.size());
    replies_.emplace_back(connection_id, std::move(decoded));
    cv_.notify_all();
  }

  bool WaitForReplies(std::size_t count, int timeout_ms = 10000) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                        [&] { return replies_.size() >= count; });
  }

  std::vector<std::pair<std::uint64_t, WireFrame>> Snapshot() {
    std::lock_guard<std::mutex> lock(mu_);
    return replies_;
  }

  // The reply frame for `request_id`; fails the test if absent.
  WireFrame Find(std::uint64_t request_id) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& reply : replies_) {
      if (reply.second.request_id == request_id) return reply.second;
    }
    ADD_FAILURE() << "no reply for request id " << request_id;
    return WireFrame{};
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::pair<std::uint64_t, WireFrame>> replies_;
};

NetRequest MakePredict(FakeSink* sink, std::uint64_t id,
                       std::vector<std::int64_t> coords) {
  NetRequest request;
  request.sink = sink;
  request.connection_id = 7;
  request.request_id = id;
  request.opcode = Opcode::kPredict;
  request.coords = std::move(coords);
  request.enqueue_us = obs::Tracer::NowMicros();
  return request;
}

class CoalescerTest : public ::testing::Test {
 protected:
  CoalescerTest()
      : model_(MakeModel({12, 10, 8}, {3, 2, 4}, 21)),
        service_(ModelSnapshot::Create(model_)) {}

  double Expected(const std::vector<std::int64_t>& coords) const {
    return service_.Predict(coords);
  }

  TuckerFactorization model_;
  PredictionService service_;
  obs::MetricsRegistry registry_;
  ServeNetMetrics metrics_{&registry_};
};

TEST_F(CoalescerTest, FullBatchCoalescesIntoOneExecution) {
  BatchCoalescer::Options options;
  options.max_batch = 4;
  options.batch_window_us = 200000;  // must not matter: the batch fills
  options.queue_capacity = 16;
  BatchCoalescer coalescer(&service_, options, &metrics_);

  FakeSink sink;
  const std::vector<std::vector<std::int64_t>> queries = {
      {0, 0, 0}, {11, 9, 7}, {5, 2, 3}, {1, 8, 6}};
  for (std::size_t q = 0; q < queries.size(); ++q) {
    ASSERT_TRUE(coalescer.TryPush(MakePredict(&sink, q + 1, queries[q])));
  }
  coalescer.Start(1);
  ASSERT_TRUE(sink.WaitForReplies(queries.size()));
  coalescer.Stop();

  for (std::size_t q = 0; q < queries.size(); ++q) {
    const WireFrame frame = sink.Find(q + 1);
    EXPECT_EQ(frame.status, WireStatus::kOk);
    double value = 0.0;
    std::string error;
    ASSERT_TRUE(ParsePredictReply(frame, &value, &error)) << error;
    EXPECT_EQ(value, Expected(queries[q])) << "query " << q;
  }
  // All four ran as ONE batch — the whole point of the coalescer.
  const obs::HistogramSnapshot batches = metrics_.batch_size->Snapshot();
  EXPECT_EQ(batches.count, 1u);
  EXPECT_EQ(batches.sum, 4.0);
  EXPECT_EQ(metrics_.predict_latency->Snapshot().count, 4u);
}

TEST_F(CoalescerTest, WindowExpiryServesPartialBatch) {
  BatchCoalescer::Options options;
  options.max_batch = 64;  // never fills
  options.batch_window_us = 5000;
  options.queue_capacity = 128;
  BatchCoalescer coalescer(&service_, options, &metrics_);
  coalescer.Start(1);

  FakeSink sink;
  ASSERT_TRUE(coalescer.TryPush(MakePredict(&sink, 1, {3, 3, 3})));
  // The lone request must be served once the window lapses, without a
  // second request ever arriving.
  ASSERT_TRUE(sink.WaitForReplies(1));
  coalescer.Stop();

  const WireFrame frame = sink.Find(1);
  EXPECT_EQ(frame.status, WireStatus::kOk);
  EXPECT_EQ(metrics_.batch_size->Snapshot().sum, 1.0);
}

TEST_F(CoalescerTest, BadRequestsDoNotPoisonBatchmates) {
  BatchCoalescer::Options options;
  options.max_batch = 4;
  options.batch_window_us = 0;
  options.queue_capacity = 16;
  BatchCoalescer coalescer(&service_, options, &metrics_);

  FakeSink sink;
  ASSERT_TRUE(coalescer.TryPush(MakePredict(&sink, 1, {2, 2, 2})));
  ASSERT_TRUE(coalescer.TryPush(MakePredict(&sink, 2, {12, 0, 0})));  // range
  ASSERT_TRUE(coalescer.TryPush(MakePredict(&sink, 3, {1, 1})));      // order
  ASSERT_TRUE(coalescer.TryPush(MakePredict(&sink, 4, {4, 5, 1})));
  coalescer.Start(1);
  ASSERT_TRUE(sink.WaitForReplies(4));
  coalescer.Stop();

  double value = 0.0;
  std::string error;
  ASSERT_TRUE(ParsePredictReply(sink.Find(1), &value, &error)) << error;
  EXPECT_EQ(value, Expected({2, 2, 2}));
  ASSERT_TRUE(ParsePredictReply(sink.Find(4), &value, &error)) << error;
  EXPECT_EQ(value, Expected({4, 5, 1}));

  EXPECT_EQ(sink.Find(2).status, WireStatus::kBadRequest);
  EXPECT_FALSE(ParsePredictReply(sink.Find(2), &value, &error));
  EXPECT_NE(error.find("out of"), std::string::npos) << error;
  EXPECT_EQ(sink.Find(3).status, WireStatus::kBadRequest);
  EXPECT_EQ(metrics_.errors_total->Value(), 2u);
  // Every reply, OK or not, observes the latency histogram once.
  EXPECT_EQ(metrics_.predict_latency->Snapshot().count, 4u);
}

TEST_F(CoalescerTest, TopKMatchesServiceExactly) {
  BatchCoalescer::Options options;
  options.batch_window_us = 0;
  BatchCoalescer coalescer(&service_, options, &metrics_);

  FakeSink sink;
  NetRequest request;
  request.sink = &sink;
  request.connection_id = 1;
  request.request_id = 42;
  request.opcode = Opcode::kTopK;
  request.coords = {3, 0, 5};
  request.mode = 1;
  request.k = 5;
  request.enqueue_us = obs::Tracer::NowMicros();
  ASSERT_TRUE(coalescer.TryPush(std::move(request)));
  coalescer.Start(1);
  ASSERT_TRUE(sink.WaitForReplies(1));
  coalescer.Stop();

  std::vector<ScoredIndex> got;
  std::string error;
  ASSERT_TRUE(ParseTopKReply(sink.Find(42), &got, &error)) << error;
  const std::vector<ScoredIndex> want = service_.TopK(1, {3, 0, 5}, 5);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(got[r].index, want[r].index);
    EXPECT_EQ(got[r].score, want[r].score);  // bit-exact over the wire
  }
  EXPECT_EQ(metrics_.topk_latency->Snapshot().count, 1u);
  EXPECT_EQ(metrics_.errors_total->Value(), 0u);
}

TEST_F(CoalescerTest, TryPushRefusesAtCapacityAndSpaceCallbackFires) {
  BatchCoalescer::Options options;
  options.max_batch = 2;
  options.batch_window_us = 0;
  options.queue_capacity = 4;
  BatchCoalescer coalescer(&service_, options, &metrics_);

  std::atomic<int> space_signals{0};
  coalescer.SetSpaceCallback([&] { space_signals.fetch_add(1); });

  FakeSink sink;
  // No workers yet: fill the queue to the brim…
  for (std::uint64_t id = 1; id <= 4; ++id) {
    ASSERT_TRUE(coalescer.TryPush(MakePredict(&sink, id, {1, 1, 1})));
  }
  EXPECT_EQ(coalescer.QueueDepth(), 4u);
  // …then the refusal contract: false, and the request is NOT consumed.
  NetRequest overflow = MakePredict(&sink, 5, {2, 2, 2});
  EXPECT_FALSE(coalescer.TryPush(std::move(overflow)));
  EXPECT_EQ(overflow.coords.size(), 3u);
  EXPECT_EQ(coalescer.QueueDepth(), 4u);

  coalescer.Start(1);
  ASSERT_TRUE(sink.WaitForReplies(4));
  // A drain after a refused push must wake stalled producers.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (space_signals.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(space_signals.load(), 1);

  // With space available the parked request now goes through.
  EXPECT_TRUE(coalescer.TryPush(std::move(overflow)));
  ASSERT_TRUE(sink.WaitForReplies(5));
  coalescer.Stop();
  EXPECT_EQ(sink.Find(5).status, WireStatus::kOk);
}

TEST_F(CoalescerTest, StopDrainsEverythingAlreadyQueued) {
  BatchCoalescer::Options options;
  options.max_batch = 8;
  options.batch_window_us = 1000;
  options.queue_capacity = 256;
  BatchCoalescer coalescer(&service_, options, &metrics_);

  FakeSink sink;
  const std::size_t kCount = 100;
  for (std::uint64_t id = 1; id <= kCount; ++id) {
    ASSERT_TRUE(coalescer.TryPush(
        MakePredict(&sink, id, {static_cast<std::int64_t>(id % 12), 0, 1})));
  }
  coalescer.Start(2);
  coalescer.Stop();  // must not abandon queued requests

  ASSERT_TRUE(sink.WaitForReplies(kCount, /*timeout_ms=*/0));
  EXPECT_EQ(sink.Snapshot().size(), kCount);
  EXPECT_EQ(metrics_.predict_latency->Snapshot().count, kCount);
  const obs::HistogramSnapshot batches = metrics_.batch_size->Snapshot();
  EXPECT_GE(batches.count, kCount / 8);
  EXPECT_EQ(batches.sum, static_cast<double>(kCount));
}

}  // namespace
}  // namespace ptucker

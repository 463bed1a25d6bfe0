// The reserved OVERLOADED wire status, live (wire.h / event_loop.h): a
// request parked on a full coalescer queue past the configured deadline
// is answered kOverloaded on a surviving connection and counted in
// ptucker_serve_shed_total. The harness assembles the reactor by hand —
// CreateListenSocket + a 1-slot BatchCoalescer whose workers start only
// when the test says so — so the queue is saturated deterministically
// instead of by racing traffic. Runs under the ASan+UBSan CI job via
// the serve_ test-name prefix.
#include "serve/net/event_loop.h"

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/ptucker.h"
#include "linalg/matrix.h"
#include "obs/metrics.h"
#include "serve/net/client.h"
#include "serve/net/coalescer.h"
#include "serve/net/wire.h"
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

// One reactor over a 1-slot coalescer whose workers the test starts on
// demand. Mirrors NetServer::Start's wiring (space callback included)
// minus the parts that would drain the queue behind the test's back.
class OverloadHarness {
 public:
  explicit OverloadHarness(std::int64_t overload_timeout_ms)
      : service_(ModelSnapshot::Create(MakeModel({12, 9, 7}, {3, 2, 2}, 7))) {
    BatchCoalescer::Options coalescer_options;
    coalescer_options.max_batch = 1;
    coalescer_options.batch_window_us = 0;
    coalescer_options.queue_capacity = 1;
    coalescer_ = std::make_unique<BatchCoalescer>(
        &service_, coalescer_options, &metrics_);
    EventLoop::Options loop_options;
    loop_options.overload_timeout_ms = overload_timeout_ms;
    const int listen_fd = CreateListenSocket(&port_);
    loop_ = std::make_unique<EventLoop>(listen_fd, coalescer_.get(),
                                        std::uint64_t{1} << 48, loop_options,
                                        &metrics_);
    coalescer_->SetSpaceCallback([this] { loop_->NotifyQueueSpace(); });
    loop_thread_ = std::thread([this] { loop_->Run(); });
  }

  ~OverloadHarness() {
    loop_->Stop();
    loop_thread_.join();
    coalescer_->Stop();
  }

  int port() const { return port_; }
  void StartWorkers() { coalescer_->Start(1); }
  std::uint64_t overloads_shed() const { return metrics_.shed_total->Value(); }

 private:
  PredictionService service_;
  obs::MetricsRegistry registry_;
  ServeNetMetrics metrics_{&registry_};
  std::unique_ptr<BatchCoalescer> coalescer_;
  std::unique_ptr<EventLoop> loop_;
  std::thread loop_thread_;
  int port_ = 0;
};

TEST(OverloadTest, ParkedRequestShedsAfterDeadlineConnectionSurvives) {
  OverloadHarness harness(50);
  NetClient client("127.0.0.1", harness.port());

  // No workers: request 1 fills the only queue slot, request 2 parks.
  const std::vector<std::int64_t> coords = {0, 0, 0};
  const std::vector<std::uint8_t> first = EncodePredictRequest(1, coords);
  const std::vector<std::uint8_t> second = EncodePredictRequest(2, coords);
  client.SendBytes(first.data(), first.size());
  client.SendBytes(second.data(), second.size());

  // The parked request's 50 ms deadline passes: kOverloaded for id 2,
  // while id 1 still waits in the queue.
  WireFrame frame;
  ASSERT_TRUE(client.ReceiveFrame(&frame));
  EXPECT_EQ(frame.status, WireStatus::kOverloaded);
  EXPECT_EQ(frame.request_id, 2u);
  EXPECT_EQ(harness.overloads_shed(), 1u);

  // The connection survived the shed: once workers run, the queued
  // request is answered normally on the same socket.
  harness.StartWorkers();
  ASSERT_TRUE(client.ReceiveFrame(&frame));
  EXPECT_EQ(frame.status, WireStatus::kOk);
  EXPECT_EQ(frame.request_id, 1u);

  // And the freed slot accepts new work.
  const std::vector<std::uint8_t> third = EncodePredictRequest(3, coords);
  client.SendBytes(third.data(), third.size());
  ASSERT_TRUE(client.ReceiveFrame(&frame));
  EXPECT_EQ(frame.status, WireStatus::kOk);
  EXPECT_EQ(frame.request_id, 3u);
  EXPECT_EQ(harness.overloads_shed(), 1u);
}

TEST(OverloadTest, ZeroDeadlineShedsImmediately) {
  OverloadHarness harness(0);
  NetClient client("127.0.0.1", harness.port());

  const std::vector<std::int64_t> coords = {1, 1, 1};
  const std::vector<std::uint8_t> first = EncodePredictRequest(10, coords);
  const std::vector<std::uint8_t> second = EncodePredictRequest(11, coords);
  client.SendBytes(first.data(), first.size());
  client.SendBytes(second.data(), second.size());

  WireFrame frame;
  ASSERT_TRUE(client.ReceiveFrame(&frame));
  EXPECT_EQ(frame.status, WireStatus::kOverloaded);
  EXPECT_EQ(frame.request_id, 11u);
  EXPECT_EQ(harness.overloads_shed(), 1u);
}

TEST(OverloadTest, DefaultDeadlineParksForever) {
  // -1 (the default): the parked request is never shed; it drains once
  // workers start, in submission order, all kOk.
  OverloadHarness harness(-1);
  NetClient client("127.0.0.1", harness.port());

  const std::vector<std::int64_t> coords = {2, 2, 2};
  const std::vector<std::uint8_t> first = EncodePredictRequest(20, coords);
  const std::vector<std::uint8_t> second = EncodePredictRequest(21, coords);
  client.SendBytes(first.data(), first.size());
  client.SendBytes(second.data(), second.size());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  harness.StartWorkers();
  WireFrame frame;
  ASSERT_TRUE(client.ReceiveFrame(&frame));
  EXPECT_EQ(frame.status, WireStatus::kOk);
  EXPECT_EQ(frame.request_id, 20u);
  ASSERT_TRUE(client.ReceiveFrame(&frame));
  EXPECT_EQ(frame.status, WireStatus::kOk);
  EXPECT_EQ(frame.request_id, 21u);
  EXPECT_EQ(harness.overloads_shed(), 0u);
}

}  // namespace
}  // namespace ptucker

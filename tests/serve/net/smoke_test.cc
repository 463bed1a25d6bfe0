// serve_net smoke: an in-process NetServer on an ephemeral port driven
// over real TCP sockets by NetClient. Covers the full opcode surface
// (predict / top-K / ping / metrics) with replies compared EXPECT_EQ
// against direct PredictionService calls, bad-request handling on a
// surviving connection, loud rejection-then-close for unrecoverable
// framing garbage, clean shutdown with clients attached, and the
// determinism invariant: the same query set produces bit-identical
// replies regardless of connection interleaving, loop threads, worker
// threads, max-batch, or batch window. Runs under the ASan+UBSan CI job
// via the serve_ test-name prefix.
#include "serve/net/server.h"

#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/ptucker.h"
#include "linalg/matrix.h"
#include "obs/metrics.h"
#include "serve/net/client.h"
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

std::vector<std::vector<std::int64_t>> MakeQueries(
    const std::vector<std::int64_t>& dims, std::int64_t count,
    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::int64_t>> queries;
  queries.reserve(static_cast<std::size_t>(count));
  for (std::int64_t q = 0; q < count; ++q) {
    std::vector<std::int64_t> index(dims.size());
    for (std::size_t n = 0; n < dims.size(); ++n) {
      index[n] = static_cast<std::int64_t>(
          rng.UniformInt(static_cast<std::uint64_t>(dims[n])));
    }
    queries.push_back(std::move(index));
  }
  return queries;
}

class ServeNetSmokeTest : public ::testing::Test {
 protected:
  ServeNetSmokeTest()
      : dims_({24, 18, 15}),
        model_(MakeModel(dims_, {4, 3, 5}, 33)),
        service_(std::make_shared<PredictionService>(
            ModelSnapshot::Create(model_, 16))) {}

  std::vector<std::int64_t> dims_;
  TuckerFactorization model_;
  std::shared_ptr<PredictionService> service_;
};

TEST_F(ServeNetSmokeTest, FullOpcodeSurfaceOverRealSockets) {
  obs::MetricsRegistry registry;
  NetServerOptions options;
  options.listen_threads = 2;
  options.worker_threads = 2;
  options.batch_window_us = 0;  // sequential client: don't add latency
  options.metrics_registry = &registry;
  NetServer server(service_, options);
  server.Start();
  ASSERT_GT(server.port(), 0);

  NetClient client("127.0.0.1", server.port());
  client.Ping();

  const auto queries = MakeQueries(dims_, 50, 34);
  for (const auto& query : queries) {
    EXPECT_EQ(client.Predict(query), service_->Predict(query));
  }

  const std::vector<std::int64_t> probe = {3, 0, 7};
  for (std::int64_t mode = 0; mode < 3; ++mode) {
    const auto got = client.TopK(mode, 6, probe);
    const auto want = service_->TopK(mode, probe, 6);
    ASSERT_EQ(got.size(), want.size()) << "mode " << mode;
    for (std::size_t r = 0; r < want.size(); ++r) {
      EXPECT_EQ(got[r].index, want[r].index);
      EXPECT_EQ(got[r].score, want[r].score);
    }
  }
  // k beyond the mode's dimension returns everything, same as in-process.
  EXPECT_EQ(client.TopK(2, 1000, probe).size(),
            static_cast<std::size_t>(dims_[2]));

  EXPECT_NE(client.Metrics().find("ptucker_serve_requests_total"),
            std::string::npos);

  // Stop() joins the workers, which record latencies after posting each
  // reply, so the counts below are final.
  server.Stop();
  const ServeNetMetrics metrics(&registry);
  EXPECT_GE(metrics.connections_total->Value(), 1u);
  EXPECT_GE(metrics.requests_total->Value(), 55u);
  EXPECT_GE(metrics.predict_latency->Snapshot().count, 50u);
  EXPECT_GE(metrics.topk_latency->Snapshot().count, 4u);
  EXPECT_GE(metrics.batch_size->Snapshot().count, 1u);
  EXPECT_EQ(metrics.shed_total->Value(), 0u);  // nothing parked here
}

TEST_F(ServeNetSmokeTest, BadRequestsAnsweredOnASurvivingConnection) {
  obs::MetricsRegistry registry;
  NetServerOptions options;
  options.batch_window_us = 0;
  options.metrics_registry = &registry;
  NetServer server(service_, options);
  server.Start();
  NetClient client("127.0.0.1", server.port());

  // Model-level violations: loud error reply, connection stays healthy.
  EXPECT_THROW(client.Predict({24, 0, 0}), std::runtime_error);   // range
  EXPECT_THROW(client.Predict({1, 2}), std::runtime_error);       // order
  EXPECT_THROW(client.TopK(3, 5, {0, 0, 0}), std::runtime_error); // mode
  EXPECT_THROW(client.TopK(0, 0, {0, 0, 0}), std::runtime_error); // k = 0

  // Payload-level violation, hand-built: promises 3 coords, ships 1.
  std::vector<std::uint8_t> payload;
  AppendU32(&payload, 3);
  AppendI64(&payload, 5);
  std::vector<std::uint8_t> request;
  EncodeFrame(Opcode::kPredict, WireStatus::kOk, 77, payload.data(),
              payload.size(), &request);
  client.SendBytes(request.data(), request.size());
  WireFrame reply;
  ASSERT_TRUE(client.ReceiveFrame(&reply));
  EXPECT_EQ(reply.request_id, 77u);
  EXPECT_EQ(reply.status, WireStatus::kBadRequest);

  // The same socket still serves good traffic after all five rejections.
  EXPECT_EQ(client.Predict({5, 5, 5}), service_->Predict({5, 5, 5}));
  EXPECT_GE(ServeNetMetrics(&registry).errors_total->Value(), 5u);
  server.Stop();
}

TEST_F(ServeNetSmokeTest, FramingGarbageGetsErrorReplyThenClose) {
  NetServerOptions options;
  NetServer server(service_, options);
  server.Start();

  struct HostileCase {
    const char* name;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<HostileCase> cases;
  cases.push_back({"bad magic", {'H', 'T', 'T', 'P', '/', '1', '.', '1'}});
  {
    std::vector<std::uint8_t> frame = EncodePredictRequest(9, {1, 2, 3});
    frame[4] = 0x66;  // unknown opcode
    cases.push_back({"unknown opcode", frame});
  }
  {
    std::vector<std::uint8_t> frame = EncodeEmptyFrame(Opcode::kPing, 9);
    frame[4] = 4;  // the retired STATS opcode: reserved, never reused
    cases.push_back({"retired opcode 4", frame});
  }
  {
    std::vector<std::uint8_t> frame = EncodePredictRequest(9, {1, 2, 3});
    frame[6] = 0xAB;  // reserved byte
    cases.push_back({"reserved bytes", frame});
  }
  {
    std::vector<std::uint8_t> frame = EncodePredictRequest(9, {1, 2, 3});
    frame[19] = 0xFF;  // payload length far beyond kMaxWirePayload
    cases.push_back({"oversized payload", frame});
  }
  {
    std::vector<std::uint8_t> frame = EncodePredictRequest(9, {1, 2, 3});
    frame[5] = 2;  // nonzero status byte in a *request*
    cases.push_back({"nonzero request status", frame});
  }

  for (const HostileCase& hostile : cases) {
    SCOPED_TRACE(hostile.name);
    NetClient client("127.0.0.1", server.port());
    client.SendBytes(hostile.bytes.data(), hostile.bytes.size());
    WireFrame reply;
    // One loud kMalformed error reply…
    ASSERT_TRUE(client.ReceiveFrame(&reply));
    EXPECT_EQ(reply.status, WireStatus::kMalformed);
    EXPECT_FALSE(reply.payload.empty());  // names the violation
    // …then the server closes: byte sync is unrecoverable.
    EXPECT_FALSE(client.ReceiveFrame(&reply));
  }

  // A client that ships half a frame and vanishes must not wedge the
  // server.
  {
    const std::vector<std::uint8_t> frame = EncodePredictRequest(9, {1, 2, 3});
    NetClient half("127.0.0.1", server.port());
    half.SendBytes(frame.data(), frame.size() / 2);
    half.Close();
  }
  NetClient after("127.0.0.1", server.port());
  after.Ping();
  EXPECT_EQ(after.Predict({0, 0, 0}), service_->Predict({0, 0, 0}));
  server.Stop();
}

TEST_F(ServeNetSmokeTest, CleanShutdownClosesAttachedClients) {
  NetServerOptions options;
  auto server = std::make_unique<NetServer>(service_, options);
  server->Start();
  NetClient client("127.0.0.1", server->port());
  client.Ping();
  server->Stop();
  WireFrame frame;
  EXPECT_FALSE(client.ReceiveFrame(&frame));  // orderly close, no junk
  server.reset();
}

// The determinism invariant from ISSUE acceptance: a fixed query set
// produces bit-identical replies no matter how clients interleave, how
// many loops/workers run, or how the coalescer slices batches.
TEST_F(ServeNetSmokeTest, RepliesAreBitIdenticalAcrossServerShapes) {
  const auto queries = MakeQueries(dims_, 96, 35);

  struct Shape {
    int loops, workers;
    std::int64_t max_batch, window_us;
    int clients;
  };
  const std::vector<Shape> shapes = {
      {1, 1, 1, 0, 1},     // strictly sequential, batch size 1
      {2, 2, 64, 500, 8},  // coalescing on, many interleaved clients
      {3, 2, 16, 0, 4},    // mid-size batches, no window
  };

  std::vector<std::vector<std::uint64_t>> bits_per_shape;
  for (const Shape& shape : shapes) {
    NetServerOptions options;
    options.listen_threads = shape.loops;
    options.worker_threads = shape.workers;
    options.max_batch = shape.max_batch;
    options.batch_window_us = shape.window_us;
    NetServer server(service_, options);
    server.Start();

    std::vector<std::uint64_t> bits(queries.size(), 0);
    std::vector<std::thread> threads;
    std::atomic<std::size_t> next{0};
    for (int c = 0; c < shape.clients; ++c) {
      threads.emplace_back([&] {
        NetClient client("127.0.0.1", server.port());
        std::size_t q;
        while ((q = next.fetch_add(1)) < queries.size()) {
          const double value = client.Predict(queries[q]);
          std::uint64_t raw = 0;
          std::memcpy(&raw, &value, sizeof(raw));
          bits[q] = raw;  // each q is claimed by exactly one thread
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    server.Stop();
    bits_per_shape.push_back(std::move(bits));
  }

  for (std::size_t s = 1; s < bits_per_shape.size(); ++s) {
    for (std::size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(bits_per_shape[s][q], bits_per_shape[0][q])
          << "shape " << s << " query " << q
          << ": reply bytes depend on batching composition";
    }
  }
}

}  // namespace
}  // namespace ptucker

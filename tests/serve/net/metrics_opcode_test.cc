// METRICS wire opcode (docs/observability.md): a live NetServer wired to
// a private MetricsRegistry must serve Prometheus-style exposition text
// over TCP that reflects the traffic it just handled.
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/ptucker.h"
#include "linalg/matrix.h"
#include "obs/metrics.h"
#include "serve/net/client.h"
#include "serve/net/server.h"
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

// First sample value for an exact metric name (skips _bucket/_sum lines
// and the # HELP/# TYPE comments).
bool FindSample(const std::string& exposition, const std::string& name,
                long long* value) {
  std::size_t pos = 0;
  while (pos < exposition.size()) {
    std::size_t end = exposition.find('\n', pos);
    if (end == std::string::npos) end = exposition.size();
    const std::string line = exposition.substr(pos, end - pos);
    pos = end + 1;
    if (line.compare(0, name.size(), name) != 0) continue;
    if (line.size() <= name.size() || line[name.size()] != ' ') continue;
    *value = std::stoll(line.substr(name.size() + 1));
    return true;
  }
  return false;
}

TEST(ServeNetMetricsOpcodeTest, MetricsReflectServedTrafficOverTcp) {
  const std::vector<std::int64_t> dims = {24, 18, 15};
  const TuckerFactorization model = MakeModel(dims, {4, 3, 5}, 41);
  auto service = std::make_shared<PredictionService>(
      ModelSnapshot::Create(model, 16));

  obs::MetricsRegistry registry;
  NetServerOptions options;
  options.batch_window_us = 0;
  options.metrics_registry = &registry;
  NetServer server(service, options);
  server.Start();
  ASSERT_GT(server.port(), 0);

  NetClient client("127.0.0.1", server.port());
  for (int q = 0; q < 20; ++q) {
    client.Predict({q % dims[0], q % dims[1], q % dims[2]});
  }
  client.TopK(0, 5, {0, 0, 0});

  // The worker records a request's latency *after* posting its reply
  // (telemetry never delays the reply), so poll until the counts settle.
  std::string text;
  long long value = 0;
  for (int attempt = 0; attempt < 200; ++attempt) {
    text = client.Metrics();
    long long predicts = 0;
    long long topks = 0;
    if (FindSample(text, "ptucker_serve_predict_latency_seconds_count",
                   &predicts) &&
        FindSample(text, "ptucker_serve_topk_latency_seconds_count",
                   &topks) &&
        predicts >= 20 && topks >= 1) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(text.find("# TYPE ptucker_serve_requests_total counter"),
            std::string::npos);
  ASSERT_TRUE(FindSample(text, "ptucker_serve_requests_total", &value));
  EXPECT_GE(value, 21);  // 20 predicts + 1 topk (+ this METRICS frame)
  ASSERT_TRUE(
      FindSample(text, "ptucker_serve_predict_latency_seconds_count", &value));
  EXPECT_EQ(value, 20);
  ASSERT_TRUE(
      FindSample(text, "ptucker_serve_topk_latency_seconds_count", &value));
  EXPECT_EQ(value, 1);
  ASSERT_TRUE(FindSample(text, "ptucker_serve_batch_size_count", &value));
  EXPECT_GE(value, 1);
  EXPECT_NE(text.find("ptucker_serve_queue_depth"), std::string::npos);
  EXPECT_NE(text.find("ptucker_serve_shed_total"), std::string::npos);

  ASSERT_TRUE(FindSample(text, "ptucker_serve_connections_total", &value));
  EXPECT_EQ(value, 1);
  ASSERT_TRUE(FindSample(text, "ptucker_serve_errors_total", &value));
  EXPECT_EQ(value, 0);

  server.Stop();
}

TEST(ServeNetMetricsOpcodeTest, NullRegistryStillAnswersMetrics) {
  const std::vector<std::int64_t> dims = {24, 18, 15};
  const TuckerFactorization model = MakeModel(dims, {4, 3, 5}, 42);
  auto service = std::make_shared<PredictionService>(
      ModelSnapshot::Create(model, 16));

  // No registry configured: the server answers METRICS from the global
  // bundle rather than erroring — scrapes never kill a serve.
  NetServerOptions options;
  options.batch_window_us = 0;
  NetServer server(service, options);
  server.Start();
  NetClient client("127.0.0.1", server.port());
  client.Predict({0, 0, 0});
  const std::string text = client.Metrics();
  EXPECT_NE(text.find("ptucker_serve_requests_total"), std::string::npos);
  server.Stop();
}

}  // namespace
}  // namespace ptucker

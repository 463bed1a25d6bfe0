// Hot reload under live socket load (ISSUE satellite): client threads
// hammer predicts over real TCP while another thread ReloadSnapshot()s
// the served service back and forth between two models. Every reply
// must match EXACTLY one model's prediction — bit-identical to model A
// or bit-identical to model B, never a blend, never a torn frame — and
// the connection-level byte stream must stay decodable throughout.
// Coalesced batches make this sharper than the in-process reload test:
// requests decoded before a swap may execute after it, and batchmates
// from different clients must still each see a single coherent
// snapshot.
#include "serve/net/server.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
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

TEST(ServeNetReloadTest, EveryReplyMatchesExactlyOneModelUnderLiveLoad) {
  const std::vector<std::int64_t> dims = {16, 14, 10};
  const std::vector<std::int64_t> ranks = {3, 4, 2};
  const TuckerFactorization model_a = MakeModel(dims, ranks, 51);
  const TuckerFactorization model_b = MakeModel(dims, ranks, 52);
  const auto snapshot_a = ModelSnapshot::Create(model_a, 16);
  const auto snapshot_b = ModelSnapshot::Create(model_b, 16);

  // Ground truth per model, pinned once up front.
  const PredictionService truth_a(snapshot_a);
  const PredictionService truth_b(snapshot_b);
  std::vector<std::vector<std::int64_t>> queries;
  for (std::int64_t i = 0; i < dims[0]; ++i) {
    for (std::int64_t j = 0; j < dims[1]; ++j) {
      queries.push_back({i, j, (i + j) % dims[2]});
    }
  }
  std::vector<double> expected_a(queries.size()), expected_b(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    expected_a[q] = truth_a.Predict(queries[q]);
    expected_b[q] = truth_b.Predict(queries[q]);
    // The test is vacuous wherever the models agree.
    ASSERT_NE(expected_a[q], expected_b[q]) << "query " << q;
  }

  auto service = std::make_shared<PredictionService>(snapshot_a);
  obs::MetricsRegistry registry;
  NetServerOptions options;
  options.metrics_registry = &registry;
  options.listen_threads = 2;
  options.worker_threads = 2;
  options.max_batch = 32;
  options.batch_window_us = 200;  // force cross-client coalescing
  NetServer server(service, options);
  server.Start();

  std::atomic<bool> stop_reloading{false};
  std::atomic<std::uint64_t> reloads{0};
  std::thread reloader([&] {
    bool use_b = true;
    while (!stop_reloading.load()) {
      server.service().ReloadSnapshot(use_b ? snapshot_b : snapshot_a);
      use_b = !use_b;
      reloads.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  const int kClients = 6;
  const int kRoundsPerClient = 12;
  std::atomic<std::uint64_t> matched_a{0}, matched_b{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      NetClient client("127.0.0.1", server.port());
      for (int round = 0; round < kRoundsPerClient; ++round) {
        for (std::size_t q = static_cast<std::size_t>(c);
             q < queries.size(); q += kClients) {
          const double got = client.Predict(queries[q]);
          if (got == expected_a[q]) {
            matched_a.fetch_add(1);
          } else if (got == expected_b[q]) {
            matched_b.fetch_add(1);
          } else {
            ADD_FAILURE() << "client " << c << " query " << q
                          << ": reply " << got << " matches neither model ("
                          << expected_a[q] << " / " << expected_b[q] << ")";
            return;
          }
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  stop_reloading.store(true);
  reloader.join();
  server.Stop();

  // Each round the clients stripe the query set exactly once.
  const std::uint64_t total = matched_a.load() + matched_b.load();
  EXPECT_EQ(total, static_cast<std::uint64_t>(kRoundsPerClient) *
                       queries.size());
  // The swap actually happened while traffic flowed: both models served,
  // and plenty of reloads landed mid-stream.
  EXPECT_GT(matched_a.load(), 0u);
  EXPECT_GT(matched_b.load(), 0u);
  EXPECT_GT(reloads.load(), 10u);
  // Cross-client coalescing really engaged under this load: some batch
  // landed above the histogram's first bucket (width 1).
  const obs::HistogramSnapshot batches =
      ServeNetMetrics(&registry).batch_size->Snapshot();
  EXPECT_GT(batches.count, batches.counts[0]);
}

}  // namespace
}  // namespace ptucker

// PredictionService tests: batched predictions bit-identical to the
// per-entry PredictEntries path, deterministic top-K against brute force, validation, and snapshot hot-reload safety
// while a query loop is running.
#include "serve/service.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <omp.h>

#include "core/delta.h"
#include "core/ptucker.h"
#include "core/reconstruction.h"
#include "data/synthetic.h"
#include "serve/snapshot_v2.h"
#include "util/memory_tracker.h"
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

SparseTensor MakeQueries(const std::vector<std::int64_t>& dims,
                         std::int64_t count, std::uint64_t seed) {
  Rng rng(seed);
  SparseTensor queries(dims);
  std::vector<std::int64_t> index(dims.size());
  for (std::int64_t q = 0; q < count; ++q) {
    for (std::size_t n = 0; n < dims.size(); ++n) {
      index[n] = static_cast<std::int64_t>(
          rng.UniformInt(static_cast<std::uint64_t>(dims[n])));
    }
    queries.AddEntry(index, 0.0);
  }
  queries.BuildModeIndex();
  return queries;
}

// The acceptance contract: the service's batched path must EXPECT_EQ the
// PredictEntries flow driven by a mode-major engine over the same model.
TEST(PredictionServiceTest, PredictBatchMatchesPredictEntriesPath) {
  const std::vector<std::int64_t> dims = {30, 25, 18};
  const std::vector<std::int64_t> ranks = {4, 3, 5};
  const TuckerFactorization model = MakeModel(dims, ranks, 11);
  const SparseTensor queries = MakeQueries(dims, 500, 12);

  const CoreEntryList list(model.core);
  const ModeMajorDeltaEngine per_entry_engine(list, model.factors, nullptr);
  const std::vector<double> reference =
      PredictEntries(queries, per_entry_engine);

  const PredictionService service(ModelSnapshot::Create(model));
  const std::vector<double> batched = service.PredictBatch(queries);
  ASSERT_EQ(batched.size(), reference.size());
  for (std::size_t q = 0; q < reference.size(); ++q) {
    EXPECT_EQ(batched[q], reference[q]) << "query " << q;
  }
  // Single-entry Predict agrees with its own batch.
  std::vector<std::int64_t> index(dims.size());
  for (std::size_t q = 0; q < 25; ++q) {
    for (std::size_t n = 0; n < dims.size(); ++n) {
      index[n] = queries.index(static_cast<std::int64_t>(q),
                               static_cast<std::int64_t>(n));
    }
    EXPECT_EQ(service.Predict(index), batched[q]);
  }
}

TEST(PredictionServiceTest, TopKMatchesBruteForce) {
  const std::vector<std::int64_t> dims = {12, 60, 9};
  const std::vector<std::int64_t> ranks = {3, 4, 3};
  const TuckerFactorization model = MakeModel(dims, ranks, 21);
  const PredictionService service(ModelSnapshot::Create(model));

  const std::vector<std::int64_t> at = {5, 0, 2};
  std::vector<char> exclude(static_cast<std::size_t>(dims[1]), 0);
  exclude[3] = exclude[40] = 1;

  for (const std::vector<char>* mask :
       {static_cast<const std::vector<char>*>(nullptr),
        static_cast<const std::vector<char>*>(&exclude)}) {
    std::vector<ScoredIndex> brute;
    for (std::int64_t movie = 0; movie < dims[1]; ++movie) {
      if (mask != nullptr && (*mask)[static_cast<std::size_t>(movie)]) {
        continue;
      }
      brute.push_back({movie, service.Predict({5, movie, 2})});
    }
    std::sort(brute.begin(), brute.end(),
              [](const ScoredIndex& a, const ScoredIndex& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.index < b.index;
              });
    for (const std::int64_t k : {std::int64_t{1}, std::int64_t{7},
                                 std::int64_t{1000}}) {
      const std::vector<ScoredIndex> top = service.TopK(1, at, k, mask);
      const std::size_t want =
          std::min<std::size_t>(brute.size(), static_cast<std::size_t>(k));
      ASSERT_EQ(top.size(), want) << "k=" << k;
      for (std::size_t r = 0; r < want; ++r) {
        EXPECT_EQ(top[r].index, brute[r].index) << "k=" << k << " rank " << r;
        EXPECT_EQ(top[r].score, brute[r].score) << "k=" << k << " rank " << r;
      }
    }
  }
}

TEST(PredictionServiceTest, TopKDeterministicAcrossThreads) {
  const std::vector<std::int64_t> dims = {10, 300, 8};
  const std::vector<std::int64_t> ranks = {3, 3, 3};
  const TuckerFactorization model = MakeModel(dims, ranks, 31);
  const std::vector<std::int64_t> at = {7, 0, 1};

  std::vector<ScoredIndex> reference;
  const int saved_threads = omp_get_max_threads();
  for (const int threads : {1, 3, 8}) {
    omp_set_num_threads(threads);
    const PredictionService service(ModelSnapshot::Create(model));
    const std::vector<ScoredIndex> top = service.TopK(1, at, 17);
    if (reference.empty()) {
      reference = top;
      continue;
    }
    ASSERT_EQ(top.size(), reference.size());
    for (std::size_t r = 0; r < top.size(); ++r) {
      EXPECT_EQ(top[r].index, reference[r].index)
          << "threads " << threads << " rank " << r;
      EXPECT_EQ(top[r].score, reference[r].score)
          << "threads " << threads << " rank " << r;
    }
  }
  omp_set_num_threads(saved_threads);
}

TEST(PredictionServiceTest, ValidatesQueriesAndConstruction) {
  const TuckerFactorization model = MakeModel({8, 6, 5}, {2, 2, 2}, 41);
  const PredictionService service(ModelSnapshot::Create(model));

  EXPECT_THROW(service.Predict({1, 2}), std::invalid_argument);
  EXPECT_THROW(service.Predict({8, 0, 0}), std::invalid_argument);
  EXPECT_THROW(service.Predict({0, -1, 0}), std::invalid_argument);
  EXPECT_THROW(service.TopK(3, {0, 0, 0}, 5), std::invalid_argument);
  EXPECT_THROW(service.TopK(1, {0, 0, 0}, 0), std::invalid_argument);
  EXPECT_THROW(service.TopK(1, {0, 0, 9}, 5), std::invalid_argument);
  const std::vector<char> short_mask(3, 0);
  EXPECT_THROW(service.TopK(1, {0, 0, 0}, 5, &short_mask),
               std::invalid_argument);

  EXPECT_THROW(PredictionService(nullptr), std::invalid_argument);
  TuckerFactorization broken = MakeModel({8, 6, 5}, {2, 2, 2}, 41);
  broken.factors[1] = Matrix(6, 3);  // cols disagree with the core rank
  EXPECT_THROW(ModelSnapshot::Create(std::move(broken)),
               std::invalid_argument);
}

// Hot-reload sanity: a writer thread flips the service between two
// models while the reader keeps issuing PredictBatch. Every batch must
// equal exactly one model's output end-to-end — a reload can never mix
// models inside a batch, lose the snapshot under a reader, or tear.
TEST(PredictionServiceTest, ConcurrentReloadDuringPredictBatch) {
  const std::vector<std::int64_t> dims = {20, 15, 10};
  const std::vector<std::int64_t> ranks = {3, 3, 3};
  const TuckerFactorization model_a = MakeModel(dims, ranks, 51);
  const TuckerFactorization model_b = MakeModel(dims, ranks, 52);
  const SparseTensor queries = MakeQueries(dims, 200, 53);

  const auto snapshot_a = ModelSnapshot::Create(model_a);
  const auto snapshot_b = ModelSnapshot::Create(model_b);
  PredictionService service(snapshot_a);
  const std::vector<double> expected_a = service.PredictBatch(queries);
  service.ReloadSnapshot(snapshot_b);
  const std::vector<double> expected_b = service.PredictBatch(queries);
  service.ReloadSnapshot(snapshot_a);

  std::atomic<bool> stop{false};
  std::thread reloader([&] {
    for (int flip = 0; !stop.load(std::memory_order_relaxed); ++flip) {
      service.ReloadSnapshot((flip & 1) != 0 ? snapshot_a : snapshot_b);
    }
  });

  int saw_a = 0;
  int saw_b = 0;
  for (int round = 0; round < 200; ++round) {
    const std::vector<double> got = service.PredictBatch(queries);
    const bool is_a = got == expected_a;
    const bool is_b = got == expected_b;
    ASSERT_TRUE(is_a || is_b) << "round " << round
                              << ": batch mixed two snapshots";
    saw_a += is_a ? 1 : 0;
    saw_b += is_b ? 1 : 0;
  }
  stop.store(true, std::memory_order_relaxed);
  reloader.join();
  EXPECT_EQ(saw_a + saw_b, 200);
}

// The engine behind a snapshot is charged its lane views alone: per mode
// n, a dense core's |G|/Jn lane rows of N−1 int32 columns and Jn doubles.
// Both backings charge exactly that, once, and return it on release.
TEST(PredictionServiceTest, SnapshotChargesOnlyTheLaneViews) {
  const std::vector<std::int64_t> dims = {30, 25, 18};
  const std::vector<std::int64_t> ranks = {4, 3, 5};
  TuckerFactorization model = MakeModel(dims, ranks, 61);
  model.core[0] = 0.25;  // FillUniform may draw an exact 0; keep it dense
  const std::int64_t n_core = CoreEntryList(model.core).size();
  ASSERT_EQ(n_core, 4 * 3 * 5);
  const std::int64_t order = static_cast<std::int64_t>(ranks.size());
  std::int64_t expected = 0;
  for (const std::int64_t rank : ranks) {
    expected += 4 * (n_core / rank) * (order - 1) + 8 * n_core;
  }

  const std::string path =
      (std::filesystem::temp_directory_path() / "ptucker_service_charge.ptks")
          .string();
  SaveSnapshotV2(path, model, /*with_centroids=*/false);
  for (const bool from_file : {false, true}) {
    SCOPED_TRACE(from_file ? "CreateFromFile" : "Create");
    MemoryTracker tracker;
    {
      const auto snapshot =
          from_file
              ? ModelSnapshot::CreateFromFile(path, kDefaultTileWidth, &tracker)
              : ModelSnapshot::Create(model, &tracker);
      EXPECT_EQ(snapshot->engine().ByteSize(), expected);
      EXPECT_EQ(tracker.current_bytes(), expected);
      EXPECT_EQ(tracker.peak_bytes(), expected);
    }
    EXPECT_EQ(tracker.current_bytes(), 0);
  }
  std::remove(path.c_str());
}

// Orders above DeltaEngine::kMaxOrder are refused with an exception, not
// an abort, whether the model comes from memory or from a snapshot file
// (the v2 format itself admits them).
TEST(PredictionServiceTest, RejectsOrdersAboveTheEngineLimit) {
  const std::int64_t order = DeltaEngine::kMaxOrder + 1;
  const TuckerFactorization model =
      MakeModel(std::vector<std::int64_t>(static_cast<std::size_t>(order), 2),
                std::vector<std::int64_t>(static_cast<std::size_t>(order), 1),
                71);
  EXPECT_THROW(ModelSnapshot::Create(model), std::invalid_argument);

  const std::string path =
      (std::filesystem::temp_directory_path() / "ptucker_service_order.ptks")
          .string();
  SaveSnapshotV2(path, model, /*with_centroids=*/false);
  EXPECT_THROW(ModelSnapshot::CreateFromFile(path), std::invalid_argument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ptucker

// IVF top-K tests: the exact path (nprobe < 0) must match a per-entry
// brute force bit-for-bit — owning and file-backed snapshots alike — and
// the approximate path must hit recall@10 >= 0.95 at the default (auto)
// nprobe on a clustered synthetic model. Everything is seeded, so every
// number here is deterministic.
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ptucker.h"
#include "serve/service.h"
#include "serve/snapshot_v2.h"
#include "tensor/dense_tensor.h"
#include "util/random.h"

namespace ptucker {
namespace {

// Mode 0 carries 20 well-separated row clusters (matching the ~√400
// coarse centroids BuildIvfRows picks), so cluster-level pruning can be
// accurate; the other modes and the core are plain uniform noise.
TuckerFactorization MakeClusteredModel(std::uint64_t seed = 5) {
  Rng rng(seed);
  TuckerFactorization model;
  const std::int64_t rows = 400;
  const std::int64_t clusters = 20;
  const std::int64_t rank0 = 4;
  Matrix centers(clusters, rank0);
  for (std::int64_t i = 0; i < centers.size(); ++i) {
    centers.data()[i] = rng.Uniform(-2.0, 2.0);
  }
  Matrix factor0(rows, rank0);
  for (std::int64_t i = 0; i < rows; ++i) {
    const double* center = centers.Row(i % clusters);
    for (std::int64_t j = 0; j < rank0; ++j) {
      factor0(i, j) = center[j] + rng.Normal(0.0, 0.05);
    }
  }
  model.factors.push_back(std::move(factor0));
  for (const std::int64_t dim : {std::int64_t{12}, std::int64_t{10}}) {
    Matrix factor(dim, 3);
    for (std::int64_t i = 0; i < factor.size(); ++i) {
      factor.data()[i] = rng.Uniform(-1.0, 1.0);
    }
    model.factors.push_back(std::move(factor));
  }
  model.core = DenseTensor({rank0, 3, 3});
  for (std::int64_t i = 0; i < model.core.size(); ++i) {
    model.core[i] = rng.Uniform(-1.0, 1.0);
  }
  return model;
}

std::string WriteModelFile(const TuckerFactorization& model,
                           const char* name, bool with_centroids) {
  const std::string path =
      (std::filesystem::temp_directory_path() / name).string();
  SaveSnapshotV2(path, model, with_centroids);
  return path;
}

std::vector<std::int64_t> MakeQuery(Rng& rng, const ModelSnapshot& snap) {
  std::vector<std::int64_t> index(static_cast<std::size_t>(snap.order()), 0);
  for (std::int64_t n = 1; n < snap.order(); ++n) {
    index[static_cast<std::size_t>(n)] = static_cast<std::int64_t>(
        rng.UniformInt(static_cast<std::uint64_t>(snap.dim(n))));
  }
  return index;
}

void ExpectSameResults(const std::vector<ScoredIndex>& a,
                       const std::vector<ScoredIndex>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a[r].index, b[r].index) << "rank " << r;
    EXPECT_EQ(a[r].score, b[r].score) << "rank " << r;
  }
}

TEST(IvfTopKTest, ExactPathMatchesBruteForceBitIdentically) {
  const TuckerFactorization model = MakeClusteredModel();
  const std::string path =
      WriteModelFile(model, "ivf_topk_exact.ptks", /*with_centroids=*/true);
  const PredictionService service(ModelSnapshot::CreateFromFile(path));
  std::filesystem::remove(path);

  Rng rng(31);
  std::vector<std::int64_t> index = MakeQuery(rng, *service.snapshot());
  const std::vector<ScoredIndex> top = service.TopK(0, index, 10);

  // Brute force through the single-entry path, which TopK's candidate
  // scan is documented bit-identical to.
  std::vector<ScoredIndex> all;
  for (std::int64_t i = 0; i < service.snapshot()->dim(0); ++i) {
    index[0] = i;
    all.push_back(ScoredIndex{i, service.Predict(index)});
  }
  std::sort(all.begin(), all.end(), [](const ScoredIndex& a,
                                       const ScoredIndex& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.index < b.index;
  });
  all.resize(10);
  ExpectSameResults(top, all);
}

TEST(IvfTopKTest, FileBackedSnapshotMatchesOwningSnapshotExactly) {
  const TuckerFactorization model = MakeClusteredModel();
  const std::string path =
      WriteModelFile(model, "ivf_topk_owning.ptks", /*with_centroids=*/false);
  const PredictionService from_file(ModelSnapshot::CreateFromFile(path));
  std::filesystem::remove(path);
  const PredictionService owning(ModelSnapshot::Create(model));

  Rng rng(32);
  for (int q = 0; q < 5; ++q) {
    const std::vector<std::int64_t> index =
        MakeQuery(rng, *owning.snapshot());
    ExpectSameResults(from_file.TopK(0, index, 10), owning.TopK(0, index, 10));
  }
}

TEST(IvfTopKTest, NprobeAboveClusterCountEqualsExhaustive) {
  const TuckerFactorization model = MakeClusteredModel();
  const std::string path =
      WriteModelFile(model, "ivf_topk_all.ptks", /*with_centroids=*/true);
  const PredictionService service(ModelSnapshot::CreateFromFile(path));
  std::filesystem::remove(path);

  Rng rng(33);
  for (int q = 0; q < 5; ++q) {
    const std::vector<std::int64_t> index =
        MakeQuery(rng, *service.snapshot());
    ExpectSameResults(
        service.TopK(0, index, 10, nullptr, /*nprobe=*/1 << 20),
        service.TopK(0, index, 10, nullptr, /*nprobe=*/-1));
  }
}

TEST(IvfTopKTest, DefaultNprobeRecallAtLeast95Percent) {
  const TuckerFactorization model = MakeClusteredModel();
  const std::string path =
      WriteModelFile(model, "ivf_topk_recall.ptks", /*with_centroids=*/true);
  const PredictionService service(ModelSnapshot::CreateFromFile(path));
  std::filesystem::remove(path);
  ASSERT_NE(service.snapshot()->ivf(0), nullptr);

  Rng rng(34);
  const int queries = 20;
  std::int64_t hits = 0;
  for (int q = 0; q < queries; ++q) {
    const std::vector<std::int64_t> index =
        MakeQuery(rng, *service.snapshot());
    const std::vector<ScoredIndex> exact =
        service.TopK(0, index, 10, nullptr, /*nprobe=*/-1);
    const std::vector<ScoredIndex> approx =
        service.TopK(0, index, 10, nullptr, /*nprobe=*/0);
    for (const ScoredIndex& e : exact) {
      for (const ScoredIndex& a : approx) {
        if (a.index == e.index) {
          ++hits;
          break;
        }
      }
    }
  }
  const double recall =
      static_cast<double>(hits) / static_cast<double>(queries * 10);
  EXPECT_GE(recall, 0.95) << "recall@10 over " << queries << " queries";
}

TEST(IvfTopKTest, ExcludeIsRespectedOnTheIvfPath) {
  const TuckerFactorization model = MakeClusteredModel();
  const std::string path =
      WriteModelFile(model, "ivf_topk_excl.ptks", /*with_centroids=*/true);
  const PredictionService service(ModelSnapshot::CreateFromFile(path));
  std::filesystem::remove(path);

  Rng rng(35);
  const std::vector<std::int64_t> index =
      MakeQuery(rng, *service.snapshot());
  const std::vector<ScoredIndex> top =
      service.TopK(0, index, 1, nullptr, /*nprobe=*/0);
  ASSERT_EQ(top.size(), 1u);
  std::vector<char> exclude(
      static_cast<std::size_t>(service.snapshot()->dim(0)), 0);
  exclude[static_cast<std::size_t>(top[0].index)] = 1;
  const std::vector<ScoredIndex> without =
      service.TopK(0, index, 10, &exclude, /*nprobe=*/0);
  for (const ScoredIndex& r : without) {
    EXPECT_NE(r.index, top[0].index);
  }
}

TEST(IvfTopKTest, NprobeWithoutIvfSectionThrows) {
  const TuckerFactorization model = MakeClusteredModel();
  const std::string path =
      WriteModelFile(model, "ivf_topk_noivf.ptks", /*with_centroids=*/false);
  const PredictionService service(ModelSnapshot::CreateFromFile(path));
  std::filesystem::remove(path);

  std::vector<std::int64_t> index(3, 0);
  EXPECT_THROW(service.TopK(0, index, 5, nullptr, /*nprobe=*/0),
               std::invalid_argument);
  EXPECT_NO_THROW(service.TopK(0, index, 5, nullptr, /*nprobe=*/-1));
}

}  // namespace
}  // namespace ptucker

// Snapshot front-door tests (serve/snapshot.h): bit-identical v2 file
// round trips through LoadSnapshot, sparse-core storage, rejection of
// the retired v1 format, of missing files and of NaN/Inf values, and
// warm-start trajectory continuation through PTuckerOptions::init_snapshot.
#include "serve/snapshot.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ptucker.h"
#include "data/synthetic.h"
#include "serve/service.h"
#include "serve/snapshot_v2.h"
#include "util/random.h"

namespace ptucker {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

SparseTensor MakeTensor(std::uint64_t seed = 7) {
  Rng rng(seed);
  return UniformSparseTensor({20, 15, 12}, 900, rng);
}

TuckerFactorization TrainModel(const SparseTensor& x, int iterations,
                               bool orthogonalize = true) {
  PTuckerOptions options;
  options.core_dims = {3, 4, 2};
  options.max_iterations = iterations;
  options.tolerance = 0.0;
  options.orthogonalize_output = orthogonalize;
  return PTuckerDecompose(x, options).model;
}

void ExpectBitIdentical(const TuckerFactorization& a,
                        const TuckerFactorization& b) {
  ASSERT_EQ(a.factors.size(), b.factors.size());
  for (std::size_t n = 0; n < a.factors.size(); ++n) {
    ASSERT_TRUE(a.factors[n].SameShape(b.factors[n]));
    EXPECT_EQ(a.factors[n].MaxAbsDiff(b.factors[n]), 0.0) << "factor " << n;
  }
  ASSERT_EQ(a.core.dims(), b.core.dims());
  EXPECT_EQ(MaxAbsDiff(a.core, b.core), 0.0);
}

// Saves `model` as a v2 file and loads it back through LoadSnapshot.
TuckerFactorization FileRoundTrip(const TuckerFactorization& model,
                                  const char* name,
                                  bool with_centroids = false) {
  const std::string path = TempPath(name);
  SaveSnapshotV2(path, model, with_centroids);
  TuckerFactorization reloaded = LoadSnapshot(path);
  std::filesystem::remove(path);
  return reloaded;
}

TEST(SnapshotTest, FileRoundTripIsBitIdentical) {
  const SparseTensor x = MakeTensor();
  const TuckerFactorization model = TrainModel(x, 3);
  ExpectBitIdentical(model, FileRoundTrip(model, "snapshot_test_rt.ptks"));
  ExpectBitIdentical(model, FileRoundTrip(model, "snapshot_test_rt_ivf.ptks",
                                          /*with_centroids=*/true));
}

TEST(SnapshotTest, StoresOnlyCoreNonzeros) {
  const SparseTensor x = MakeTensor();
  TuckerFactorization model = TrainModel(x, 2, /*orthogonalize=*/false);
  // Sparsify the core the way P-TUCKER-APPROX truncation does; the
  // snapshot must round-trip the zeros and shrink with them.
  const std::string dense_bytes = SerializeSnapshotV2(model, nullptr);
  for (std::int64_t i = 0; i < model.core.size(); i += 2) model.core[i] = 0.0;
  const std::string sparse_bytes = SerializeSnapshotV2(model, nullptr);
  EXPECT_LT(sparse_bytes.size(), dense_bytes.size());
  ExpectBitIdentical(model, FileRoundTrip(model, "snapshot_test_sparse.ptks"));
}

// Format v1 (the pre-mmap layout: a 20-byte header of magic, u32
// version 1, u32 body CRC and u64 body size) is no longer read. A
// hand-built v1 header, shorter than a v2 header, must be refused by
// every loader with an error naming the path and the version.
TEST(SnapshotTest, V1FileIsRejectedNamingPathAndVersion) {
  std::string bytes = "PTKS";
  const std::uint32_t version = 1;
  bytes.append(reinterpret_cast<const char*>(&version), sizeof(version));
  bytes.append(12, '\0');  // CRC and body size of an empty body
  const std::string path = TempPath("snapshot_test_v1.ptks");
  {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.is_open());
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  const auto expect_rejected = [&path](const char* loader, auto&& load) {
    try {
      load();
      ADD_FAILURE() << loader << " accepted a v1 file";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path), std::string::npos) << loader << ": " << what;
      EXPECT_NE(what.find("unsupported snapshot version 1"), std::string::npos)
          << loader << ": " << what;
    }
  };
  expect_rejected("LoadSnapshot", [&] { LoadSnapshot(path); });
  expect_rejected("CreateFromFile",
                  [&] { ModelSnapshot::CreateFromFile(path); });
  std::filesystem::remove(path);
}

TEST(SnapshotTest, LoadMissingFileThrows) {
  EXPECT_THROW(LoadSnapshot("/nonexistent/snapshot.ptks"),
               std::runtime_error);
}

// The warm-start contract: checkpoint after k iterations (no
// orthogonalization), resume through init_snapshot, and the resumed run
// reproduces the straight run's remaining iterations bit-for-bit —
// row-wise ALS is deterministic in the (factors, core) state.
TEST(SnapshotTest, WarmStartContinuesTrajectoryBitIdentically) {
  const SparseTensor x = MakeTensor(21);
  PTuckerOptions options;
  options.core_dims = {3, 3, 3};
  options.tolerance = 0.0;
  options.orthogonalize_output = false;

  options.max_iterations = 6;
  const PTuckerResult straight = PTuckerDecompose(x, options);

  options.max_iterations = 3;
  const PTuckerResult half = PTuckerDecompose(x, options);
  const TuckerFactorization checkpoint =
      FileRoundTrip(half.model, "snapshot_test_warm.ptks");

  options.init_snapshot = &checkpoint;
  const PTuckerResult resumed = PTuckerDecompose(x, options);

  ASSERT_EQ(straight.iterations.size(), 6u);
  ASSERT_EQ(resumed.iterations.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(resumed.iterations[i].error, straight.iterations[i + 3].error)
        << "iteration " << i;
  }
  EXPECT_EQ(resumed.final_error, straight.final_error);
  ExpectBitIdentical(resumed.model, straight.model);
}

TEST(SnapshotTest, WarmStartShapeMismatchThrows) {
  const SparseTensor x = MakeTensor();
  const TuckerFactorization model =  // ranks {3,4,2}
      FileRoundTrip(TrainModel(x, 1), "snapshot_test_shape.ptks");
  PTuckerOptions options;
  options.core_dims = {3, 4, 3};  // mode-2 rank disagrees
  options.init_snapshot = &model;
  EXPECT_THROW(PTuckerDecompose(x, options), std::invalid_argument);

  Rng rng(3);
  const SparseTensor other = UniformSparseTensor({9, 15, 12}, 200, rng);
  options.core_dims = {3, 4, 2};
  EXPECT_THROW(PTuckerDecompose(other, options), std::invalid_argument);
}

TEST(SnapshotTest, SerializeRejectsInconsistentModel) {
  TuckerFactorization model = TrainModel(MakeTensor(), 1);
  model.factors.pop_back();
  EXPECT_THROW(SerializeSnapshotV2(model, nullptr), std::runtime_error);
}

// `serialize` must throw std::invalid_argument whose message contains
// `place`.
template <typename Serialize>
void ExpectNonFiniteRefused(Serialize&& serialize, const std::string& place) {
  try {
    serialize();
    ADD_FAILURE() << "serialized a non-finite value at " << place;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(place), std::string::npos)
        << e.what();
  }
}

TEST(SnapshotTest, SerializeRejectsNonFiniteValues) {
  const TuckerFactorization trained = TrainModel(MakeTensor(), 1);

  TuckerFactorization model = trained;
  model.factors[1](3, 2) = std::numeric_limits<double>::quiet_NaN();
  ExpectNonFiniteRefused([&] { SerializeSnapshotV2(model, nullptr); },
                         "factor 1 row 3 column 2");

  model = trained;
  std::vector<std::int64_t> index = {2, 1, 0};
  model.core.at(index.data()) = -std::numeric_limits<double>::infinity();
  ExpectNonFiniteRefused([&] { SerializeSnapshotV2(model, nullptr); },
                         "core entry (2, 1, 0)");
}

// A saved file whose factor value is overwritten by NaN's bit pattern
// (the payload CRC is only checked on request) must not load.
TEST(SnapshotTest, LoadRejectsNonFiniteFactorValue) {
  const TuckerFactorization model = TrainModel(MakeTensor(), 1);
  const std::string path = TempPath("snapshot_test_nan.ptks");
  SaveSnapshotV2(path, model, /*with_centroids=*/false);

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.is_open());
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const double value = model.factors[2](4, 1);
  const std::string pattern(reinterpret_cast<const char*>(&value),
                            sizeof(value));
  const std::size_t at = bytes.find(pattern);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(at, bytes.rfind(pattern)) << "value bytes are not unique";
  const double nan = std::numeric_limits<double>::quiet_NaN();
  bytes.replace(at, sizeof(nan), reinterpret_cast<const char*>(&nan),
                sizeof(nan));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }

  try {
    LoadSnapshot(path);
    ADD_FAILURE() << "LoadSnapshot accepted a NaN factor value";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("factor 2 row 4 column 1"), std::string::npos)
        << what;
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace ptucker

// Snapshot v2 format tests: bit-identical round trips through the
// mmap-ed loader, IVF section round trips, and an exhaustive corruption
// sweep — a bit flip or truncation at *every* byte offset of a v2 file
// must be rejected loudly (never UB, never a silently wrong model) when
// payload verification is on. The LoadSnapshot front door and warm start
// are covered by snapshot_test.cc.
#include "serve/snapshot_v2.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/snapshot.h"
#include "tensor/dense_tensor.h"
#include "util/random.h"

namespace ptucker {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.is_open());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A small random model built directly (no training), with a VeST-sparse
// core. Mode 0 is tall enough (>= 64 rows) to receive an IVF section.
TuckerFactorization MakeModel(std::uint64_t seed = 11) {
  Rng rng(seed);
  TuckerFactorization model;
  const std::vector<std::int64_t> dims = {96, 10, 8};
  const std::vector<std::int64_t> ranks = {3, 2, 2};
  for (std::size_t n = 0; n < dims.size(); ++n) {
    Matrix factor(dims[n], ranks[n]);
    for (std::int64_t i = 0; i < factor.size(); ++i) {
      factor.data()[i] = rng.Uniform(-1.0, 1.0);
    }
    model.factors.push_back(std::move(factor));
  }
  model.core = DenseTensor(ranks);
  for (std::int64_t i = 0; i < model.core.size(); ++i) {
    model.core[i] = i % 3 == 0 ? 0.0 : rng.Uniform(-1.0, 1.0);
  }
  return model;
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

TEST(SnapshotV2Test, FileRoundTripIsBitIdentical) {
  const TuckerFactorization model = MakeModel();
  const std::string path = TempPath("snapshot_v2_rt.ptks");
  SaveSnapshotV2(path, model, /*with_centroids=*/false);
  const std::unique_ptr<MmapSnapshot> snap =
      MmapSnapshot::Open(path, /*verify_payload=*/true);
  ExpectBitIdentical(model, MaterializeModel(*snap));
  std::filesystem::remove(path);
}

TEST(SnapshotV2Test, IvfSectionRoundTrips) {
  const TuckerFactorization model = MakeModel();
  const std::string path = TempPath("snapshot_v2_ivf.ptks");
  SaveSnapshotV2(path, model, /*with_centroids=*/true);
  const std::unique_ptr<MmapSnapshot> snap =
      MmapSnapshot::Open(path, /*verify_payload=*/true);

  // Mode 0 has 96 rows — indexed; modes 1 and 2 are under the 64-row
  // floor and must be skipped.
  const IvfModeView* ivf = snap->ivf(0);
  ASSERT_NE(ivf, nullptr);
  EXPECT_EQ(snap->ivf(1), nullptr);
  EXPECT_EQ(snap->ivf(2), nullptr);
  EXPECT_GT(ivf->k, 0);
  EXPECT_EQ(ivf->centroids.rows(), ivf->k);
  EXPECT_EQ(ivf->centroids.cols(), 3);
  ASSERT_EQ(ivf->offsets.size(), static_cast<std::size_t>(ivf->k) + 1);
  EXPECT_EQ(ivf->offsets[0], 0);
  EXPECT_EQ(ivf->offsets[static_cast<std::size_t>(ivf->k)], 96);
  // The member lists partition [0, 96): every id exactly once.
  std::vector<int> seen(96, 0);
  for (std::size_t i = 0; i < ivf->ids.size(); ++i) {
    ASSERT_GE(ivf->ids[i], 0);
    ASSERT_LT(ivf->ids[i], 96);
    ++seen[static_cast<std::size_t>(ivf->ids[i])];
  }
  for (int count : seen) EXPECT_EQ(count, 1);
  std::filesystem::remove(path);
}

TEST(SnapshotV2Test, ErrorsNameTheFileAndSection) {
  const TuckerFactorization model = MakeModel();
  const std::string path = TempPath("snapshot_v2_err.ptks");
  std::string bytes = SerializeSnapshotV2(model, nullptr);
  bytes[0] = 'X';
  WriteFile(path, bytes);
  try {
    MmapSnapshot::Open(path);
    FAIL() << "bad magic not rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("section"), std::string::npos) << what;
  }
  std::filesystem::remove(path);
}

// The corruption sweep: with payload verification on, a single flipped
// bit at ANY byte offset — header fields, meta, padding gaps, factor
// payload, IVF lists — must throw, never load a silently wrong model.
TEST(SnapshotV2Test, BitFlipAtEveryOffsetIsRejected) {
  const TuckerFactorization model = MakeModel();
  std::vector<IvfIndex> ivf;
  for (const Matrix& factor : model.factors) {
    ivf.push_back(BuildIvfRows(FactorView(factor), IvfBuildOptions{}));
  }
  const std::string pristine = SerializeSnapshotV2(model, &ivf);
  const std::string path = TempPath("snapshot_v2_flip.ptks");
  for (std::size_t offset = 0; offset < pristine.size(); ++offset) {
    std::string bytes = pristine;
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x10);
    WriteFile(path, bytes);
    EXPECT_THROW(MmapSnapshot::Open(path, /*verify_payload=*/true),
                 std::runtime_error)
        << "flip at offset " << offset << " not rejected";
  }
  std::filesystem::remove(path);
}

// Truncating the file at any length — inside the header, the meta, or
// any payload section — must also throw.
TEST(SnapshotV2Test, TruncationAtEveryLengthIsRejected) {
  const TuckerFactorization model = MakeModel();
  const std::string pristine = SerializeSnapshotV2(model, nullptr);
  const std::string path = TempPath("snapshot_v2_trunc.ptks");
  for (std::size_t length = 0; length < pristine.size(); ++length) {
    WriteFile(path, pristine.substr(0, length));
    EXPECT_THROW(MmapSnapshot::Open(path, /*verify_payload=*/true),
                 std::runtime_error)
        << "truncation to " << length << " bytes not rejected";
  }
  WriteFile(path, pristine + "x");  // trailing garbage
  EXPECT_THROW(MmapSnapshot::Open(path, /*verify_payload=*/true),
               std::runtime_error);
  std::filesystem::remove(path);
}

// Payload verification is opt-in (structural checks always run): a flip
// inside the factor payload loads without it — the documented tradeoff
// that keeps open() cost independent of model size — and is caught the
// moment it is requested.
TEST(SnapshotV2Test, PayloadVerificationIsOptIn) {
  const TuckerFactorization model = MakeModel();
  std::string bytes = SerializeSnapshotV2(model, nullptr);
  std::uint64_t payload_offset = 0;
  std::memcpy(&payload_offset, bytes.data() + 40, sizeof(payload_offset));
  bytes[static_cast<std::size_t>(payload_offset)] ^= 0x10;  // factor 0 bits
  const std::string path = TempPath("snapshot_v2_optin.ptks");
  WriteFile(path, bytes);
  EXPECT_NO_THROW(MmapSnapshot::Open(path, /*verify_payload=*/false));
  EXPECT_THROW(MmapSnapshot::Open(path, /*verify_payload=*/true),
               std::runtime_error);
  std::filesystem::remove(path);
}

// Hostile header: a correctly-checksummed v2 file declaring a 2^40-row
// factor in a ~4 KB body must be rejected from the byte budget before
// any view is built or memory allocated.
TEST(SnapshotV2Test, RejectsHugeDeclaredShapes) {
  const TuckerFactorization model = MakeModel();
  std::string bytes = SerializeSnapshotV2(model, nullptr);
  std::uint64_t payload_offset = 0;
  std::memcpy(&payload_offset, bytes.data() + 40, sizeof(payload_offset));
  // meta layout: order, dims[0..2], ... — patch dims[0] at meta + 8.
  const std::int64_t huge = std::int64_t{1} << 40;
  std::memcpy(&bytes[64 + 8], &huge, sizeof(huge));
  const std::uint32_t meta_crc = SnapshotCrc32(
      bytes.data() + 64, static_cast<std::size_t>(payload_offset) - 64);
  std::memcpy(&bytes[8], &meta_crc, sizeof(meta_crc));
  const std::string path = TempPath("snapshot_v2_huge.ptks");
  WriteFile(path, bytes);
  try {
    MmapSnapshot::Open(path);
    FAIL() << "huge declared factor not rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("factor 0"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

TEST(SnapshotV2Test, OpenMissingFileThrows) {
  EXPECT_THROW(MmapSnapshot::Open("/nonexistent/model_v2.ptks"),
               std::runtime_error);
}

}  // namespace
}  // namespace ptucker

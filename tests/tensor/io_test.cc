#include "tensor/io.h"

#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "util/random.h"

namespace ptucker {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(TnsParseTest, BasicContent) {
  const std::string content =
      "# a comment\n"
      "1 1 1 1.5\n"
      "\n"
      "2 3 1 -2.0\n";
  SparseTensor t = ParseTns(content);
  EXPECT_EQ(t.order(), 3);
  EXPECT_EQ(t.nnz(), 2);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.dim(2), 1);
  EXPECT_EQ(t.index(1, 1), 2);  // 1-based on disk -> 0-based in memory
  EXPECT_EQ(t.value(0), 1.5);
}

TEST(TnsParseTest, ExplicitDims) {
  SparseTensor t = ParseTns("1 1 0.5\n", {10, 20});
  EXPECT_EQ(t.dim(0), 10);
  EXPECT_EQ(t.dim(1), 20);
}

TEST(TnsParseTest, RejectsOutOfBoundsForExplicitDims) {
  EXPECT_THROW(ParseTns("5 1 0.5\n", {4, 4}), std::runtime_error);
}

TEST(TnsParseTest, RejectsNonNumeric) {
  EXPECT_THROW(ParseTns("1 abc 0.5\n"), std::runtime_error);
}

TEST(TnsParseTest, RejectsZeroIndex) {
  EXPECT_THROW(ParseTns("0 1 0.5\n"), std::runtime_error);
}

TEST(TnsParseTest, RejectsFractionalIndex) {
  EXPECT_THROW(ParseTns("1.5 1 0.5\n"), std::runtime_error);
}

// Indices beyond int64 (1e19) or far beyond any double-to-int cast
// (1e300) must be rejected by value, with the line number, before any
// conversion — the cast itself would be undefined behaviour.
TEST(TnsParseTest, RejectsHugeIndexTokens) {
  for (const std::string token : {"1e19", "1e300"}) {
    try {
      ParseTns("1 1 0.5\n" + token + " 1 0.5\n");
      ADD_FAILURE() << "accepted index " << token;
    } catch (const std::runtime_error& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("line 2"), std::string::npos) << message;
      EXPECT_NE(message.find("positive integer"), std::string::npos)
          << message;
    }
  }
}

TEST(TnsParseTest, RejectsInconsistentOrder) {
  EXPECT_THROW(ParseTns("1 1 0.5\n1 1 1 0.5\n"), std::runtime_error);
}

TEST(TnsParseTest, RejectsValueOnlyLine) {
  EXPECT_THROW(ParseTns("0.5\n"), std::runtime_error);
}

TEST(TnsParseTest, EmptyContentWithoutDimsThrows) {
  EXPECT_THROW(ParseTns("# nothing\n"), std::runtime_error);
}

TEST(TnsRoundTripTest, FormatThenParse) {
  Rng rng(1);
  SparseTensor original = UniformSparseTensor({5, 7, 3}, 20, rng);
  SparseTensor parsed = ParseTns(FormatTns(original), original.dims());
  ASSERT_EQ(parsed.nnz(), original.nnz());
  for (std::int64_t e = 0; e < original.nnz(); ++e) {
    for (std::int64_t k = 0; k < 3; ++k) {
      EXPECT_EQ(parsed.index(e, k), original.index(e, k));
    }
    EXPECT_DOUBLE_EQ(parsed.value(e), original.value(e));
  }
}

TEST(TnsFileTest, WriteAndReadBack) {
  Rng rng(2);
  SparseTensor original = UniformSparseTensor({4, 4, 4}, 10, rng);
  const std::string path = TempPath("ptucker_io_test.tns");
  WriteTns(path, original);
  SparseTensor loaded = ReadTns(path, original.dims());
  EXPECT_EQ(loaded.nnz(), original.nnz());
  std::remove(path.c_str());
}

TEST(TnsFileTest, MissingFileThrows) {
  EXPECT_THROW(ReadTns(TempPath("does_not_exist_ptucker.tns")),
               std::runtime_error);
}

TEST(BinaryIoTest, RoundTripExact) {
  Rng rng(3);
  SparseTensor original = UniformSparseTensor({9, 5, 6, 2}, 40, rng);
  const std::string path = TempPath("ptucker_io_test.ptnb");
  WriteBinary(path, original);
  SparseTensor loaded = ReadBinary(path);
  ASSERT_EQ(loaded.dims(), original.dims());
  ASSERT_EQ(loaded.nnz(), original.nnz());
  for (std::int64_t e = 0; e < original.nnz(); ++e) {
    EXPECT_EQ(loaded.value(e), original.value(e));  // bit-exact
    for (std::int64_t k = 0; k < 4; ++k) {
      EXPECT_EQ(loaded.index(e, k), original.index(e, k));
    }
  }
  std::remove(path.c_str());
}

TEST(BinaryIoTest, BadMagicThrows) {
  const std::string path = TempPath("ptucker_bad_magic.ptnb");
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("NOPE garbage", f);
  std::fclose(f);
  EXPECT_THROW(ReadBinary(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, TruncatedFileThrows) {
  Rng rng(4);
  SparseTensor original = UniformSparseTensor({5, 5}, 10, rng);
  const std::string path = TempPath("ptucker_truncated.ptnb");
  WriteBinary(path, original);
  // Truncate the file to half.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_THROW(ReadBinary(path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ptucker

#include "tensor/sparse_tensor.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/row_update.h"
#include "data/synthetic.h"
#include "util/random.h"

namespace ptucker {
namespace {

SparseTensor MakeSmall() {
  SparseTensor t({3, 4, 2});
  t.AddEntry({0, 0, 0}, 1.0);
  t.AddEntry({1, 2, 1}, -2.0);
  t.AddEntry({2, 3, 0}, 0.5);
  t.AddEntry({1, 0, 1}, 3.0);
  return t;
}

TEST(SparseTensorTest, BasicAccessors) {
  SparseTensor t = MakeSmall();
  EXPECT_EQ(t.order(), 3);
  EXPECT_EQ(t.nnz(), 4);
  EXPECT_EQ(t.dim(0), 3);
  EXPECT_EQ(t.dim(2), 2);
  EXPECT_EQ(t.index(1, 1), 2);
  EXPECT_EQ(t.value(1), -2.0);
}

TEST(SparseTensorTest, FrobeniusNorm) {
  SparseTensor t({2, 2});
  t.AddEntry({0, 0}, 3.0);
  t.AddEntry({1, 1}, 4.0);
  EXPECT_DOUBLE_EQ(t.FrobeniusNorm(), 5.0);
}

TEST(SparseTensorTest, SetValue) {
  SparseTensor t = MakeSmall();
  t.set_value(0, 9.0);
  EXPECT_EQ(t.value(0), 9.0);
}

TEST(SparseTensorTest, ModeIndexPartitionsEntries) {
  SparseTensor t = MakeSmall();
  t.BuildModeIndex();
  for (std::int64_t mode = 0; mode < t.order(); ++mode) {
    std::int64_t total = 0;
    std::set<std::int64_t> seen;
    for (std::int64_t i = 0; i < t.dim(mode); ++i) {
      for (std::int64_t e : t.Slice(mode, i)) {
        EXPECT_EQ(t.index(e, mode), i);
        seen.insert(e);
        ++total;
      }
      EXPECT_EQ(t.SliceSize(mode, i),
                static_cast<std::int64_t>(t.Slice(mode, i).size()));
    }
    EXPECT_EQ(total, t.nnz());
    EXPECT_EQ(static_cast<std::int64_t>(seen.size()), t.nnz());
  }
}

TEST(SparseTensorTest, SliceContents) {
  SparseTensor t = MakeSmall();
  t.BuildModeIndex();
  // Mode 0, slice 1 holds entries 1 and 3.
  auto slice = t.Slice(0, 1);
  std::set<std::int64_t> ids(slice.begin(), slice.end());
  EXPECT_EQ(ids, (std::set<std::int64_t>{1, 3}));
  // Empty slice.
  SparseTensor t2({5, 5});
  t2.AddEntry({0, 0}, 1.0);
  t2.BuildModeIndex();
  EXPECT_TRUE(t2.Slice(0, 3).empty());
}

TEST(SparseTensorTest, AddEntryInvalidatesModeIndex) {
  SparseTensor t = MakeSmall();
  t.BuildModeIndex();
  EXPECT_TRUE(t.has_mode_index());
  t.AddEntry({0, 1, 1}, 4.0);
  EXPECT_FALSE(t.has_mode_index());
  t.BuildModeIndex();
  EXPECT_EQ(t.SliceSize(0, 0), 2);
}

TEST(SparseTensorTest, ByteSizeGrowsWithEntries) {
  SparseTensor t({10, 10});
  const std::int64_t empty = t.ByteSize();
  t.AddEntry({1, 1}, 1.0);
  EXPECT_GT(t.ByteSize(), empty);
}

TEST(SparseTensorDeathTest, OutOfBoundsEntryChecks) {
  SparseTensor t({2, 2});
  EXPECT_DEATH(t.AddEntry({2, 0}, 1.0), "CHECK failed");
}

// Property: the mode index is consistent on random tensors of any order.
class ModeIndexSweep : public ::testing::TestWithParam<int> {};

TEST_P(ModeIndexSweep, RandomTensorPartition) {
  const int order = GetParam();
  Rng rng(order);
  std::int64_t total = 1;
  for (int k = 0; k < order; ++k) total *= 6;
  SparseTensor t =
      UniformCubicTensor(order, 6, std::min<std::int64_t>(50, total), rng);
  for (std::int64_t mode = 0; mode < order; ++mode) {
    std::int64_t total = 0;
    for (std::int64_t i = 0; i < t.dim(mode); ++i) {
      total += t.SliceSize(mode, i);
      for (std::int64_t e : t.Slice(mode, i)) {
        ASSERT_EQ(t.index(e, mode), i);
      }
    }
    EXPECT_EQ(total, t.nnz());
  }
}

// BuildModeIndex sorts the modes in parallel, so orders 1-6 at 2, 3 and
// 5 threads have fewer modes than threads, as many, and more. Every
// slice must list the same entry ids in the same order as at 1 thread,
// also after RemoveEntries shifts the ids.
TEST_P(ModeIndexSweep, SameIndexAtEveryThreadCount) {
  const int order = GetParam();
  Rng rng(order + 100);
  std::int64_t cells = 1;
  for (int k = 0; k < order; ++k) cells *= 6;
  SparseTensor t =
      UniformCubicTensor(order, 6, std::min<std::int64_t>(200, cells), rng);
  for (const bool removed : {false, true}) {
    if (removed) {
      std::vector<char> remove(static_cast<std::size_t>(t.nnz()));
      for (std::size_t e = 0; e < remove.size(); ++e) remove[e] = e % 3 == 1;
      t.RemoveEntries(remove);
    }
    std::vector<std::vector<std::vector<std::int64_t>>> serial;
    for (const int threads : {1, 2, 3, 5}) {
      OmpEnvironmentGuard guard(threads, Scheduling::kStatic);
      t.BuildModeIndex();
      for (std::int64_t mode = 0; mode < order; ++mode) {
        for (std::int64_t i = 0; i < t.dim(mode); ++i) {
          const Span<const std::int64_t> slice = t.Slice(mode, i);
          const std::vector<std::int64_t> ids(slice.begin(), slice.end());
          if (threads == 1) {
            if (i == 0) serial.emplace_back();
            serial[static_cast<std::size_t>(mode)].push_back(ids);
          } else {
            EXPECT_EQ(ids, serial[static_cast<std::size_t>(mode)]
                              [static_cast<std::size_t>(i)])
                << threads << " threads, mode " << mode << ", row " << i
                << (removed ? ", after RemoveEntries" : "");
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, ModeIndexSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(SparseTensorTest, RemoveEntriesCompactsInOrder) {
  SparseTensor t = MakeSmall();
  t.BuildModeIndex();
  // Drop entries 1 and 3; survivors keep their relative order with ids
  // shifted down.
  const std::vector<char> remove = {0, 1, 0, 1};
  EXPECT_EQ(t.RemoveEntries(remove), 2);
  ASSERT_EQ(t.nnz(), 2);
  EXPECT_EQ(t.value(0), 1.0);
  EXPECT_EQ(t.index(0, 0), 0);
  EXPECT_EQ(t.value(1), 0.5);
  EXPECT_EQ(t.index(1, 0), 2);
  // The mode index is invalidated, and rebuilding it sees only the
  // survivors.
  EXPECT_FALSE(t.has_mode_index());
  t.BuildModeIndex();
  EXPECT_EQ(t.SliceSize(0, 1), 0);  // both mode-0=1 entries removed
  EXPECT_EQ(t.SliceSize(0, 2), 1);
}

TEST(SparseTensorTest, RemoveEntriesEdgeCases) {
  SparseTensor t = MakeSmall();
  EXPECT_EQ(t.RemoveEntries(std::vector<char>(4, 0)), 0);  // no-op
  EXPECT_EQ(t.nnz(), 4);
  EXPECT_EQ(t.RemoveEntries(std::vector<char>(4, 1)), 4);  // remove all
  EXPECT_EQ(t.nnz(), 0);
}

TEST(SparseTensorDeathTest, RemoveEntriesFlagCountMustMatchNnz) {
  SparseTensor t = MakeSmall();
  EXPECT_DEATH(t.RemoveEntries(std::vector<char>(3, 0)), "CHECK failed");
}

}  // namespace
}  // namespace ptucker

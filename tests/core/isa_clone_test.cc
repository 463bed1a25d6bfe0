// The generic and the AVX2 build of each dispatched kernel (util/cpu.h)
// must give the same bits: the contraction tree walk, the R(β) scorer and
// the batched naive reconstruct. On an AVX2 machine every other test runs
// only the AVX2 build, so this is the one test that runs the generic
// build there.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/contraction_walk.h"
#include "core/delta.h"
#include "core/truncation.h"
#include "data/synthetic.h"
#include "tensor/csf.h"
#include "util/cpu.h"
#include "util/random.h"

namespace ptucker {
namespace {

#if PTUCKER_AVX2_CLONES

std::uint64_t Bits(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// EXPECT_EQ on the bit patterns of every value, stopping at the first
// difference.
void ExpectSameBits(const std::vector<double>& generic,
                    const std::vector<double>& avx2,
                    const std::string& where) {
  ASSERT_EQ(generic.size(), avx2.size()) << where;
  for (std::size_t i = 0; i < generic.size(); ++i) {
    EXPECT_EQ(Bits(generic[i]), Bits(avx2[i]))
        << where << ", value " << i << ": generic " << generic[i]
        << ", avx2 " << avx2[i];
    if (Bits(generic[i]) != Bits(avx2[i])) return;
  }
}

class IsaCloneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!CpuHasAvx2()) {
      GTEST_SKIP() << "this CPU has no AVX2, so the AVX2 clones cannot run";
    }
  }
};

struct Problem {
  std::vector<std::int64_t> dims;
  DenseTensor core;
  CoreEntryList list;
  std::vector<Matrix> factors;
};

// A dense signed core of `ranks` and signed factors of `dims` rows with
// exact zeros among their values.
Problem MakeProblem(const std::vector<std::int64_t>& dims,
                    const std::vector<std::int64_t>& ranks, Rng& rng) {
  Problem p;
  p.dims = dims;
  p.core = DenseTensor(ranks);
  for (std::int64_t i = 0; i < p.core.size(); ++i) {
    p.core[i] = rng.Uniform(-0.5, 0.5);
  }
  p.list = CoreEntryList(p.core);
  for (std::size_t k = 0; k < dims.size(); ++k) {
    Matrix factor(dims[k], ranks[k]);
    for (std::int64_t i = 0; i < factor.size(); ++i) {
      factor.data()[i] =
          rng.Uniform(0.0, 1.0) < 0.1 ? 0.0 : rng.Uniform(-1.0, 1.0);
    }
    p.factors.push_back(std::move(factor));
  }
  return p;
}

// The three core states each kernel is checked on: the dense core, the
// same pattern holding −0.0 at every fifth entry, then every third entry
// of that removed.
template <typename Check>
void ForEachCoreState(Problem& p, Rng& rng, const Check& check) {
  check("dense core");
  for (std::int64_t linear = 0; linear < p.core.size(); ++linear) {
    p.core[linear] = linear % 5 == 2 ? -0.0 : rng.Uniform(-0.5, 0.5);
  }
  p.list.RefreshValues(p.core);
  check("core with -0.0");
  if (p.list.size() > 1) {
    std::vector<char> remove(static_cast<std::size_t>(p.list.size()), 0);
    for (std::size_t b = 0; b < remove.size(); b += 3) remove[b] = 1;
    p.list.Remove(remove, &p.core);
    check("truncated core");
  }
}

// `count` random coordinate tuples within `dims`, entry-major.
std::vector<std::int64_t> RandomCoordinates(
    const std::vector<std::int64_t>& dims, std::int64_t count, Rng& rng) {
  std::vector<std::int64_t> coords;
  for (std::int64_t e = 0; e < count; ++e) {
    for (const std::int64_t dim : dims) {
      coords.push_back(static_cast<std::int64_t>(
          rng.UniformInt(static_cast<std::uint64_t>(dim))));
    }
  }
  return coords;
}

std::vector<const std::int64_t*> EntryPointers(
    const std::vector<std::int64_t>& coords, std::int64_t order) {
  std::vector<const std::int64_t*> pointers;
  for (std::size_t at = 0; at < coords.size();
       at += static_cast<std::size_t>(order)) {
    pointers.push_back(coords.data() + at);
  }
  return pointers;
}

TEST_F(IsaCloneTest, TreeWalkClonesAgree) {
  // Orders 3-7 with mode 0 at ranks 1-9 (the other modes at rank 2), the
  // tree over the last d of the other modes for every depth d (1-6), the
  // probes walked in chunks of 0, 1-5 and 63-65: every fixed-depth nest,
  // every width, every unrolled rank, the recursive walk and the generic
  // rank, with the batch remainders walked one entry at a time.
  constexpr std::int64_t kProbes = 130;
  const std::int64_t chunk_sizes[] = {0, 1, 2, 3, 4, 5, 63, 64, 65};
  Rng rng(4700);
  for (std::int64_t order = 3; order <= 7; ++order) {
    for (std::int64_t rank = 1; rank <= 9; ++rank) {
      std::vector<std::int64_t> dims(static_cast<std::size_t>(order));
      std::vector<std::int64_t> ranks(static_cast<std::size_t>(order), 2);
      ranks[0] = rank;
      for (std::int64_t k = 0; k < order; ++k) {
        dims[static_cast<std::size_t>(k)] = 5 + k;
      }
      Problem p = MakeProblem(dims, ranks, rng);
      const std::vector<FactorView> views = MakeFactorViews(p.factors);
      const std::vector<std::int64_t> coords =
          RandomCoordinates(dims, kProbes, rng);
      const std::vector<const std::int64_t*> probes =
          EntryPointers(coords, order);
      ForEachCoreState(p, rng, [&](const std::string& state) {
        for (std::int64_t depth = 1; depth < order; ++depth) {
          std::vector<std::int64_t> levels;
          for (std::int64_t k = order - depth; k < order; ++k) {
            levels.push_back(k);
          }
          const CsfTree tree = BuildCsfTree(p.list.index(0), p.list.size(),
                                            order, levels, ranks);
          const auto leaf_count =
              static_cast<std::int64_t>(tree.fids.back().size());
          // Leaf l, lane j: the core values on that leaf with β0 = j,
          // summed from −0.0 so that a leaf of −0.0 entries stays −0.0.
          std::vector<double> values(
              static_cast<std::size_t>(leaf_count * rank), -0.0);
          for (std::int64_t b = 0; b < p.list.size(); ++b) {
            values[static_cast<std::size_t>(
                tree.leaf_of[static_cast<std::size_t>(b)] * rank +
                p.list.index(b)[0])] += p.list.value(b);
          }
          const LeafArrays leaves{values.data(), nullptr, nullptr, 0,
                                  leaf_count * rank};
          for (const std::int64_t chunk : chunk_sizes) {
            std::vector<double> generic(
                static_cast<std::size_t>((kProbes + 1) * rank), 7.0);
            std::vector<double> avx2 = generic;
            for (std::int64_t first = 0; first < kProbes;
                 first += std::max<std::int64_t>(chunk, 1)) {
              const std::int64_t count = std::min(chunk, kProbes - first);
              contraction_walk_generic::WalkContractionTree(
                  tree, levels, views, leaves, rank, count,
                  probes.data() + first, generic.data() + first * rank);
              contraction_walk_avx2::WalkContractionTree(
                  tree, levels, views, leaves, rank, count,
                  probes.data() + first, avx2.data() + first * rank);
            }
            ExpectSameBits(generic, avx2,
                           "order " + std::to_string(order) + " rank " +
                               std::to_string(rank) + " depth " +
                               std::to_string(depth) + " chunks of " +
                               std::to_string(chunk) + ", " + state);
          }
        }
      });
    }
  }
}

TEST_F(IsaCloneTest, ScorerClonesAgree) {
  // truncation_test's shapes, then order 5 at |G| = 1024; each scored
  // dense, with −0.0 in the core, truncated, and after a truncation by
  // the scores themselves.
  struct Shape {
    std::vector<std::int64_t> dims;
    std::vector<std::int64_t> ranks;
    std::int64_t nnz;
  };
  const Shape shapes[] = {
      {{7, 5}, {3, 2}, 30},
      {{6, 6, 4}, {2, 3, 4}, 120},
      {{9, 1, 5, 4}, {3, 1, 2, 2}, 150},
      {{11, 7, 1, 5}, {2, 3, 2, 3}, 200},
      {{5, 4, 5, 3, 6}, {2, 3, 2, 2, 3}, 400},
      {{4, 3, 4, 2, 3, 3}, {2, 2, 1, 2, 3, 2}, 300},
      {{12, 12, 12, 12, 12}, {4, 4, 4, 4, 4}, 1500},
  };
  Rng rng(4701);
  for (const Shape& shape : shapes) {
    Problem p = MakeProblem(shape.dims, shape.ranks, rng);
    const SparseTensor x = UniformSparseTensor(shape.dims, shape.nnz, rng);
    const std::string name = "order " + std::to_string(shape.dims.size()) +
                             " |G| " + std::to_string(p.list.size());
    const auto check = [&](const std::string& state) {
      ExpectSameBits(
          truncation_generic::ComputePartialErrors(x, p.list, p.factors),
          truncation_avx2::ComputePartialErrors(x, p.list, p.factors),
          name + ", " + state);
    };
    ForEachCoreState(p, rng, check);
    TruncateNoisyEntries(x, &p.core, &p.list, p.factors, 0.3);
    check("after a truncation");
  }
}

TEST_F(IsaCloneTest, BatchedReconstructClonesAgree) {
  // Orders 1-5 at ranks 1-9 (mode 0 at the rank, the others cycling
  // through 1-4), counts around the 16-entry block with a short last
  // block.
  const std::int64_t counts[] = {0, 1, 15, 16, 17, 53};
  Rng rng(4702);
  for (std::int64_t order = 1; order <= 5; ++order) {
    for (std::int64_t rank = 1; rank <= 9; ++rank) {
      std::vector<std::int64_t> dims;
      std::vector<std::int64_t> ranks;
      for (std::int64_t k = 0; k < order; ++k) {
        dims.push_back(7 + k);
        ranks.push_back(k == 0 ? rank : 1 + (k + order) % 4);
      }
      Problem p = MakeProblem(dims, ranks, rng);
      const std::vector<FactorView> views = MakeFactorViews(p.factors);
      ForEachCoreState(p, rng, [&](const std::string& state) {
        for (const std::int64_t count : counts) {
          const std::vector<std::int64_t> coords =
              RandomCoordinates(dims, count, rng);
          const std::vector<const std::int64_t*> indices =
              EntryPointers(coords, order);
          std::vector<double> generic(static_cast<std::size_t>(count + 1),
                                      7.0);
          std::vector<double> avx2 = generic;
          delta_generic::ReconstructFromList(p.list, views, count,
                                             indices.data(), generic.data());
          delta_avx2::ReconstructFromList(p.list, views, count,
                                          indices.data(), avx2.data());
          ExpectSameBits(generic, avx2,
                         "order " + std::to_string(order) + " rank " +
                             std::to_string(rank) + " count " +
                             std::to_string(count) + ", " + state);
        }
      });
    }
  }
}

// CpuHasAvx2 reads CPUID and XGETBV itself; it must agree with GCC's own
// CPU probe, which also asks whether the OS saves the YMM registers.
TEST(CpuTest, HasAvx2AgreesWithGccsProbe) {
  __builtin_cpu_init();
  EXPECT_EQ(CpuHasAvx2(), __builtin_cpu_supports("avx2") != 0);
  EXPECT_STREQ(KernelIsaName(), CpuHasAvx2() ? "avx2" : "generic");
}

#else  // !PTUCKER_AVX2_CLONES

TEST(IsaCloneTest, NoAvx2Clones) {
  GTEST_SKIP() << "the AVX2 clones are compiled by GCC on x86-64 only; this "
                  "build has the generic kernels alone";
}

#endif

}  // namespace
}  // namespace ptucker

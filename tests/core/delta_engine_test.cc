// Equivalence and maintenance tests for the pluggable δ-engines: the
// mode-major and cached engines must agree with the naive entry-major
// oracle on every kernel, and the contraction engine within its stated
// per-value bound, all staying consistent through core-list mutations
// (Remove, RefreshValues) and factor updates, and holding across thread
// counts. DeltaBatch must equal its per-entry loop on every engine, and
// the solver-level guarantees are pinned: the engines produce the same
// trajectories, each bit-reproducibly, and the metric and truncation
// scans are bit-identical across thread counts.
#include "core/delta_engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ptucker.h"
#include "core/reconstruction.h"
#include "core/truncation.h"
#include "data/synthetic.h"
#include "util/parallel.h"
#include "util/random.h"

#include "thread_count_guard.h"

namespace ptucker {
namespace {

struct Ctx {
  SparseTensor x;
  DenseTensor core;
  CoreEntryList list;
  std::vector<Matrix> factors;
};

// order-many tensor dims / uniform core rank, with ~30% of the core
// zeroed so the entry list is genuinely sparse and groups are ragged.
Ctx MakeCtx(std::int64_t order, std::int64_t rank, std::uint64_t seed) {
  Rng rng(seed);
  Ctx s;
  std::vector<std::int64_t> dims;
  std::vector<std::int64_t> ranks;
  for (std::int64_t k = 0; k < order; ++k) {
    dims.push_back(12 - k);
    ranks.push_back(rank);
  }
  s.x = UniformSparseTensor(dims, 150, rng);
  s.core = DenseTensor(ranks);
  s.core.FillUniform(rng);
  for (std::int64_t linear = 0; linear < s.core.size(); ++linear) {
    if (rng.Uniform() < 0.3) s.core[linear] = 0.0;
  }
  if (s.core.CountNonZeros() == 0) s.core[0] = 0.5;
  s.list = CoreEntryList(s.core);
  for (std::int64_t k = 0; k < order; ++k) {
    Matrix factor(s.x.dim(k), rank);
    factor.FillUniform(rng);
    // Sprinkle exact zeros so the group-level skip and the cache's
    // division fallback both execute.
    for (std::int64_t i = 0; i < factor.rows(); ++i) {
      for (std::int64_t j = 0; j < factor.cols(); ++j) {
        if (rng.Uniform() < 0.1) factor(i, j) = 0.0;
      }
    }
    s.factors.push_back(std::move(factor));
  }
  return s;
}

struct Engines {
  NaiveDeltaEngine naive;
  ModeMajorDeltaEngine mode_major;
  CachedDeltaEngine cached;

  explicit Engines(const Ctx& s)
      : naive(s.list, s.factors),
        mode_major(s.list, s.factors, nullptr),
        cached(s.x, s.list, s.factors, nullptr) {}

  // Every engine, for broadcasting the mutation hooks.
  std::vector<DeltaEngine*> All() { return {&naive, &mode_major, &cached}; }
};

// DeltaBatch must equal per-entry ComputeDelta bit for bit for every mode
// and for batches of 1, 63, 64 and 65 probes and of all of them. The
// probes are every observed entry (with its id), then every entry shifted
// one step along each mode, outside the tensor in general (entry −1).
void ExpectBatchMatchesComputeDelta(const SparseTensor& x,
                                    const DeltaEngine& engine,
                                    const std::vector<Matrix>& factors,
                                    const std::string& where) {
  const std::int64_t order = x.order();
  const std::int64_t nnz = x.nnz();
  std::vector<std::int64_t> shifted(static_cast<std::size_t>(nnz * order));
  std::vector<std::int64_t> entries;
  std::vector<const std::int64_t*> indices;
  for (std::int64_t e = 0; e < nnz; ++e) {
    entries.push_back(e);
    indices.push_back(x.index(e));
  }
  for (std::int64_t e = 0; e < nnz; ++e) {
    std::int64_t* index = shifted.data() + e * order;
    for (std::int64_t k = 0; k < order; ++k) {
      index[k] = (x.index(e)[k] + 1) % x.dim(k);
    }
    entries.push_back(-1);
    indices.push_back(index);
  }
  const std::int64_t probes = static_cast<std::int64_t>(entries.size());
  ASSERT_GT(probes, 65) << where;
  for (std::int64_t mode = 0; mode < order; ++mode) {
    const std::int64_t rank = factors[static_cast<std::size_t>(mode)].cols();
    std::vector<double> single(static_cast<std::size_t>(rank));
    for (const std::int64_t count :
         {std::int64_t{1}, std::int64_t{63}, std::int64_t{64},
          std::int64_t{65}, probes}) {
      std::vector<double> batched(static_cast<std::size_t>(count * rank),
                                  7.0);
      engine.DeltaBatch(count, entries.data(), indices.data(), mode,
                        batched.data());
      for (std::int64_t i = 0; i < count; ++i) {
        const std::size_t p = static_cast<std::size_t>(i);
        engine.ComputeDelta(entries[p], indices[p], mode, single.data());
        for (std::int64_t j = 0; j < rank; ++j) {
          ASSERT_EQ(batched[static_cast<std::size_t>(i * rank + j)],
                    single[static_cast<std::size_t>(j)])
              << where << ": mode " << mode << " batch of " << count
              << " probe " << i << " lane " << j;
        }
      }
    }
  }
}

// Asserts every engine kernel agrees with the naive oracle within 1e-12
// over all observed entries, and that DeltaBatch equals its per-entry
// loop on every engine.
void ExpectEnginesAgree(const Ctx& s, const Engines& e) {
  const DeltaEngine* all_engines[] = {&e.naive, &e.mode_major, &e.cached};
  for (const DeltaEngine* engine : all_engines) {
    ExpectBatchMatchesComputeDelta(s.x, *engine, s.factors, engine->name());
  }
  const std::int64_t order = s.x.order();
  for (std::int64_t entry = 0; entry < s.x.nnz(); ++entry) {
    const std::int64_t* idx = s.x.index(entry);
    for (std::int64_t mode = 0; mode < order; ++mode) {
      const std::int64_t rank = s.core.dim(mode);
      std::vector<double> expected(static_cast<std::size_t>(rank));
      std::vector<double> actual(static_cast<std::size_t>(rank));
      e.naive.ComputeDelta(entry, idx, mode, expected.data());
      e.mode_major.ComputeDelta(entry, idx, mode, actual.data());
      for (std::int64_t j = 0; j < rank; ++j) {
        EXPECT_NEAR(actual[static_cast<std::size_t>(j)],
                    expected[static_cast<std::size_t>(j)], 1e-12)
            << "modemajor delta, entry " << entry << " mode " << mode;
      }
      e.cached.ComputeDelta(entry, idx, mode, actual.data());
      for (std::int64_t j = 0; j < rank; ++j) {
        EXPECT_NEAR(actual[static_cast<std::size_t>(j)],
                    expected[static_cast<std::size_t>(j)], 1e-12)
            << "cached delta, entry " << entry << " mode " << mode;
      }
      // The cached engine must also handle unknown coordinates.
      e.cached.ComputeDelta(-1, idx, mode, actual.data());
      for (std::int64_t j = 0; j < rank; ++j) {
        EXPECT_NEAR(actual[static_cast<std::size_t>(j)],
                    expected[static_cast<std::size_t>(j)], 1e-12)
            << "cached fallback delta, entry " << entry << " mode " << mode;
      }
    }

    const double expected_hat = e.naive.Reconstruct(idx);
    EXPECT_NEAR(e.mode_major.Reconstruct(idx), expected_hat, 1e-12);
    EXPECT_NEAR(e.cached.Reconstruct(idx), expected_hat, 1e-12);
  }
}

struct Param {
  std::int64_t order;
  std::int64_t rank;
  int threads;
};

std::vector<Param> AllParams() {
  std::vector<Param> params;
  for (const std::int64_t order : {3, 4}) {
    for (const std::int64_t rank : {2, 5}) {
      for (const int threads : {1, 4, 13}) {
        params.push_back({order, rank, threads});
      }
    }
  }
  return params;
}

class DeltaEngineEquivalence : public ::testing::TestWithParam<Param> {};

TEST_P(DeltaEngineEquivalence, AllKernelsMatchNaive) {
  const Param p = GetParam();
  ThreadCountGuard guard(p.threads);
  Ctx s = MakeCtx(p.order, p.rank, 17 * static_cast<std::uint64_t>(p.order) +
                                       static_cast<std::uint64_t>(p.rank));
  Engines e(s);
  ExpectEnginesAgree(s, e);
}

TEST_P(DeltaEngineEquivalence, ConsistentAfterRemove) {
  const Param p = GetParam();
  ThreadCountGuard guard(p.threads);
  Ctx s = MakeCtx(p.order, p.rank, 31 * static_cast<std::uint64_t>(p.order) +
                                       static_cast<std::uint64_t>(p.rank));
  Engines e(s);

  // Flag ~every 4th entry (always keeping at least one).
  std::vector<char> remove(static_cast<std::size_t>(s.list.size()), 0);
  for (std::int64_t b = 0; b + 1 < s.list.size(); b += 4) {
    remove[static_cast<std::size_t>(b)] = 1;
  }
  s.list.Remove(remove, &s.core);
  for (DeltaEngine* engine : e.All()) engine->OnCoreEntriesRemoved(remove);
  ExpectEnginesAgree(s, e);
}

TEST_P(DeltaEngineEquivalence, ConsistentAfterRefreshValues) {
  const Param p = GetParam();
  ThreadCountGuard guard(p.threads);
  Ctx s = MakeCtx(p.order, p.rank, 47 * static_cast<std::uint64_t>(p.order) +
                                       static_cast<std::uint64_t>(p.rank));
  Engines e(s);

  // Rewrite the core values on the existing pattern.
  std::vector<std::int64_t> index(static_cast<std::size_t>(s.core.order()));
  for (std::int64_t b = 0; b < s.list.size(); ++b) {
    const std::int32_t* beta = s.list.index(b);
    for (std::int64_t k = 0; k < s.core.order(); ++k) {
      index[static_cast<std::size_t>(k)] = beta[k];
    }
    s.core.at(index.data()) = 0.1 + 0.01 * static_cast<double>(b);
  }
  s.list.RefreshValues(s.core);
  for (DeltaEngine* engine : e.All()) engine->OnCoreValuesChanged();
  ExpectEnginesAgree(s, e);
}

TEST_P(DeltaEngineEquivalence, ConsistentAfterFactorUpdate) {
  const Param p = GetParam();
  ThreadCountGuard guard(p.threads);
  Ctx s = MakeCtx(p.order, p.rank, 63 * static_cast<std::uint64_t>(p.order) +
                                       static_cast<std::uint64_t>(p.rank));
  Engines e(s);

  const std::int64_t mode = s.x.order() - 1;
  Matrix old_factor = s.factors[static_cast<std::size_t>(mode)];
  Rng rng(99);
  s.factors[static_cast<std::size_t>(mode)].FillUniform(rng);
  for (DeltaEngine* engine : e.All()) engine->OnFactorUpdated(mode, old_factor);
  ExpectEnginesAgree(s, e);
}

INSTANTIATE_TEST_SUITE_P(
    OrdersRanksThreads, DeltaEngineEquivalence,
    ::testing::ValuesIn(AllParams()),
    [](const ::testing::TestParamInfo<Param>& info) {
      return "order" + std::to_string(info.param.order) + "_rank" +
             std::to_string(info.param.rank) + "_threads" +
             std::to_string(info.param.threads);
    });

TEST(DeltaEngineTest, CatalogCoversEveryChoiceAndParsesNames) {
  // One row per enumerator, names round-trip, unknown names are
  // rejected — the CLI parser and --help both lean on this.
  EXPECT_EQ(DeltaEngineCatalog().size(), 4u);
  for (const DeltaEngineDescriptor& descriptor : DeltaEngineCatalog()) {
    const DeltaEngineDescriptor* found =
        FindDeltaEngineByName(descriptor.name);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->choice, descriptor.choice);
    EXPECT_STREQ(DeltaEngineChoiceName(descriptor.choice), descriptor.name);
  }
  EXPECT_EQ(FindDeltaEngineByName("warp"), nullptr);
}

TEST(DeltaEngineTest, ModeMajorDeltaIsBitIdenticalToNaive) {
  // The mode-major layout preserves the naive scan's per-group operation
  // order exactly, so δ must match bit-for-bit (not just within 1e-12).
  Ctx s = MakeCtx(3, 5, 5);
  Engines e(s);
  for (std::int64_t entry = 0; entry < s.x.nnz(); ++entry) {
    for (std::int64_t mode = 0; mode < 3; ++mode) {
      const std::int64_t rank = s.core.dim(mode);
      std::vector<double> expected(static_cast<std::size_t>(rank));
      std::vector<double> actual(static_cast<std::size_t>(rank));
      e.naive.ComputeDelta(entry, s.x.index(entry), mode, expected.data());
      e.mode_major.ComputeDelta(entry, s.x.index(entry), mode, actual.data());
      for (std::int64_t j = 0; j < rank; ++j) {
        EXPECT_EQ(actual[static_cast<std::size_t>(j)],
                  expected[static_cast<std::size_t>(j)]);
      }
    }
  }
}

// --- Lane views: the mode-major δ / x̂ kernel. ---

std::uint64_t Bits(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// The lane kernel against the naive oracle, bit for bit (signed zeros
// included): δ of every (entry, mode), and x̂ against the naive mode-0 δ
// folded with the entry's mode-0 row in group order, zero coefficients
// skipped — the mode-major x̂ formula evaluated on oracle sums.
void ExpectLanesMatchNaive(const SparseTensor& x, const CoreEntryList& list,
                           const std::vector<Matrix>& factors,
                           const ModeMajorDeltaEngine& engine,
                           const std::string& where) {
  const NaiveDeltaEngine oracle(list, factors);
  const std::int64_t order = x.order();
  for (std::int64_t entry = 0; entry < x.nnz(); ++entry) {
    const std::int64_t* idx = x.index(entry);
    for (std::int64_t mode = 0; mode < order; ++mode) {
      const std::int64_t rank = factors[static_cast<std::size_t>(mode)].cols();
      std::vector<double> expected(static_cast<std::size_t>(rank), 7.0);
      std::vector<double> actual(static_cast<std::size_t>(rank), 7.0);
      oracle.ComputeDelta(entry, idx, mode, expected.data());
      engine.ComputeDelta(entry, idx, mode, actual.data());
      for (std::int64_t j = 0; j < rank; ++j) {
        ASSERT_EQ(Bits(actual[static_cast<std::size_t>(j)]),
                  Bits(expected[static_cast<std::size_t>(j)]))
            << where << ": delta entry " << entry << " mode " << mode
            << " group " << j;
      }
    }
    const std::int64_t rank0 = factors[0].cols();
    std::vector<double> delta0(static_cast<std::size_t>(rank0));
    oracle.ComputeDelta(entry, idx, 0, delta0.data());
    double expected_hat = 0.0;
    for (std::int64_t j = 0; j < rank0; ++j) {
      const double coefficient = factors[0](idx[0], j);
      if (coefficient == 0.0) continue;
      expected_hat += coefficient * delta0[static_cast<std::size_t>(j)];
    }
    ASSERT_EQ(Bits(engine.Reconstruct(idx)), Bits(expected_hat))
        << where << ": x-hat entry " << entry;
  }
}

// An order-`order` problem whose core is dense with shape
// {rank, rank, 2, 2, ...}, signed values in [-0.5, 0.5), and factors with
// signed values and two all-zero rows each, so negative core values meet
// zero coefficients and the products include −0.
Ctx MakeSignedCtx(std::int64_t order, std::int64_t rank, std::uint64_t seed) {
  Rng rng(seed);
  Ctx s;
  std::vector<std::int64_t> dims;
  std::vector<std::int64_t> ranks;
  for (std::int64_t k = 0; k < order; ++k) {
    dims.push_back(10);
    ranks.push_back(k < 2 ? rank : 2);
  }
  s.x = UniformSparseTensor(dims, 60, rng);
  s.core = DenseTensor(ranks);
  for (std::int64_t linear = 0; linear < s.core.size(); ++linear) {
    s.core[linear] = rng.Uniform(-0.5, 0.5);
  }
  s.list = CoreEntryList(s.core);
  for (std::int64_t k = 0; k < order; ++k) {
    Matrix factor(s.x.dim(k), ranks[static_cast<std::size_t>(k)]);
    for (std::int64_t i = 0; i < factor.rows(); ++i) {
      for (std::int64_t j = 0; j < factor.cols(); ++j) {
        factor(i, j) = i < 2 ? 0.0 : rng.Uniform(-0.5, 0.5);
      }
    }
    s.factors.push_back(std::move(factor));
  }
  return s;
}

TEST(DeltaEngineTest, LaneKernelIsBitIdenticalToNaive) {
  for (std::int64_t order = 2; order <= 6; ++order) {
    for (const std::int64_t rank : {std::int64_t{1}, std::int64_t{9}}) {
      const std::string where =
          "order " + std::to_string(order) + " rank " + std::to_string(rank);
      Ctx s = MakeSignedCtx(order, rank, 100 + 10 * order + rank);
      ModeMajorDeltaEngine engine(s.list, s.factors, nullptr);
      ExpectLanesMatchNaive(s.x, s.list, s.factors, engine, where + " dense");

      // New values on the same pattern, including an explicit −0.0 and a
      // sign flip, then three truncation rounds (each ends in
      // OnCoreEntriesRemoved).
      std::vector<std::int64_t> index(static_cast<std::size_t>(order));
      for (std::int64_t b = 0; b < s.list.size(); ++b) {
        for (std::int64_t k = 0; k < order; ++k) {
          index[static_cast<std::size_t>(k)] = s.list.index(b)[k];
        }
        const double value = s.list.value(b);
        s.core.at(index.data()) = b % 7 == 3 ? -0.0 : -1.5 * value;
      }
      s.list.RefreshValues(s.core);
      engine.OnCoreValuesChanged();
      ExpectLanesMatchNaive(s.x, s.list, s.factors, engine,
                            where + " refreshed");
      for (int round = 1; round <= 3; ++round) {
        TruncateNoisyEntries(s.x, &s.core, &s.list, s.factors, 0.3, &engine);
        ExpectLanesMatchNaive(s.x, s.list, s.factors, engine,
                              where + " truncation round " +
                                  std::to_string(round));
      }
    }
  }
}

TEST(DeltaEngineTest, LaneKernelHandlesShuffledListsAndWideModes) {
  // A list in random order (built through the snapshot constructor) has
  // groups whose tuples do not ascend, so the merge emits some tuples
  // more than once — more lane rows, hence more bytes, than the same
  // entries in dense-core order. δ and x̂ stay bit-identical regardless.
  Ctx s = MakeSignedCtx(4, 9, 77);
  std::vector<std::int64_t> perm(static_cast<std::size_t>(s.list.size()));
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(5);
  rng.Shuffle(perm);
  std::vector<std::int32_t> indices;
  std::vector<double> values;
  for (const std::int64_t b : perm) {
    for (std::int64_t k = 0; k < 4; ++k) indices.push_back(s.list.index(b)[k]);
    values.push_back(s.list.value(b));
  }
  CoreEntryList shuffled(
      4, Span<const std::int32_t>(indices.data(), indices.size()),
      Span<const double>(values.data(), values.size()));
  const ModeMajorDeltaEngine sorted_engine(s.list, s.factors, nullptr);
  ModeMajorDeltaEngine engine(shuffled, s.factors, nullptr);
  EXPECT_GT(engine.ByteSize(), sorted_engine.ByteSize());
  ExpectLanesMatchNaive(s.x, shuffled, s.factors, engine, "shuffled");

  std::vector<char> remove(static_cast<std::size_t>(shuffled.size()), 0);
  for (std::size_t b = 0; b < remove.size(); b += 3) remove[b] = 1;
  shuffled.Remove(remove, nullptr);
  engine.OnCoreEntriesRemoved(remove);
  ExpectLanesMatchNaive(s.x, shuffled, s.factors, engine, "shuffled removed");

  // A mode-0 rank above the kernel's lane block takes several passes.
  Ctx wide = MakeSignedCtx(2, 70, 78);
  const ModeMajorDeltaEngine wide_engine(wide.list, wide.factors, nullptr);
  ExpectLanesMatchNaive(wide.x, wide.list, wide.factors, wide_engine, "wide");
}

TEST(DeltaEngineTest, ModeMajorChargesAndReleasesTracker) {
  Ctx s = MakeCtx(3, 5, 7);
  MemoryTracker tracker;
  {
    ModeMajorDeltaEngine engine(s.list, s.factors, &tracker);
    EXPECT_GT(tracker.current_bytes(), 0);
    EXPECT_EQ(tracker.current_bytes(), engine.ByteSize());

    // A value refresh keeps the pattern, so the lane views keep their
    // shape and the charge stays put.
    const std::int64_t built = tracker.current_bytes();
    s.list.RefreshValues(s.core);
    engine.OnCoreValuesChanged();
    EXPECT_EQ(tracker.current_bytes(), built);
    EXPECT_EQ(tracker.current_bytes(), engine.ByteSize());

    // Removing every entry that shares entry 0's (β0, β1) deletes that
    // mode-2 lane row, so the views and the charge shrink.
    const std::int64_t before = tracker.current_bytes();
    std::vector<char> remove(static_cast<std::size_t>(s.list.size()), 0);
    for (std::int64_t b = 0; b < s.list.size(); ++b) {
      remove[static_cast<std::size_t>(b)] =
          s.list.index(b)[0] == s.list.index(0)[0] &&
          s.list.index(b)[1] == s.list.index(0)[1];
    }
    s.list.Remove(remove, &s.core);
    engine.OnCoreEntriesRemoved(remove);
    EXPECT_LT(tracker.current_bytes(), before);
    EXPECT_EQ(tracker.current_bytes(), engine.ByteSize());

    // The list is still in dense-core order, so each lane view holds
    // every distinct non-mode tuple exactly once: U_n rows of (N−1) int32
    // columns and Jn doubles.
    const std::int64_t n_core = s.list.size();
    std::int64_t expected = 0;
    for (std::int64_t n = 0; n < 3; ++n) {
      std::set<std::vector<std::int32_t>> tuples;
      for (std::int64_t b = 0; b < n_core; ++b) {
        std::vector<std::int32_t> tuple;
        for (std::int64_t k = 0; k < 3; ++k) {
          if (k != n) tuple.push_back(s.list.index(b)[k]);
        }
        tuples.insert(tuple);
      }
      const std::int64_t rows = static_cast<std::int64_t>(tuples.size());
      expected += 4 * rows * 2 + 8 * rows * 5;
    }
    EXPECT_EQ(engine.ByteSize(), expected);
  }
  EXPECT_EQ(tracker.current_bytes(), 0);

  // On a dense core the byte count has a closed form. Lane views, per
  // mode: U = |G|/Jn rows of (N−1) int32 columns and Jn doubles.
  Rng rng(3);
  DenseTensor core({3, 4, 5});
  core.FillUniform(rng);
  core[0] = 0.25;  // FillUniform may draw an exact 0; keep the core dense
  const CoreEntryList list(core);
  ASSERT_EQ(list.size(), 60);
  std::vector<Matrix> factors;
  for (const std::int64_t rank : {3, 4, 5}) factors.emplace_back(6, rank);
  std::int64_t expected = 0;
  for (const std::int64_t rank : {3, 4, 5}) {
    expected += 4 * (60 / rank) * 2 + 8 * (60 / rank) * rank;
  }
  EXPECT_EQ(expected, 1816);
  MemoryTracker dense_tracker;
  const ModeMajorDeltaEngine dense(list, factors, &dense_tracker);
  EXPECT_EQ(dense.ByteSize(), expected);
  EXPECT_EQ(dense_tracker.current_bytes(), expected);
}

TEST(DeltaEngineTest, OrdersAboveTheLimitThrow) {
  // Past DeltaEngine::kMaxOrder the stack-sized kernels cannot run: the
  // engines refuse with an exception naming the order, not an abort.
  const std::int64_t order = DeltaEngine::kMaxOrder + 1;
  SparseTensor x(std::vector<std::int64_t>(static_cast<std::size_t>(order), 2));
  x.AddEntry(std::vector<std::int64_t>(static_cast<std::size_t>(order), 1),
             1.0);
  x.BuildModeIndex();
  DenseTensor core(std::vector<std::int64_t>(static_cast<std::size_t>(order), 1));
  core[0] = 1.0;
  const CoreEntryList list(core);
  const std::vector<Matrix> factors(static_cast<std::size_t>(order),
                                    Matrix(2, 1));
  for (const DeltaEngineChoice choice :
       {DeltaEngineChoice::kModeMajor, DeltaEngineChoice::kContraction}) {
    try {
      MakeDeltaEngine(choice, x, list, factors, nullptr);
      ADD_FAILURE() << "engine " << static_cast<int>(choice) << " built";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(std::to_string(order)),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(DeltaEngineTest, ModeMajorBudgetTriggersOom) {
  Ctx s = MakeCtx(3, 5, 9);
  MemoryTracker tracker(16);  // tiny budget
  EXPECT_THROW(ModeMajorDeltaEngine(s.list, s.factors, &tracker),
               OutOfMemoryBudget);
  EXPECT_EQ(tracker.current_bytes(), 0);

  // One byte short of the engine's full footprint fails too, with
  // nothing left charged; a budget of exactly that size fits.
  const std::int64_t full =
      ModeMajorDeltaEngine(s.list, s.factors, nullptr).ByteSize();
  MemoryTracker short_by_one(full - 1);
  EXPECT_THROW(ModeMajorDeltaEngine(s.list, s.factors, &short_by_one),
               OutOfMemoryBudget);
  EXPECT_EQ(short_by_one.current_bytes(), 0);

  MemoryTracker exact(full);
  const ModeMajorDeltaEngine fits(s.list, s.factors, &exact);
  EXPECT_EQ(exact.current_bytes(), full);
  EXPECT_EQ(fits.ByteSize(), full);
}

TEST(DeltaEngineTest, FactoryBuildsTheChosenEngine) {
  PTuckerOptions options;
  EXPECT_EQ(ResolveDeltaEngineChoice(options), DeltaEngineChoice::kContraction);
  options.delta_engine = DeltaEngineChoice::kNaive;
  EXPECT_EQ(ResolveDeltaEngineChoice(options), DeltaEngineChoice::kNaive);

  Ctx s = MakeCtx(3, 2, 11);
  const auto engine = MakeDeltaEngine(DeltaEngineChoice::kModeMajor, s.x,
                                      s.list, s.factors, nullptr);
  EXPECT_STREQ(engine->name(), "modemajor");
  EXPECT_EQ(engine->PreferredBatch(), DeltaEngine::kDeltaChunk);
  // The width parameter is accepted and ignored.
  const auto wide =
      MakeDeltaEngine(DeltaEngineChoice::kModeMajor, s.x, s.list, s.factors,
                      nullptr, /*adaptive_epsilon=*/0.0, /*tile_width=*/32);
  EXPECT_EQ(wide->PreferredBatch(), DeltaEngine::kDeltaChunk);
}

TEST(DeltaEngineTest, NonzeroAdaptiveEpsilonIsRejected) {
  // The lossy adaptive engine is gone; the option survives only so the
  // repository benchmark compiles, and a nonzero budget must fail loudly
  // instead of silently running an exact engine.
  Ctx s = MakeCtx(3, 2, 11);
  EXPECT_THROW(MakeDeltaEngine(DeltaEngineChoice::kModeMajor, s.x, s.list,
                               s.factors, nullptr, /*adaptive_epsilon=*/0.2),
               std::invalid_argument);
  PTuckerOptions options;
  options.core_dims = {2, 2, 2};
  options.max_iterations = 1;
  options.adaptive_epsilon = 0.2;
  EXPECT_THROW(PTuckerDecompose(s.x, options), std::invalid_argument);
}

TEST(DeltaEngineTest, TruncationKeepsEnginesConsistent) {
  // TruncateNoisyEntries must both score through the engine and notify it
  // of the removal, so the compacted views still match the oracle.
  Ctx s = MakeCtx(3, 5, 13);
  ModeMajorDeltaEngine engine(s.list, s.factors, nullptr);
  const std::int64_t removed =
      TruncateNoisyEntries(s.x, &s.core, &s.list, s.factors, 0.3, &engine);
  EXPECT_GT(removed, 0);
  NaiveDeltaEngine oracle(s.list, s.factors);
  for (std::int64_t entry = 0; entry < s.x.nnz(); ++entry) {
    for (std::int64_t mode = 0; mode < 3; ++mode) {
      const std::int64_t rank = s.core.dim(mode);
      std::vector<double> expected(static_cast<std::size_t>(rank));
      std::vector<double> actual(static_cast<std::size_t>(rank));
      oracle.ComputeDelta(entry, s.x.index(entry), mode, expected.data());
      engine.ComputeDelta(entry, s.x.index(entry), mode, actual.data());
      for (std::int64_t j = 0; j < rank; ++j) {
        EXPECT_NEAR(actual[static_cast<std::size_t>(j)],
                    expected[static_cast<std::size_t>(j)], 1e-12);
      }
    }
  }
}

TEST(DeltaEngineTest, BatchedMetricsMatchPerEntryBitForBit) {
  // The metric paths sum per-entry residuals in entry order within fixed
  // reduction lanes, so whole metrics must be EXPECT_EQ across thread
  // counts, and bulk prediction must equal per-entry Reconstruct.
  Ctx s = MakeCtx(3, 5, 37);
  ModeMajorDeltaEngine mode_major(s.list, s.factors, nullptr);
  double expected_error = 0.0;
  double expected_rmse = 0.0;
  {
    ThreadCountGuard guard(1);
    expected_error = ReconstructionError(s.x, mode_major);
    expected_rmse = TestRmse(s.x, mode_major);
  }
  for (const int threads : {1, 4, 13}) {
    ThreadCountGuard guard(threads);
    EXPECT_EQ(ReconstructionError(s.x, mode_major), expected_error)
        << "threads " << threads;
    EXPECT_EQ(TestRmse(s.x, mode_major), expected_rmse)
        << "threads " << threads;
    const std::vector<double> pred = PredictEntries(s.x, mode_major);
    ASSERT_EQ(pred.size(), static_cast<std::size_t>(s.x.nnz()));
    for (std::size_t i = 0; i < pred.size(); ++i) {
      EXPECT_EQ(pred[i],
                mode_major.Reconstruct(s.x.index(static_cast<std::int64_t>(i))))
          << "threads " << threads << " entry " << i;
    }
  }
}

TEST(DeltaEngineTest, ResidualSumsMatchPerEntryReconstruct) {
  // SquaredResidualLaneSums reconstructs through ReconstructBatch; every
  // engine's lane partials must equal the per-entry Reconstruct sums.
  Ctx s = MakeCtx(4, 3, 43);
  for (const DeltaEngineChoice choice :
       {DeltaEngineChoice::kNaive, DeltaEngineChoice::kModeMajor,
        DeltaEngineChoice::kCached, DeltaEngineChoice::kContraction}) {
    const std::unique_ptr<DeltaEngine> engine =
        MakeDeltaEngine(choice, s.x, s.list, s.factors, nullptr);
    double lane_sums[kReductionLanes];
    SquaredResidualLaneSums(s.x, *engine, 0, kReductionLanes, lane_sums);
    for (std::int64_t lane = 0; lane < kReductionLanes; ++lane) {
      double expected = 0.0;
      for (std::int64_t e = ReductionLaneBegin(s.x.nnz(), lane);
           e < ReductionLaneBegin(s.x.nnz(), lane + 1); ++e) {
        const double residual =
            s.x.value(e) - engine->Reconstruct(s.x.index(e));
        expected += residual * residual;
      }
      EXPECT_EQ(std::memcmp(&expected, &lane_sums[lane], sizeof(double)), 0)
          << engine->name() << ", lane " << lane;
    }
  }
}

TEST(DeltaEngineTest, BatchedPartialErrorsMatchPerEntryBitForBit) {
  // The truncation scores (and therefore the removal set) must be
  // EXPECT_EQ across thread counts, and the scoring scratch must be
  // charged to the tracker only for the duration of the scan.
  Ctx s = MakeCtx(4, 5, 41);
  std::vector<double> expected;
  {
    ThreadCountGuard guard(1);
    expected = ComputePartialErrors(s.x, s.list, s.factors);
  }
  for (const int threads : {1, 4, 13}) {
    ThreadCountGuard guard(threads);
    MemoryTracker tracker;
    const std::vector<double> scores =
        ComputePartialErrors(s.x, s.list, s.factors, &tracker);
    ASSERT_EQ(scores.size(), expected.size());
    for (std::size_t b = 0; b < scores.size(); ++b) {
      EXPECT_EQ(scores[b], expected[b])
          << "threads " << threads << " core " << b;
    }
    EXPECT_GT(tracker.peak_bytes(), 0) << "threads " << threads;
    EXPECT_EQ(tracker.current_bytes(), 0) << "threads " << threads;
  }
}

// --- The contraction engine: reassociated, within a stated bound. ---

// An order-dims.size() problem with per-mode ranks, a dense signed core
// and signed factors sprinkled with exact zeros.
Ctx MakeShapedCtx(const std::vector<std::int64_t>& dims,
                  const std::vector<std::int64_t>& ranks, std::int64_t nnz,
                  std::uint64_t seed) {
  Rng rng(seed);
  Ctx s;
  s.x = UniformSparseTensor(dims, nnz, rng);
  s.core = DenseTensor(ranks);
  for (std::int64_t linear = 0; linear < s.core.size(); ++linear) {
    s.core[linear] = rng.Uniform(-0.5, 0.5);
  }
  s.list = CoreEntryList(s.core);
  for (std::size_t k = 0; k < dims.size(); ++k) {
    Matrix factor(dims[k], ranks[k]);
    for (std::int64_t i = 0; i < factor.rows(); ++i) {
      for (std::int64_t j = 0; j < factor.cols(); ++j) {
        factor(i, j) = rng.Uniform() < 0.1 ? 0.0 : rng.Uniform(-1.0, 1.0);
      }
    }
    s.factors.push_back(std::move(factor));
  }
  return s;
}

// Asserts every δ lane and x̂ of `engine` is within the contraction
// engine's stated bound of the naive oracle, at every observed entry
// (with its id and as entry −1) and at shifted coordinates outside the
// tensor (entry −1).
//
// The bound is 2(N + |G|)·u·Σ|terms|, u = 2⁻⁵³, where Σ|terms| is the
// same sum over |G_β| and |A(k)(i_k, β_k)|. Both engines form every term
// G_β·Π_{k≠n} A(k) with N−1 rounded multiplies: the contraction engine
// spends |S_n| on the memo array, |R_n| − 1 on the running tree product
// (1.0 times the first factor is exact) and one on scaling the leaf. Each
// lane sums at most |G| terms, so any term passes through at most |G| − 1
// rounded additions (leaf-array sums, then leaf accumulation). Each
// result is thus within γ_{N+|G|−2}·Σ|terms| ≤ (N + |G|)·u·Σ|terms| of
// the exact value, and the two within twice that of each other. x̂ adds
// one multiply per term and folds at most Jn partial sums, which the
// same N + |G| still covers.
void ExpectContractionWithinBound(const SparseTensor& x,
                                  const CoreEntryList& list,
                                  const std::vector<Matrix>& factors,
                                  const ContractionDeltaEngine& engine,
                                  const std::string& where) {
  const std::int64_t order = x.order();
  const double c = 2.0 * static_cast<double>(order + list.size()) *
                   std::ldexp(1.0, -53);
  const NaiveDeltaEngine oracle(list, factors);
  std::vector<std::int32_t> abs_indices;
  std::vector<double> abs_values;
  for (std::int64_t b = 0; b < list.size(); ++b) {
    for (std::int64_t k = 0; k < order; ++k) {
      abs_indices.push_back(list.index(b)[k]);
    }
    abs_values.push_back(std::fabs(list.value(b)));
  }
  const CoreEntryList abs_list(
      order, Span<const std::int32_t>(abs_indices.data(), abs_indices.size()),
      Span<const double>(abs_values.data(), abs_values.size()));
  std::vector<Matrix> abs_factors = factors;
  for (Matrix& factor : abs_factors) {
    for (std::int64_t i = 0; i < factor.size(); ++i) {
      factor.data()[i] = std::fabs(factor.data()[i]);
    }
  }
  const NaiveDeltaEngine magnitude(abs_list, abs_factors);

  std::vector<std::int64_t> shifted(static_cast<std::size_t>(order));
  for (std::int64_t e = 0; e < x.nnz(); ++e) {
    for (std::int64_t k = 0; k < order; ++k) {
      shifted[static_cast<std::size_t>(k)] =
          (x.index(e)[k] + 1) % x.dim(k);
    }
    const struct {
      const std::int64_t* idx;
      std::int64_t entry;
    } probes[] = {{x.index(e), e}, {x.index(e), -1}, {shifted.data(), -1}};
    for (const auto& probe : probes) {
      for (std::int64_t mode = 0; mode < order; ++mode) {
        const std::int64_t rank =
            factors[static_cast<std::size_t>(mode)].cols();
        std::vector<double> expected(static_cast<std::size_t>(rank));
        std::vector<double> actual(static_cast<std::size_t>(rank), 7.0);
        std::vector<double> terms(static_cast<std::size_t>(rank));
        oracle.ComputeDelta(probe.entry, probe.idx, mode, expected.data());
        engine.ComputeDelta(probe.entry, probe.idx, mode, actual.data());
        magnitude.ComputeDelta(probe.entry, probe.idx, mode, terms.data());
        for (std::size_t j = 0; j < expected.size(); ++j) {
          ASSERT_LE(std::fabs(actual[j] - expected[j]), c * terms[j])
              << where << ": delta entry " << e << " (as " << probe.entry
              << ") mode " << mode << " lane " << j;
        }
      }
      ASSERT_LE(std::fabs(engine.Reconstruct(probe.idx) -
                          oracle.Reconstruct(probe.idx)),
                c * magnitude.Reconstruct(probe.idx))
          << where << ": x-hat entry " << e << " (as " << probe.entry << ")";
    }
  }
}

// Every δ of every (entry, mode), for bitwise comparisons.
std::vector<double> AllDeltas(const SparseTensor& x, const DeltaEngine& engine,
                              const std::vector<Matrix>& factors) {
  std::vector<double> out;
  for (std::int64_t e = 0; e < x.nnz(); ++e) {
    for (std::int64_t mode = 0; mode < x.order(); ++mode) {
      std::vector<double> delta(static_cast<std::size_t>(
          factors[static_cast<std::size_t>(mode)].cols()));
      engine.ComputeDelta(e, x.index(e), mode, delta.data());
      out.insert(out.end(), delta.begin(), delta.end());
    }
  }
  return out;
}

// S_n must be the |S_n| shortest other modes, ties broken by mode index.
void ExpectMemoIsShortestModes(const SparseTensor& x,
                               const ContractionDeltaEngine& engine,
                               const std::string& where) {
  for (std::int64_t n = 0; n < x.order(); ++n) {
    std::vector<std::int64_t> others;
    for (std::int64_t k = 0; k < x.order(); ++k) {
      if (k != n) others.push_back(k);
    }
    std::stable_sort(others.begin(), others.end(),
                     [&](std::int64_t a, std::int64_t b) {
                       return x.dim(a) < x.dim(b);
                     });
    const std::vector<std::int64_t>& memo = engine.memo_modes(n);
    std::vector<std::int64_t> shortest(
        others.begin(),
        others.begin() + static_cast<std::ptrdiff_t>(memo.size()));
    std::sort(shortest.begin(), shortest.end());
    EXPECT_EQ(memo, shortest) << where << ": mode " << n;
  }
}

struct Shape {
  std::vector<std::int64_t> dims;
  std::vector<std::int64_t> ranks;
  std::int64_t nnz;
  bool memoizes;  // some mode gets S_n ≠ ∅
};

// Orders 3-5, unequal ranks, short modes mixed with long ones, and one
// tensor so sparse that the memo cap leaves every S_n empty.
std::vector<Shape> ContractionShapes() {
  return {
      {{40, 3, 30}, {3, 2, 4}, 300, true},
      {{50, 4, 30, 5}, {3, 2, 4, 2}, 600, true},
      {{20, 3, 18, 4, 2}, {2, 3, 2, 2, 2}, 500, true},
      {{40, 30, 20}, {4, 3, 2}, 3, false},
  };
}

TEST(ContractionEngineTest, WithinBoundOnDenseAndTruncatedCores) {
  std::uint64_t seed = 200;
  for (const Shape& shape : ContractionShapes()) {
    Ctx s = MakeShapedCtx(shape.dims, shape.ranks, shape.nnz, ++seed);
    ContractionDeltaEngine engine(s.x, s.list, s.factors, nullptr);
    const std::string where =
        "order " + std::to_string(shape.dims.size()) + " nnz " +
        std::to_string(shape.nnz);
    ExpectMemoIsShortestModes(s.x, engine, where);
    bool any_memo = false;
    for (std::int64_t n = 0; n < s.x.order(); ++n) {
      any_memo = any_memo || !engine.memo_modes(n).empty();
    }
    EXPECT_EQ(any_memo, shape.memoizes) << where;
    ExpectContractionWithinBound(s.x, s.list, s.factors, engine,
                                 where + " dense");
    for (int round = 1; round <= 2; ++round) {
      TruncateNoisyEntries(s.x, &s.core, &s.list, s.factors, 0.3, &engine);
      ExpectContractionWithinBound(
          s.x, s.list, s.factors, engine,
          where + " truncation round " + std::to_string(round));
    }
  }
}

TEST(ContractionEngineTest, EveryHookRebuildsToTheFreshEngine) {
  // After each hook the bound holds again, and the engine is bit for bit
  // a freshly built one: its state is a function of (dims, |Ω|, core,
  // factors) alone.
  Ctx s = MakeShapedCtx({50, 4, 30, 5}, {3, 2, 4, 2}, 600, 301);
  ContractionDeltaEngine engine(s.x, s.list, s.factors, nullptr);
  const auto expect_fresh = [&](const std::string& where) {
    ExpectContractionWithinBound(s.x, s.list, s.factors, engine, where);
    const ContractionDeltaEngine fresh(s.x, s.list, s.factors, nullptr);
    EXPECT_EQ(AllDeltas(s.x, engine, s.factors),
              AllDeltas(s.x, fresh, s.factors))
        << where;
    EXPECT_EQ(ReconstructionError(s.x, engine),
              ReconstructionError(s.x, fresh))
        << where;
  };

  // A short mode that some other mode memoizes, then every mode in turn.
  ASSERT_FALSE(engine.memo_modes(0).empty());
  Rng rng(302);
  for (const std::int64_t mode : {engine.memo_modes(0).front(),
                                  std::int64_t{0}, std::int64_t{1},
                                  std::int64_t{2}, std::int64_t{3}}) {
    Matrix& factor = s.factors[static_cast<std::size_t>(mode)];
    const Matrix old_factor = factor;
    for (std::int64_t i = 0; i < factor.size(); ++i) {
      factor.data()[i] = rng.Uniform(-1.0, 1.0);
    }
    engine.OnFactorUpdated(mode, old_factor);
    expect_fresh("factor " + std::to_string(mode));
  }

  std::vector<std::int64_t> index(static_cast<std::size_t>(s.core.order()));
  for (std::int64_t b = 0; b < s.list.size(); ++b) {
    for (std::int64_t k = 0; k < s.core.order(); ++k) {
      index[static_cast<std::size_t>(k)] = s.list.index(b)[k];
    }
    s.core.at(index.data()) = b % 5 == 2 ? -0.0 : 0.3 - 0.01 * b;
  }
  s.list.RefreshValues(s.core);
  engine.OnCoreValuesChanged();
  expect_fresh("core values");

  std::vector<char> remove(static_cast<std::size_t>(s.list.size()), 0);
  for (std::size_t b = 0; b < remove.size(); b += 3) remove[b] = 1;
  s.list.Remove(remove, &s.core);
  engine.OnCoreEntriesRemoved(remove);
  expect_fresh("core removal");
}

TEST(ContractionEngineTest, DeltaBatchMatchesComputeDelta) {
  // The default engine overrides DeltaBatch with the set-up hoisted out
  // of the entry loop. Ranks 1-9 run every unrolled lane width and the
  // generic one; each state after a hook is checked again.
  for (std::int64_t rank = 1; rank <= 9; ++rank) {
    const std::string where = "rank " + std::to_string(rank);
    Ctx s = MakeShapedCtx({50, 4, 30, 5}, {rank, rank, rank, rank}, 600,
                          700 + static_cast<std::uint64_t>(rank));
    ContractionDeltaEngine engine(s.x, s.list, s.factors, nullptr);
    ExpectBatchMatchesComputeDelta(s.x, engine, s.factors, where);

    Rng rng(800 + static_cast<std::uint64_t>(rank));
    Matrix& factor = s.factors[1];  // a short mode other modes memoize
    const Matrix old_factor = factor;
    for (std::int64_t i = 0; i < factor.size(); ++i) {
      factor.data()[i] = rng.Uniform(-1.0, 1.0);
    }
    engine.OnFactorUpdated(1, old_factor);
    ExpectBatchMatchesComputeDelta(s.x, engine, s.factors,
                                   where + " after a factor update");

    for (std::int64_t linear = 0; linear < s.core.size(); ++linear) {
      s.core[linear] = rng.Uniform(-0.5, 0.5);
    }
    s.list.RefreshValues(s.core);
    engine.OnCoreValuesChanged();
    ExpectBatchMatchesComputeDelta(s.x, engine, s.factors,
                                   where + " after new core values");

    if (s.list.size() > 1) {
      std::vector<char> remove(static_cast<std::size_t>(s.list.size()), 0);
      for (std::size_t b = 0; b < remove.size(); b += 3) remove[b] = 1;
      s.list.Remove(remove, &s.core);
      engine.OnCoreEntriesRemoved(remove);
      ExpectBatchMatchesComputeDelta(s.x, engine, s.factors,
                                     where + " after a core removal");
    }
  }
}

TEST(ContractionEngineTest, DeltaBatchMatchesComputeDeltaWithoutTreeLevels) {
  // Two short modes and a dense tensor: mode 0 memoizes both other
  // modes, so its δ is a copy of one leaf array and its plan has no tree.
  Ctx s = MakeShapedCtx({300, 3, 2}, {3, 2, 2}, 1200, 901);
  const ContractionDeltaEngine engine(s.x, s.list, s.factors, nullptr);
  ASSERT_EQ(engine.memo_modes(0), (std::vector<std::int64_t>{1, 2}));
  ExpectBatchMatchesComputeDelta(s.x, engine, s.factors, "no tree levels");
}

TEST(ContractionEngineTest, BitIdenticalAcrossThreadCounts) {
  // The plan, the memo arrays and the per-entry δ and x̂ kernels never
  // depend on the thread count: engines built and used at any thread
  // count agree bit for bit, and so do the parallel error scans.
  Ctx s = MakeShapedCtx({60, 4, 40, 6}, {3, 2, 4, 3}, 800, 401);
  std::vector<double> expected_deltas;
  double expected_error = 0.0;
  std::vector<std::vector<std::int64_t>> expected_plan;
  for (const int threads : {1, 4, 13}) {
    ThreadCountGuard guard(threads);
    const ContractionDeltaEngine engine(s.x, s.list, s.factors, nullptr);
    std::vector<std::vector<std::int64_t>> plan;
    for (std::int64_t n = 0; n < s.x.order(); ++n) {
      plan.push_back(engine.memo_modes(n));
    }
    const std::vector<double> deltas = AllDeltas(s.x, engine, s.factors);
    const double error = ReconstructionError(s.x, engine);
    if (threads == 1) {
      expected_deltas = deltas;
      expected_error = error;
      expected_plan = plan;
      continue;
    }
    EXPECT_EQ(plan, expected_plan) << "threads " << threads;
    EXPECT_EQ(deltas, expected_deltas) << "threads " << threads;
    EXPECT_EQ(error, expected_error) << "threads " << threads;
  }
}

// ReconstructBatch must equal per-entry Reconstruct bit for bit for
// batches of 0, 1, 63, 64, 65 and 257 probes: the observed entries, then
// each shifted one step along every mode, repeated until there are 257.
void ExpectReconstructBatchMatches(const SparseTensor& x,
                                   const DeltaEngine& engine,
                                   const std::string& where) {
  const std::int64_t order = x.order();
  std::vector<std::int64_t> shifted(static_cast<std::size_t>(x.nnz() * order));
  std::vector<const std::int64_t*> probes;
  for (std::int64_t e = 0; e < x.nnz(); ++e) {
    probes.push_back(x.index(e));
    std::int64_t* index = shifted.data() + e * order;
    for (std::int64_t k = 0; k < order; ++k) {
      index[k] = (x.index(e)[k] + 1) % x.dim(k);
    }
    probes.push_back(index);
  }
  ASSERT_FALSE(probes.empty()) << where;
  for (std::size_t p = 0; probes.size() < 257; ++p) {
    probes.push_back(probes[p]);
  }
  for (const std::int64_t count :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{63}, std::int64_t{64},
        std::int64_t{65}, std::int64_t{257}}) {
    std::vector<double> batched(static_cast<std::size_t>(count) + 1, 7.0);
    engine.ReconstructBatch(count, probes.data(), batched.data());
    for (std::int64_t i = 0; i < count; ++i) {
      const std::size_t p = static_cast<std::size_t>(i);
      ASSERT_EQ(Bits(batched[p]), Bits(engine.Reconstruct(probes[p])))
          << where << ": batch of " << count << " probe " << i;
    }
    EXPECT_EQ(batched.back(), 7.0) << where << ": batch of " << count
                                   << " wrote past its end";
  }
}

TEST(ContractionEngineTest, ReconstructBatchMatchesReconstruct) {
  // Orders 3-5 with and without memoized modes, plus a rank-10 shape for
  // the generic tree walk; each again after a factor update and a core
  // removal.
  std::vector<Shape> shapes = ContractionShapes();
  shapes.push_back({{30, 4, 20, 5}, {10, 10, 10, 10}, 400, true});
  std::uint64_t seed = 1300;
  bool memoized_reconstruct = false;
  bool generic_rank = false;
  for (const Shape& shape : shapes) {
    Ctx s = MakeShapedCtx(shape.dims, shape.ranks, shape.nnz, ++seed);
    ContractionDeltaEngine engine(s.x, s.list, s.factors, nullptr);
    const std::int64_t mode = engine.reconstruct_mode();
    memoized_reconstruct =
        memoized_reconstruct || !engine.memo_modes(mode).empty();
    generic_rank =
        generic_rank || s.factors[static_cast<std::size_t>(mode)].cols() > 8;
    const std::string where = "order " + std::to_string(shape.dims.size()) +
                              " nnz " + std::to_string(shape.nnz);
    ExpectReconstructBatchMatches(s.x, engine, where);

    Rng rng(seed + 50);
    const std::int64_t updated = engine.memo_modes(mode).empty()
                                     ? mode
                                     : engine.memo_modes(mode).front();
    Matrix& factor = s.factors[static_cast<std::size_t>(updated)];
    const Matrix old_factor = factor;
    for (std::int64_t i = 0; i < factor.size(); ++i) {
      factor.data()[i] = rng.Uniform(-1.0, 1.0);
    }
    engine.OnFactorUpdated(updated, old_factor);
    ExpectReconstructBatchMatches(s.x, engine, where + " after a factor update");

    if (s.list.size() > 1) {
      std::vector<char> remove(static_cast<std::size_t>(s.list.size()), 0);
      for (std::size_t b = 0; b < remove.size(); b += 3) remove[b] = 1;
      s.list.Remove(remove, &s.core);
      engine.OnCoreEntriesRemoved(remove);
      ExpectReconstructBatchMatches(s.x, engine, where + " after a removal");
    }
  }
  EXPECT_TRUE(memoized_reconstruct);
  EXPECT_TRUE(generic_rank);
}

// Cuts the probes (every observed entry, then each shifted one step along
// every mode) into consecutive chunks of each count and asserts, bit for
// bit, that DeltaBatch over a chunk equals ComputeDelta per entry on every
// mode, that ReconstructBatch over a chunk equals Reconstruct per entry,
// and that neither writes past its chunk. Chunks of W − 1, W and W + 1
// put every probe in every position of the multi-entry walk.
void ExpectChunksMatchOneEntryWalk(const SparseTensor& x,
                                   const ContractionDeltaEngine& engine,
                                   const std::vector<Matrix>& factors,
                                   const std::string& where) {
  const std::int64_t order = x.order();
  std::vector<std::int64_t> shifted(static_cast<std::size_t>(x.nnz() * order));
  std::vector<std::int64_t> entries;
  std::vector<const std::int64_t*> probes;
  for (std::int64_t e = 0; e < x.nnz(); ++e) {
    entries.push_back(e);
    probes.push_back(x.index(e));
    std::int64_t* index = shifted.data() + e * order;
    for (std::int64_t k = 0; k < order; ++k) {
      index[k] = (x.index(e)[k] + 1) % x.dim(k);
    }
  }
  for (std::int64_t e = 0; e < x.nnz(); ++e) {
    entries.push_back(-1);
    probes.push_back(shifted.data() + e * order);
  }
  const std::int64_t n_probes = static_cast<std::int64_t>(probes.size());
  ASSERT_GT(n_probes, 65) << where;
  constexpr std::int64_t kCounts[] = {0, 1, 2, 3, 4, 5, 63, 64, 65};
  std::vector<double> single;
  for (std::int64_t mode = 0; mode < order; ++mode) {
    const std::int64_t rank = factors[static_cast<std::size_t>(mode)].cols();
    single.assign(static_cast<std::size_t>(n_probes * rank), 0.0);
    for (std::int64_t p = 0; p < n_probes; ++p) {
      const std::size_t i = static_cast<std::size_t>(p);
      engine.ComputeDelta(entries[i], probes[i], mode,
                          single.data() + p * rank);
    }
    for (const std::int64_t count : kCounts) {
      std::vector<double> batched(static_cast<std::size_t>((count + 1) * rank));
      // Count 0 is one empty call; every other count covers all probes.
      for (std::int64_t first = 0; count == 0 ? first == 0 : first < n_probes;
           first += std::max<std::int64_t>(count, 1)) {
        const std::int64_t chunk = std::min(count, n_probes - first);
        std::fill(batched.begin(), batched.end(), 7.0);
        engine.DeltaBatch(chunk, entries.data() + first, probes.data() + first,
                          mode, batched.data());
        for (std::int64_t v = 0; v < chunk * rank; ++v) {
          ASSERT_EQ(Bits(batched[static_cast<std::size_t>(v)]),
                    Bits(single[static_cast<std::size_t>(first * rank + v)]))
              << where << ": mode " << mode << " chunks of " << count
              << " probe " << first + v / rank << " lane " << v % rank;
        }
        for (std::int64_t v = chunk * rank; v < (count + 1) * rank; ++v) {
          ASSERT_EQ(batched[static_cast<std::size_t>(v)], 7.0)
              << where << ": mode " << mode << " chunk of " << chunk
              << " wrote past its end";
        }
      }
    }
  }

  std::vector<double> reconstructed(static_cast<std::size_t>(n_probes));
  for (std::int64_t p = 0; p < n_probes; ++p) {
    reconstructed[static_cast<std::size_t>(p)] =
        engine.Reconstruct(probes[static_cast<std::size_t>(p)]);
  }
  for (const std::int64_t count : kCounts) {
    std::vector<double> batched(static_cast<std::size_t>(count + 1));
    for (std::int64_t first = 0; count == 0 ? first == 0 : first < n_probes;
         first += std::max<std::int64_t>(count, 1)) {
      const std::int64_t chunk = std::min(count, n_probes - first);
      std::fill(batched.begin(), batched.end(), 7.0);
      engine.ReconstructBatch(chunk, probes.data() + first, batched.data());
      for (std::int64_t i = 0; i < chunk; ++i) {
        ASSERT_EQ(Bits(batched[static_cast<std::size_t>(i)]),
                  Bits(reconstructed[static_cast<std::size_t>(first + i)]))
            << where << ": x-hat, chunks of " << count << " probe "
            << first + i;
      }
      EXPECT_EQ(batched[static_cast<std::size_t>(chunk)], 7.0)
          << where << ": x-hat chunk of " << chunk << " wrote past its end";
    }
  }
}

TEST(ContractionEngineTest, FixedDepthWalkMatchesOneEntryWalk) {
  // DeltaBatch walks trees of depth 2-4 at the unrolled ranks W entries
  // abreast (W = 4 at Jn ≤ 4, W = 2 at Jn ≤ 8), the rest of a chunk one
  // entry at a time; depth 1 walks one entry at a time by the same nest,
  // and depth 5+ and the generic rank recursively. ComputeDelta and
  // Reconstruct take the one-entry path, so chunks of every size must
  // reproduce them bit for bit. Orders 3-7 give
  // tree depths 1-6; mode 0 carries the rank under test (1-9) and the
  // others rank 2, so every rank meets every width. Dense and truncated
  // cores, each state after a hook checked again.
  // Short modes of 3 and 4 rows get memoized; with only long modes no
  // mode is, and every tree is order − 1 deep.
  const std::vector<std::vector<std::int64_t>> shapes = {
      {30, 3, 25},         {30, 25, 20},
      {30, 3, 25, 4},      {30, 25, 20, 22},
      {30, 3, 25, 4, 20},  {30, 25, 20, 22, 28},
      {30, 25, 20, 22, 28, 24},
      {30, 3, 25, 20, 22, 28, 24},
  };
  std::set<std::int64_t> depths;
  std::set<std::pair<std::int64_t, std::int64_t>> walked;  // (depth, Jn)
  std::uint64_t seed = 2000;
  for (const std::vector<std::int64_t>& dims : shapes) {
    const std::int64_t order = static_cast<std::int64_t>(dims.size());
    for (std::int64_t rank = 1; rank <= 9; ++rank) {
      std::vector<std::int64_t> ranks(dims.size(), 2);
      ranks[0] = rank;
      Ctx s = MakeShapedCtx(dims, ranks, 100, ++seed);
      ContractionDeltaEngine engine(s.x, s.list, s.factors, nullptr);
      const std::string where = "order " + std::to_string(order) + " rank " +
                                std::to_string(rank);
      const auto check = [&](const std::string& state) {
        for (std::int64_t n = 0; n < order; ++n) {
          const auto memoized =
              static_cast<std::int64_t>(engine.memo_modes(n).size());
          const std::int64_t depth = order - 1 - memoized;
          depths.insert(depth);
          walked.insert({depth, s.factors[static_cast<std::size_t>(n)].cols()});
        }
        ExpectChunksMatchOneEntryWalk(s.x, engine, s.factors,
                                      where + " " + state);
      };
      check("dense core");

      Rng rng(seed + 500);
      const auto update_factor = [&](std::int64_t mode) {
        Matrix& factor = s.factors[static_cast<std::size_t>(mode)];
        const Matrix old_factor = factor;
        for (std::int64_t i = 0; i < factor.size(); ++i) {
          factor.data()[i] = rng.Uniform(-1.0, 1.0);
        }
        engine.OnFactorUpdated(mode, old_factor);
      };
      // A memoized mode when there is one, else mode 1.
      const std::int64_t updated = engine.memo_modes(0).empty()
                                       ? std::int64_t{1}
                                       : engine.memo_modes(0).front();
      update_factor(updated);
      check("after a factor update");

      for (std::int64_t linear = 0; linear < s.core.size(); ++linear) {
        s.core[linear] = linear % 5 == 2 ? -0.0 : rng.Uniform(-0.5, 0.5);
      }
      s.list.RefreshValues(s.core);
      engine.OnCoreValuesChanged();
      check("after new core values");

      if (s.list.size() > 1) {
        std::vector<char> remove(static_cast<std::size_t>(s.list.size()), 0);
        for (std::size_t b = 0; b < remove.size(); b += 3) remove[b] = 1;
        s.list.Remove(remove, &s.core);
        engine.OnCoreEntriesRemoved(remove);
        check("truncated core");
        update_factor(updated);
        check("truncated core after a factor update");
      }
    }
  }
  // Order 7's one short mode memoizes nothing, so depth 6 runs as well.
  EXPECT_EQ(depths, (std::set<std::int64_t>{1, 2, 3, 4, 5, 6}));
  for (std::int64_t depth = 1; depth <= 4; ++depth) {
    for (std::int64_t rank = 1; rank <= 9; ++rank) {
      EXPECT_EQ(walked.count({depth, rank}), 1u)
          << "no mode walked a depth-" << depth << " tree at rank " << rank;
    }
  }
}

TEST(ContractionEngineTest, ParallelRefillsAreBitIdenticalAcrossThreadCounts) {
  // The leaf arrays fill in parallel in the constructor and in every
  // refill hook. An engine built and refilled at 1 thread and one at 4
  // give the same δ bits for every entry and mode.
  const auto deltas_after_refills = [](int threads) {
    ThreadCountGuard guard(threads);
    Ctx s = MakeShapedCtx({60, 4, 40, 6}, {3, 2, 4, 3}, 800, 1401);
    ContractionDeltaEngine engine(s.x, s.list, s.factors, nullptr);
    EXPECT_FALSE(engine.memo_modes(0).empty());
    std::vector<std::vector<double>> states;
    states.push_back(AllDeltas(s.x, engine, s.factors));
    Rng rng(1402);
    for (const std::int64_t mode : {std::int64_t{1}, std::int64_t{3}}) {
      Matrix& factor = s.factors[static_cast<std::size_t>(mode)];
      const Matrix old_factor = factor;
      for (std::int64_t i = 0; i < factor.size(); ++i) {
        factor.data()[i] = rng.Uniform(-1.0, 1.0);
      }
      engine.OnFactorUpdated(mode, old_factor);
      states.push_back(AllDeltas(s.x, engine, s.factors));
    }
    for (std::int64_t linear = 0; linear < s.core.size(); ++linear) {
      s.core[linear] = rng.Uniform(-0.5, 0.5);
    }
    s.list.RefreshValues(s.core);
    engine.OnCoreValuesChanged();
    states.push_back(AllDeltas(s.x, engine, s.factors));
    return states;
  };
  const std::vector<std::vector<double>> serial = deltas_after_refills(1);
  const std::vector<std::vector<double>> parallel = deltas_after_refills(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t state = 0; state < serial.size(); ++state) {
    ASSERT_EQ(serial[state].size(), parallel[state].size());
    for (std::size_t v = 0; v < serial[state].size(); ++v) {
      ASSERT_EQ(Bits(serial[state][v]), Bits(parallel[state][v]))
          << "state " << state << " value " << v;
    }
  }
}

TEST(ContractionEngineTest, MemoCapHoldsAndPlanIgnoresTheTracker) {
  // Four equal modes of 30: memoizing one other mode costs 30 arrays x 9
  // leaves x 3 lanes x 8 B = 6,480 B against a cap of 400 x 5 x 8 =
  // 16,000 B, so two modes memoize and the others fall back to S_n = ∅.
  Ctx s = MakeShapedCtx({30, 30, 30, 30}, {3, 3, 3, 3}, 400, 501);
  ASSERT_EQ(ContractionDeltaEngine::MemoCapBytes(s.x.nnz(), 4), 16000);
  const ContractionDeltaEngine engine(s.x, s.list, s.factors, nullptr);
  EXPECT_LE(engine.MemoTableBytes(),
            ContractionDeltaEngine::MemoCapBytes(s.x.nnz(), s.x.order()));
  std::int64_t memoized = 0;
  for (std::int64_t n = 0; n < 4; ++n) {
    memoized += engine.memo_modes(n).empty() ? 0 : 1;
  }
  EXPECT_EQ(memoized, 2);
  EXPECT_EQ(engine.MemoTableBytes(), 2 * 6480);

  // A tight tracker changes nothing about the plan.
  MemoryTracker tracker(engine.ByteSize());
  const ContractionDeltaEngine tracked(s.x, s.list, s.factors, &tracker);
  for (std::int64_t n = 0; n < 4; ++n) {
    EXPECT_EQ(tracked.memo_modes(n), engine.memo_modes(n)) << "mode " << n;
  }
  EXPECT_EQ(tracked.reconstruct_mode(), engine.reconstruct_mode());
  EXPECT_EQ(AllDeltas(s.x, tracked, s.factors),
            AllDeltas(s.x, engine, s.factors));
}

TEST(ContractionEngineTest, ChargesTrackerBeforeAllocating) {
  Ctx s = MakeShapedCtx({50, 4, 30, 5}, {3, 2, 4, 2}, 600, 601);
  const std::int64_t full =
      ContractionDeltaEngine(s.x, s.list, s.factors, nullptr).ByteSize();

  // Over budget: OutOfMemoryBudget, nothing left charged.
  for (const std::int64_t budget : {std::int64_t{16}, full - 1}) {
    MemoryTracker tracker(budget);
    EXPECT_THROW(ContractionDeltaEngine(s.x, s.list, s.factors, &tracker),
                 OutOfMemoryBudget)
        << "budget " << budget;
    EXPECT_EQ(tracker.current_bytes(), 0) << "budget " << budget;
  }

  {
    MemoryTracker exact(full);
    const ContractionDeltaEngine engine(s.x, s.list, s.factors, &exact);
    EXPECT_EQ(engine.ByteSize(), full);
    EXPECT_EQ(exact.current_bytes(), full);
    EXPECT_EQ(exact.peak_bytes(), full);
  }

  // Every hook leaves the charge equal to ByteSize(). (A removal may
  // grow it: a smaller core can make more memo arrays pay off.)
  MemoryTracker tracker;
  {
    ContractionDeltaEngine engine(s.x, s.list, s.factors, &tracker);

    Matrix old_factor = s.factors[1];
    Rng rng(602);
    s.factors[1].FillUniform(rng);
    engine.OnFactorUpdated(1, old_factor);
    EXPECT_EQ(tracker.current_bytes(), engine.ByteSize());
    s.list.RefreshValues(s.core);
    engine.OnCoreValuesChanged();
    EXPECT_EQ(tracker.current_bytes(), engine.ByteSize());
    std::vector<char> remove(static_cast<std::size_t>(s.list.size()), 0);
    for (std::size_t b = 0; b < remove.size(); b += 2) remove[b] = 1;
    s.list.Remove(remove, &s.core);
    engine.OnCoreEntriesRemoved(remove);
    EXPECT_EQ(tracker.current_bytes(), engine.ByteSize());
  }
  EXPECT_EQ(tracker.current_bytes(), 0);
}

// --- Solver-level guarantees across engines. ---

PTuckerResult Solve(const SparseTensor& x, DeltaEngineChoice engine,
                    PTuckerVariant variant = PTuckerVariant::kMemory,
                    bool update_core = false) {
  PTuckerOptions options;
  options.core_dims = {3, 3, 3};
  options.max_iterations = 5;
  options.tolerance = 0.0;
  options.delta_engine = engine;
  options.variant = variant;
  options.update_core = update_core;
  return PTuckerDecompose(x, options);
}

class DeltaEngineTrajectories : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(21);
    x_ = UniformSparseTensor({14, 12, 10}, 400, rng);
  }
  SparseTensor x_;
};

TEST_F(DeltaEngineTrajectories, AllEnginesProduceTheSameTrajectory) {
  const PTuckerResult naive = Solve(x_, DeltaEngineChoice::kNaive);
  const PTuckerResult mode_major = Solve(x_, DeltaEngineChoice::kModeMajor);
  const PTuckerResult cached = Solve(x_, DeltaEngineChoice::kCached);
  const PTuckerResult contraction =
      Solve(x_, DeltaEngineChoice::kContraction);
  ASSERT_EQ(naive.iterations.size(), mode_major.iterations.size());
  ASSERT_EQ(naive.iterations.size(), cached.iterations.size());
  ASSERT_EQ(naive.iterations.size(), contraction.iterations.size());
  for (std::size_t i = 0; i < naive.iterations.size(); ++i) {
    EXPECT_NEAR(mode_major.iterations[i].error, naive.iterations[i].error,
                1e-7)
        << "iter " << i;
    EXPECT_NEAR(cached.iterations[i].error, naive.iterations[i].error, 1e-7)
        << "iter " << i;
    EXPECT_NEAR(contraction.iterations[i].error, naive.iterations[i].error,
                1e-7)
        << "iter " << i;
  }
}

TEST_F(DeltaEngineTrajectories, EachEngineIsRunToRunDeterministic) {
  for (const DeltaEngineChoice choice :
       {DeltaEngineChoice::kNaive, DeltaEngineChoice::kModeMajor,
        DeltaEngineChoice::kCached, DeltaEngineChoice::kContraction}) {
    const PTuckerResult a = Solve(x_, choice);
    const PTuckerResult b = Solve(x_, choice);
    ASSERT_EQ(a.iterations.size(), b.iterations.size());
    for (std::size_t i = 0; i < a.iterations.size(); ++i) {
      EXPECT_EQ(a.iterations[i].error, b.iterations[i].error)
          << "engine " << static_cast<int>(choice) << " iter " << i;
    }
  }
}

TEST_F(DeltaEngineTrajectories, EnginesAgreeUnderApproxTruncation) {
  const PTuckerResult naive =
      Solve(x_, DeltaEngineChoice::kNaive, PTuckerVariant::kApprox);
  const PTuckerResult mode_major =
      Solve(x_, DeltaEngineChoice::kModeMajor, PTuckerVariant::kApprox);
  const PTuckerResult contraction =
      Solve(x_, DeltaEngineChoice::kContraction, PTuckerVariant::kApprox);
  ASSERT_EQ(naive.iterations.size(), mode_major.iterations.size());
  ASSERT_EQ(naive.iterations.size(), contraction.iterations.size());
  for (std::size_t i = 0; i < naive.iterations.size(); ++i) {
    EXPECT_NEAR(mode_major.iterations[i].error, naive.iterations[i].error,
                1e-7);
    EXPECT_EQ(mode_major.iterations[i].core_nnz, naive.iterations[i].core_nnz);
    EXPECT_NEAR(contraction.iterations[i].error, naive.iterations[i].error,
                1e-7);
    EXPECT_EQ(contraction.iterations[i].core_nnz,
              naive.iterations[i].core_nnz);
  }
}

TEST_F(DeltaEngineTrajectories, EnginesAgreeUnderCoreUpdate) {
  const PTuckerResult naive = Solve(x_, DeltaEngineChoice::kNaive,
                                    PTuckerVariant::kMemory, true);
  const PTuckerResult mode_major = Solve(x_, DeltaEngineChoice::kModeMajor,
                                         PTuckerVariant::kMemory, true);
  const PTuckerResult contraction = Solve(x_, DeltaEngineChoice::kContraction,
                                          PTuckerVariant::kMemory, true);
  ASSERT_EQ(naive.iterations.size(), mode_major.iterations.size());
  ASSERT_EQ(naive.iterations.size(), contraction.iterations.size());
  for (std::size_t i = 0; i < naive.iterations.size(); ++i) {
    EXPECT_NEAR(mode_major.iterations[i].error, naive.iterations[i].error,
                1e-6);
    EXPECT_NEAR(contraction.iterations[i].error, naive.iterations[i].error,
                1e-6);
  }
}

TEST_F(DeltaEngineTrajectories, ModeMajorModelIsBitIdenticalToNaive) {
  // Mode-major's δ is bit-identical to naive, so the row updates, the
  // truncation scores and hence the final model are too. The core
  // refit's design products are one entry-major scan under every engine,
  // so a solve with update_core ends in naive's model as well. Only the
  // per-iteration errors may differ, because mode-major's Reconstruct
  // sums by group. Pinned with EXPECT_EQ on every factor and core value.
  struct Case {
    PTuckerVariant variant;
    bool update_core;
    const char* where;
  };
  for (const Case& c : {Case{PTuckerVariant::kMemory, false, "memory"},
                        Case{PTuckerVariant::kApprox, false, "approx"},
                        Case{PTuckerVariant::kMemory, true, "update_core"}}) {
    const PTuckerResult naive =
        Solve(x_, DeltaEngineChoice::kNaive, c.variant, c.update_core);
    const PTuckerResult mode_major =
        Solve(x_, DeltaEngineChoice::kModeMajor, c.variant, c.update_core);
    const std::string where = c.where;
    ASSERT_EQ(naive.model.factors.size(), mode_major.model.factors.size());
    for (std::size_t n = 0; n < naive.model.factors.size(); ++n) {
      const Matrix& a = naive.model.factors[n];
      const Matrix& b = mode_major.model.factors[n];
      ASSERT_EQ(a.size(), b.size()) << where;
      for (std::int64_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.data()[i], b.data()[i])
            << where << " factor " << n << " element " << i;
      }
    }
    ASSERT_EQ(naive.model.core.size(), mode_major.model.core.size()) << where;
    for (std::int64_t i = 0; i < naive.model.core.size(); ++i) {
      EXPECT_EQ(naive.model.core[i], mode_major.model.core[i])
          << where << " core element " << i;
    }
  }
}

}  // namespace
}  // namespace ptucker

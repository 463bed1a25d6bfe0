// The shared row-subset entry point (core/row_update.h) that the ALS
// sweep, the streaming ingest pipeline and the distributed workers solve
// through. Pins the contracts the pipeline's determinism rests on: rows
// == nullptr is bit-identical to passing every row explicitly, a subset
// call touches only the listed rows, results are independent of thread
// count and scheduling, both routes (the per-solve SliceOrderedOmega and
// the SparseTensor overload) equal an entry-gathering oracle bit for bit,
// across the kernel's 64-record chunks too, and the full-sweep path is
// exactly what PTuckerDecompose runs (the golden-trajectory tests in
// ptucker_test.cc cover that end to end).
#include "core/row_update.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <omp.h>

#include "core/delta_engine.h"
#include "data/synthetic.h"
#include "linalg/blas.h"
#include "linalg/cholesky.h"
#include "linalg/lu.h"
#include "tensor/dense_tensor.h"
#include "util/random.h"

namespace ptucker {
namespace {

class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int threads) : saved_(omp_get_max_threads()) {
    omp_set_num_threads(threads);
  }
  ~ThreadCountGuard() { omp_set_num_threads(saved_); }

 private:
  int saved_;
};

struct Ctx {
  SparseTensor x;
  DenseTensor core;
  std::unique_ptr<CoreEntryList> list;
  std::vector<Matrix> factors;
};

Ctx MakeCtx(std::uint64_t seed) {
  Rng rng(seed);
  Ctx s;
  s.x = UniformSparseTensor({14, 11, 9}, 180, rng);
  s.x.BuildModeIndex();
  s.core = DenseTensor({4, 3, 3});
  s.core.FillUniform(rng);
  s.list = std::make_unique<CoreEntryList>(s.core);
  for (std::int64_t n = 0; n < 3; ++n) {
    Matrix factor(s.x.dim(n), s.core.dim(n));
    factor.FillUniform(rng);
    s.factors.push_back(std::move(factor));
  }
  return s;
}

// The row update as it read Ω before the slice-ordered records: per row,
// each entry of x.Slice(mode, row) gathered through x.index / x.value,
// serially. Kept here as the oracle both routes must match bit for bit.
std::uint64_t OracleSampleStreamSeed(std::uint64_t seed, int iteration,
                                     std::int64_t mode, std::int64_t row) {
  std::uint64_t h = seed ^ 0x9e3779b97f4a7c15ULL;
  for (const std::uint64_t word :
       {static_cast<std::uint64_t>(iteration), static_cast<std::uint64_t>(mode),
        static_cast<std::uint64_t>(row)}) {
    h ^= word + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
  }
  return h;
}

void OracleUpdateFactorRows(const SparseTensor& x, std::int64_t mode,
                            const DeltaEngine& engine, Matrix* factor,
                            const RowUpdateOptions& options) {
  const std::int64_t rank = factor->cols();
  const bool subsample = options.sample_rate < 1.0;
  Matrix b(rank, rank);
  std::vector<double> c(static_cast<std::size_t>(rank));
  std::vector<double> delta(static_cast<std::size_t>(rank));
  std::vector<double> new_row(static_cast<std::size_t>(rank));
  for (std::int64_t row = 0; row < x.dim(mode); ++row) {
    const auto slice = x.Slice(mode, row);
    if (slice.empty()) {
      for (std::int64_t j = 0; j < rank; ++j) (*factor)(row, j) = 0.0;
      continue;
    }
    b.Fill(0.0);
    std::fill(c.begin(), c.end(), 0.0);
    Rng sampler(subsample ? OracleSampleStreamSeed(options.seed,
                                                   options.iteration, mode, row)
                          : 0);
    const auto accumulate_entry = [&](std::int64_t entry) {
      engine.ComputeDelta(entry, x.index(entry), mode, delta.data());
      SymmetricRank1Update(b, delta.data());
      Axpy(x.value(entry), delta.data(), c.data(), rank);
    };
    std::int64_t used = 0;
    for (const std::int64_t entry : slice) {
      if (subsample && sampler.Uniform() >= options.sample_rate) continue;
      ++used;
      accumulate_entry(entry);
    }
    if (subsample && used == 0) accumulate_entry(slice.front());
    for (std::int64_t j = 0; j < rank; ++j) b(j, j) += options.lambda;
    if (!CholeskySolveRow(b, c.data(), new_row.data())) {
      LuDecomposition lu(b);
      if (lu.ok()) {
        lu.Solve(c.data(), new_row.data());
      } else {
        std::fill(new_row.begin(), new_row.end(), 0.0);
      }
    }
    for (std::int64_t j = 0; j < rank; ++j) {
      (*factor)(row, j) = new_row[static_cast<std::size_t>(j)];
    }
  }
}

// An order-`order` tensor whose last row of every mode is empty, with
// random ranks in [2, 4], core and factors.
Ctx MakeOrderCtx(std::int64_t order, std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<std::int64_t> all_dims = {9, 7, 6, 5, 4};
  const std::vector<std::int64_t> dims(all_dims.begin(),
                                       all_dims.begin() + order);
  Ctx s;
  s.x = SparseTensor(dims);
  std::vector<std::int64_t> index(static_cast<std::size_t>(order));
  for (std::int64_t e = 0; e < 25 * order; ++e) {
    for (std::int64_t n = 0; n < order; ++n) {
      index[static_cast<std::size_t>(n)] = static_cast<std::int64_t>(
          rng.UniformInt(static_cast<std::uint64_t>(dims[n] - 1)));
    }
    s.x.AddEntry(index, rng.Uniform(-1.0, 1.0));
  }
  s.x.BuildModeIndex();
  std::vector<std::int64_t> ranks;
  for (std::int64_t n = 0; n < order; ++n) {
    ranks.push_back(2 + static_cast<std::int64_t>(rng.UniformInt(3)));
  }
  s.core = DenseTensor(ranks);
  s.core.FillUniform(rng);
  s.list = std::make_unique<CoreEntryList>(s.core);
  for (std::int64_t n = 0; n < order; ++n) {
    Matrix factor(dims[static_cast<std::size_t>(n)],
                  ranks[static_cast<std::size_t>(n)]);
    factor.FillUniform(rng);
    s.factors.push_back(std::move(factor));
  }
  return s;
}

// An order-3 tensor whose mode-0 slices hold kChunkSlices[i] records:
// none, one, and counts on both sides of one and two row-kernel chunks
// (DeltaEngine::kDeltaChunk = 64). Every mode has rank `rank`.
constexpr std::int64_t kChunkSlices[] = {0, 1, 63, 64, 65, 128, 130};

Ctx MakeChunkCtx(std::int64_t rank, std::uint64_t seed) {
  Rng rng(seed);
  const std::int64_t rows = static_cast<std::int64_t>(std::size(kChunkSlices));
  const std::int64_t dims[] = {rows, 12, 11};
  Ctx s;
  s.x = SparseTensor({dims[0], dims[1], dims[2]});
  for (std::int64_t i = 0; i < rows; ++i) {
    // Distinct (j, k) cells of the 12 x 11 slice.
    for (const std::int64_t cell :
         rng.Sample(dims[1] * dims[2], kChunkSlices[i])) {
      s.x.AddEntry({i, cell / dims[2], cell % dims[2]},
                   rng.Uniform(-1.0, 1.0));
    }
  }
  s.x.BuildModeIndex();
  s.core = DenseTensor({rank, rank, rank});
  s.core.FillUniform(rng);
  s.list = std::make_unique<CoreEntryList>(s.core);
  for (std::int64_t n = 0; n < 3; ++n) {
    Matrix factor(dims[n], rank);
    factor.FillUniform(rng);
    s.factors.push_back(std::move(factor));
  }
  return s;
}

void ExpectSameMatrix(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::int64_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]) << "flat index " << i;
  }
}

TEST(RowUpdateTest, NullRowsEqualsExplicitAllRows) {
  for (const DeltaEngineChoice choice :
       {DeltaEngineChoice::kNaive, DeltaEngineChoice::kModeMajor,
        DeltaEngineChoice::kCached}) {
    Ctx ctx = MakeCtx(11);
    const auto engine = MakeDeltaEngine(choice, ctx.x, *ctx.list,
                                        ctx.factors, nullptr);
    for (std::int64_t mode = 0; mode < 3; ++mode) {
      Matrix full = ctx.factors[static_cast<std::size_t>(mode)];
      Matrix listed = full;
      std::vector<std::int64_t> all(
          static_cast<std::size_t>(ctx.x.dim(mode)));
      std::iota(all.begin(), all.end(), 0);
      RowUpdateOptions options;
      {
        OmpEnvironmentGuard omp(1, Scheduling::kDynamic);
        UpdateFactorRows(ctx.x, mode, nullptr, 0, *engine, &full, options);
        UpdateFactorRows(ctx.x, mode, all.data(),
                         static_cast<std::int64_t>(all.size()), *engine,
                         &listed, options);
      }
      ExpectSameMatrix(full, listed);
    }
  }
}

TEST(RowUpdateTest, SubsetTouchesOnlyListedRows) {
  Ctx ctx = MakeCtx(12);
  const auto engine = MakeDeltaEngine(DeltaEngineChoice::kModeMajor, ctx.x,
                                      *ctx.list, ctx.factors, nullptr);
  const Matrix before = ctx.factors[0];
  Matrix updated = before;
  const std::vector<std::int64_t> rows = {2, 5, 7};
  RowUpdateOptions options;
  {
    OmpEnvironmentGuard omp(2, Scheduling::kDynamic);
    UpdateFactorRows(ctx.x, 0, rows.data(),
                     static_cast<std::int64_t>(rows.size()), *engine,
                     &updated, options);
  }
  // Listed rows with observed entries change; everything else is
  // bit-untouched.
  for (std::int64_t i = 0; i < before.rows(); ++i) {
    const bool listed =
        std::find(rows.begin(), rows.end(), i) != rows.end();
    for (std::int64_t j = 0; j < before.cols(); ++j) {
      if (!listed) {
        EXPECT_EQ(updated(i, j), before(i, j)) << "row " << i;
      }
    }
  }
  // And a full sweep restricted to those rows agrees with re-solving
  // them out of a fresh full sweep's result.
  Matrix full = before;
  {
    OmpEnvironmentGuard omp(2, Scheduling::kDynamic);
    UpdateFactorRows(ctx.x, 0, nullptr, 0, *engine, &full, options);
  }
  for (const std::int64_t row : rows) {
    for (std::int64_t j = 0; j < before.cols(); ++j) {
      EXPECT_EQ(updated(row, j), full(row, j)) << "row " << row;
    }
  }
}

TEST(RowUpdateTest, DeterministicAcrossThreadCountsAndScheduling) {
  const std::vector<std::int64_t> rows = {0, 3, 4, 8, 10};
  Matrix reference;
  for (const int threads : {1, 4, 13}) {
    for (const Scheduling scheduling :
         {Scheduling::kDynamic, Scheduling::kStatic}) {
      Ctx ctx = MakeCtx(13);
      const auto engine = MakeDeltaEngine(DeltaEngineChoice::kModeMajor,
                                          ctx.x, *ctx.list, ctx.factors,
                                          nullptr);
      Matrix factor = ctx.factors[0];
      RowUpdateOptions options;
      ThreadCountGuard ambient(threads);
      {
        OmpEnvironmentGuard omp(threads, scheduling);
        UpdateFactorRows(ctx.x, 0, rows.data(),
                         static_cast<std::int64_t>(rows.size()), *engine,
                         &factor, options);
      }
      if (reference.rows() == 0) {
        reference = factor;
      } else {
        ExpectSameMatrix(factor, reference);
      }
    }
  }
}

TEST(RowUpdateTest, RejectsBadArguments) {
  Ctx ctx = MakeCtx(14);
  const auto engine = MakeDeltaEngine(DeltaEngineChoice::kModeMajor, ctx.x,
                                      *ctx.list, ctx.factors, nullptr);
  Matrix factor = ctx.factors[0];
  RowUpdateOptions options;
  EXPECT_THROW(
      UpdateFactorRows(ctx.x, 3, nullptr, 0, *engine, &factor, options),
      std::invalid_argument);
  EXPECT_THROW(
      UpdateFactorRows(ctx.x, 0, nullptr, 0, *engine, nullptr, options),
      std::invalid_argument);
  const std::int64_t bad_row = ctx.x.dim(0);
  EXPECT_THROW(UpdateFactorRows(ctx.x, 0, &bad_row, 1, *engine, &factor,
                                options),
               std::invalid_argument);
}

TEST(RowUpdateTest, RejectsANegativeRowCount) {
  // A negative count names num_rows on both routes, instead of forming
  // rows + num_rows before the array.
  Ctx ctx = MakeCtx(17);
  const auto engine = MakeDeltaEngine(DeltaEngineChoice::kModeMajor, ctx.x,
                                      *ctx.list, ctx.factors, nullptr);
  const SliceOrderedOmega omega(ctx.x, /*entry_ids=*/false);
  Matrix factor = ctx.factors[0];
  const std::int64_t rows[] = {1, 2};
  const auto expect_names_num_rows = [](const auto& call) {
    try {
      call();
      ADD_FAILURE() << "no exception";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("num_rows"), std::string::npos)
          << error.what();
    }
  };
  expect_names_num_rows([&] {
    UpdateFactorRows(ctx.x, 0, rows, -1, *engine, &factor, RowUpdateOptions());
  });
  expect_names_num_rows([&] {
    UpdateFactorRows(omega, 0, rows, -2, *engine, &factor, RowUpdateOptions());
  });
  ExpectSameMatrix(factor, ctx.factors[0]);
}

// An order-3 tensor whose mode-0 row 0 holds a tenth of Ω, followed by
// thousands of one-record rows with every 50th row empty. Ranks 4, 3, 3.
Ctx MakeSkewedCtx(std::uint64_t seed) {
  Rng rng(seed);
  const std::int64_t rows = 3700;
  const std::int64_t dims[] = {rows, 30, 20};
  Ctx s;
  s.x = SparseTensor({dims[0], dims[1], dims[2]});
  for (std::int64_t i = 1; i < rows; ++i) {
    if (i % 50 == 0) continue;
    s.x.AddEntry({i, static_cast<std::int64_t>(rng.UniformInt(dims[1] - 1)),
                  static_cast<std::int64_t>(rng.UniformInt(dims[2] - 1))},
                 rng.Uniform(-1.0, 1.0));
  }
  const std::int64_t heavy = s.x.nnz() / 9;
  for (const std::int64_t cell : rng.Sample(dims[1] * dims[2], heavy)) {
    s.x.AddEntry({0, cell / dims[2], cell % dims[2]}, rng.Uniform(-1.0, 1.0));
  }
  s.x.BuildModeIndex();
  s.core = DenseTensor({4, 3, 3});
  s.core.FillUniform(rng);
  s.list = std::make_unique<CoreEntryList>(s.core);
  for (std::int64_t n = 0; n < 3; ++n) {
    Matrix factor(dims[n], s.core.dim(n));
    factor.FillUniform(rng);
    s.factors.push_back(std::move(factor));
  }
  return s;
}

TEST(RowUpdateTest, RowBlocksKeepTheBitsOnASkewedTensor) {
  // The threads take blocks of consecutive rows sized by their records. A
  // skewed mode must give the oracle's bits at 1-4 threads, under both
  // schedules, on both routes, for the full sweep and for an unsorted
  // row list that names every row, some twice.
  Ctx ctx = MakeSkewedCtx(31);
  ASSERT_LE(std::abs(ctx.x.SliceSize(0, 0) * 10 - ctx.x.nnz()), 10);
  ASSERT_EQ(ctx.x.SliceSize(0, 50), 0);
  ASSERT_EQ(ctx.x.SliceSize(0, 1), 1);
  for (const DeltaEngineChoice choice :
       {DeltaEngineChoice::kModeMajor, DeltaEngineChoice::kContraction}) {
    const auto engine = MakeDeltaEngine(choice, ctx.x, *ctx.list,
                                        ctx.factors, nullptr);
    const SliceOrderedOmega omega(ctx.x, engine->UsesEntryIds());
    for (std::int64_t mode = 0; mode < 3; ++mode) {
      const Matrix& start = ctx.factors[static_cast<std::size_t>(mode)];
      Matrix expected = start;
      OracleUpdateFactorRows(ctx.x, mode, *engine, &expected,
                             RowUpdateOptions());
      std::vector<std::int64_t> listed(static_cast<std::size_t>(start.rows()));
      std::iota(listed.begin(), listed.end(), 0);
      listed.insert(listed.end(), listed.begin(), listed.begin() + 20);
      Rng shuffle(41 + static_cast<std::uint64_t>(mode));
      for (std::size_t i = listed.size(); i > 1; --i) {
        std::swap(listed[i - 1], listed[shuffle.UniformInt(i - 1)]);
      }
      for (const int threads : {1, 2, 3, 4}) {
        for (const Scheduling scheduling :
             {Scheduling::kDynamic, Scheduling::kStatic}) {
          SCOPED_TRACE(std::string(engine->name()) + " mode " +
                       std::to_string(mode) + " threads " +
                       std::to_string(threads) +
                       (scheduling == Scheduling::kStatic ? " static"
                                                          : " dynamic"));
          OmpEnvironmentGuard omp(threads, scheduling);
          const std::int64_t* const row_lists[] = {nullptr, listed.data()};
          for (const std::int64_t* rows : row_lists) {
            const std::int64_t num_rows =
                static_cast<std::int64_t>(listed.size());
            Matrix by_layout = start;
            Matrix by_tensor = start;
            UpdateFactorRows(omega, mode, rows, num_rows, *engine, &by_layout,
                             RowUpdateOptions());
            UpdateFactorRows(ctx.x, mode, rows, num_rows, *engine,
                             &by_tensor, RowUpdateOptions());
            ExpectSameMatrix(by_layout, expected);
            ExpectSameMatrix(by_tensor, expected);
          }
        }
      }
    }
  }
}

TEST(RowUpdateTest, BothRoutesMatchGatherOracle) {
  for (std::int64_t order = 2; order <= 5; ++order) {
    Ctx ctx = MakeOrderCtx(order, 100 + static_cast<std::uint64_t>(order));
    for (std::int64_t mode = 0; mode < order; ++mode) {
      ASSERT_EQ(ctx.x.SliceSize(mode, ctx.x.dim(mode) - 1), 0);
    }
    for (const DeltaEngineChoice choice :
         {DeltaEngineChoice::kNaive, DeltaEngineChoice::kModeMajor,
          DeltaEngineChoice::kCached, DeltaEngineChoice::kContraction}) {
      const auto engine = MakeDeltaEngine(choice, ctx.x, *ctx.list,
                                          ctx.factors, nullptr);
      const SliceOrderedOmega omega(ctx.x, engine->UsesEntryIds());
      for (const double rate : {1.0, 0.3, 1e-3}) {
        RowUpdateOptions options;
        options.sample_rate = rate;
        options.seed = 7;
        options.iteration = 3;
        for (std::int64_t mode = 0; mode < order; ++mode) {
          Matrix expected = ctx.factors[static_cast<std::size_t>(mode)];
          OracleUpdateFactorRows(ctx.x, mode, *engine, &expected, options);
          for (const int threads : {1, 4, 13}) {
            SCOPED_TRACE("order " + std::to_string(order) + " engine " +
                         engine->name() + " rate " + std::to_string(rate) +
                         " mode " + std::to_string(mode) + " threads " +
                         std::to_string(threads));
            Matrix by_layout = ctx.factors[static_cast<std::size_t>(mode)];
            Matrix by_tensor = by_layout;
            {
              OmpEnvironmentGuard omp(threads, Scheduling::kDynamic);
              UpdateFactorRows(omega, mode, nullptr, 0, *engine, &by_layout,
                               options);
              UpdateFactorRows(ctx.x, mode, nullptr, 0, *engine, &by_tensor,
                               options);
            }
            ExpectSameMatrix(by_layout, expected);
            ExpectSameMatrix(by_tensor, expected);
          }
        }
      }
    }
  }
}

TEST(RowUpdateTest, ChunkBoundariesMatchGatherOracle) {
  // The kernel computes δ and folds B and c 64 records at a time. Slices
  // of 0, 1, 63, 64, 65, 128 and 130 records, every unrolled fold width
  // and the generic one (ranks 1-9), every engine, and a sample rate low
  // enough that rows fall back to their first record must all give the
  // oracle's bits on both routes.
  for (std::int64_t rank = 1; rank <= 9; ++rank) {
    Ctx ctx = MakeChunkCtx(rank, 400 + static_cast<std::uint64_t>(rank));
    for (std::size_t i = 0; i < std::size(kChunkSlices); ++i) {
      ASSERT_EQ(ctx.x.SliceSize(0, static_cast<std::int64_t>(i)),
                kChunkSlices[i]);
    }
    for (const DeltaEngineChoice choice :
         {DeltaEngineChoice::kNaive, DeltaEngineChoice::kModeMajor,
          DeltaEngineChoice::kCached, DeltaEngineChoice::kContraction}) {
      const auto engine = MakeDeltaEngine(choice, ctx.x, *ctx.list,
                                          ctx.factors, nullptr);
      const SliceOrderedOmega omega(ctx.x, engine->UsesEntryIds());
      for (const double rate : {1.0, 0.5, 0.02}) {
        RowUpdateOptions options;
        options.sample_rate = rate;
        options.seed = 11;
        options.iteration = 2;
        for (std::int64_t mode = 0; mode < 3; ++mode) {
          Matrix expected = ctx.factors[static_cast<std::size_t>(mode)];
          OracleUpdateFactorRows(ctx.x, mode, *engine, &expected, options);
          for (const int threads : {1, 4, 13}) {
            SCOPED_TRACE("rank " + std::to_string(rank) + " engine " +
                         engine->name() + " rate " + std::to_string(rate) +
                         " mode " + std::to_string(mode) + " threads " +
                         std::to_string(threads));
            Matrix by_layout = ctx.factors[static_cast<std::size_t>(mode)];
            Matrix by_tensor = by_layout;
            {
              OmpEnvironmentGuard omp(threads, Scheduling::kDynamic);
              UpdateFactorRows(omega, mode, nullptr, 0, *engine, &by_layout,
                               options);
              UpdateFactorRows(ctx.x, mode, nullptr, 0, *engine, &by_tensor,
                               options);
            }
            ExpectSameMatrix(by_layout, expected);
            ExpectSameMatrix(by_tensor, expected);
          }
        }
      }
    }
  }
}

TEST(RowUpdateTest, DuplicateRowsAreSolvedOnce) {
  // The cached engine divides by the old coefficients of the row being
  // solved, and here it is bound to the factor the call writes, as in the
  // solver: a second solve of a row would read the first one's output.
  Ctx ctx = MakeCtx(15);
  const auto engine = MakeDeltaEngine(DeltaEngineChoice::kCached, ctx.x,
                                      *ctx.list, ctx.factors, nullptr);
  const SliceOrderedOmega omega(ctx.x, /*entry_ids=*/true);
  Matrix& factor = ctx.factors[0];
  const Matrix before = factor;
  const auto restore = [&] {
    std::copy(before.data(), before.data() + before.size(), factor.data());
  };
  const std::vector<std::int64_t> distinct = {2, 5};
  const std::vector<std::int64_t> repeated = {5, 2, 5, 2};
  const RowUpdateOptions options;
  {
    OmpEnvironmentGuard omp(1, Scheduling::kDynamic);
    UpdateFactorRows(ctx.x, 0, distinct.data(), 2, *engine, &factor, options);
  }
  const Matrix once = factor;
  for (std::int64_t i = 0; i < before.rows(); ++i) {
    if (i == 2 || i == 5) continue;
    for (std::int64_t j = 0; j < before.cols(); ++j) {
      EXPECT_EQ(once(i, j), before(i, j)) << "row " << i;
    }
  }
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    OmpEnvironmentGuard omp(threads, Scheduling::kDynamic);
    restore();
    UpdateFactorRows(ctx.x, 0, repeated.data(), 4, *engine, &factor, options);
    ExpectSameMatrix(factor, once);
    restore();
    UpdateFactorRows(omega, 0, repeated.data(), 4, *engine, &factor, options);
    ExpectSameMatrix(factor, once);
  }
}

TEST(RowUpdateTest, LayoutWithoutIdsRejectsAnEngineThatKeysByEntryId) {
  Ctx ctx = MakeCtx(16);
  const auto engine = MakeDeltaEngine(DeltaEngineChoice::kCached, ctx.x,
                                      *ctx.list, ctx.factors, nullptr);
  const SliceOrderedOmega omega(ctx.x, /*entry_ids=*/false);
  Matrix factor = ctx.factors[0];
  EXPECT_THROW(UpdateFactorRows(omega, 0, nullptr, 0, *engine, &factor,
                                RowUpdateOptions()),
               std::invalid_argument);
}

TEST(SliceOrderedOmegaTest, RecordsFollowTheSliceOrder) {
  for (std::int64_t order = 2; order <= 5; ++order) {
    const Ctx ctx =
        MakeOrderCtx(order, 200 + static_cast<std::uint64_t>(order));
    for (const bool entry_ids : {false, true}) {
      const SliceOrderedOmega omega(ctx.x, entry_ids);
      ASSERT_EQ(omega.order(), order);
      EXPECT_EQ(omega.has_entry_ids(), entry_ids);
      for (std::int64_t mode = 0; mode < order; ++mode) {
        ASSERT_EQ(omega.dim(mode), ctx.x.dim(mode));
        for (std::int64_t i = 0; i < ctx.x.dim(mode); ++i) {
          const auto slice = ctx.x.Slice(mode, i);
          const SliceRecords records = omega.Slice(mode, i);
          ASSERT_EQ(records.count, static_cast<std::int64_t>(slice.size()));
          EXPECT_EQ(records.entry_ids != nullptr, entry_ids);
          for (std::int64_t r = 0; r < records.count; ++r) {
            const std::int64_t entry = slice[static_cast<std::size_t>(r)];
            const std::int32_t* coords = records.coords + r * (order - 1);
            std::int64_t k = 0;
            for (std::int64_t m = 0; m < order; ++m) {
              if (m == mode) continue;
              EXPECT_EQ(coords[k++], ctx.x.index(entry, m));
            }
            EXPECT_EQ(records.values[r], ctx.x.value(entry));
            if (entry_ids) {
              EXPECT_EQ(records.entry_ids[r], entry);
            }
          }
        }
      }
    }
  }
}

TEST(SliceOrderedOmegaTest, BytesFollowTheRecordLayout) {
  const Ctx ctx = MakeOrderCtx(4, 300);
  const std::int64_t n = 4;
  const std::int64_t nnz = ctx.x.nnz();
  std::int64_t offsets = 0;
  for (std::int64_t m = 0; m < n; ++m) offsets += 8 * (ctx.x.dim(m) + 1);
  const std::int64_t without_ids = n * nnz * (4 * (n - 1) + 8) + offsets;
  EXPECT_EQ(SliceOrderedOmega::Bytes(ctx.x.dims(), nnz, false), without_ids);
  EXPECT_EQ(SliceOrderedOmega::Bytes(ctx.x.dims(), nnz, true),
            without_ids + n * nnz * 4);
  for (const bool entry_ids : {false, true}) {
    const SliceOrderedOmega omega(ctx.x, entry_ids);
    EXPECT_EQ(omega.bytes(),
              SliceOrderedOmega::Bytes(ctx.x.dims(), nnz, entry_ids));
  }
}

TEST(SliceOrderedOmegaTest, RejectsSizesAboveInt32LoudlyBeforeAllocating) {
  const std::int64_t too_big =
      static_cast<std::int64_t>(std::numeric_limits<std::int32_t>::max()) + 1;
  // A mode dimension above INT32_MAX: the builder throws before it reads
  // the (unbuilt) mode index or allocates its 16 GiB of slice offsets.
  const SparseTensor wide({3, too_big});
  try {
    SliceOrderedOmega omega(wide, false);
    ADD_FAILURE() << "no exception";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("mode 1"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(too_big)), std::string::npos) << what;
  }
  // |Ω| above INT32_MAX, through the size query the builder sizes by.
  try {
    SliceOrderedOmega::Bytes({3, 4}, too_big, false);
    ADD_FAILURE() << "no exception";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("|Omega|"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(too_big)), std::string::npos) << what;
  }
  EXPECT_EQ(SliceOrderedOmega::Bytes({3, too_big - 1}, too_big - 1, true),
            2 * (too_big - 1) * (4 + 8 + 4) + 8 * (4 + too_big));
}

}  // namespace
}  // namespace ptucker

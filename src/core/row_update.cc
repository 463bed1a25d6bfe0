#include "core/row_update.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/delta_engine.h"
#include "linalg/blas.h"
#include "linalg/cholesky.h"
#include "linalg/lu.h"
#include "util/random.h"

namespace ptucker {

namespace {

constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();

// Throws std::invalid_argument unless every dimension and `nnz` fit the
// records' int32 coordinates and entry ids.
void CheckRecordLimits(const std::vector<std::int64_t>& dims,
                       std::int64_t nnz) {
  for (std::size_t n = 0; n < dims.size(); ++n) {
    if (dims[n] > kInt32Max) {
      throw std::invalid_argument(
          "row update: mode " + std::to_string(n) + " has dimension " +
          std::to_string(dims[n]) + ", above the int32 limit " +
          std::to_string(kInt32Max));
    }
  }
  if (nnz > kInt32Max) {
    throw std::invalid_argument("row update: |Omega| = " +
                                std::to_string(nnz) +
                                " entries, above the int32 limit " +
                                std::to_string(kInt32Max));
  }
}

// Throws std::invalid_argument unless records can be read out of `x`:
// its sizes fit the records and its mode index is built.
void CheckRecordSource(const SparseTensor& x) {
  CheckRecordLimits(x.dims(), x.nnz());
  if (!x.has_mode_index()) {
    throw std::invalid_argument(
        "row update: call SparseTensor::BuildModeIndex() first");
  }
}

// Mixes the run seed with a (iteration, mode, row) key so every row draws
// an independent, reproducible subsample stream.
std::uint64_t SampleStreamSeed(std::uint64_t seed, int iteration,
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

// Solves row (B + λI) = c, writing the Jn results into `row`.
// Cholesky first (B + λI is SPD for λ > 0, Theorem 1); LU fallback covers
// λ = 0 with rank-deficient B; as a last resort the row is zeroed.
void SolveRow(const Matrix& b_plus_lambda, const double* c, double* row,
              std::int64_t rank) {
  if (CholeskySolveRow(b_plus_lambda, c, row)) return;
  LuDecomposition lu(b_plus_lambda);
  if (lu.ok()) {
    lu.Solve(c, row);
    return;
  }
  for (std::int64_t j = 0; j < rank; ++j) row[j] = 0.0;
}

// Per-thread intermediate data (Fig. 4): B, c and δ, plus the records the
// SparseTensor route copies a row's slice into.
struct RowScratch {
  explicit RowScratch(std::int64_t rank)
      : b(rank, rank),
        c(static_cast<std::size_t>(rank)),
        delta(static_cast<std::size_t>(rank)) {}
  Matrix b;
  std::vector<double> c;
  std::vector<double> delta;
  std::vector<std::int32_t> coords;
  std::vector<double> values;
  std::vector<std::int32_t> ids;
};

// Eqs. 9-11 for row `row` of `mode` over its slice `records`, in record
// order. With subsampling each record is kept with probability
// sample_rate, drawn from the row's own stream, and a row that keeps none
// is anchored to its first record.
void SolveRowFromRecords(const SliceRecords& records, std::int64_t order,
                         std::int64_t mode, std::int64_t row,
                         const DeltaEngine& engine,
                         const RowUpdateOptions& options, RowScratch* s,
                         Matrix* factor) {
  const std::int64_t rank = factor->cols();
  double* out = factor->Row(row);
  if (records.count == 0) {
    // No observations touch this row: the regularized minimum is 0.
    std::fill(out, out + rank, 0.0);
    return;
  }
  s->b.Fill(0.0);
  std::fill(s->c.begin(), s->c.end(), 0.0);
  const bool subsample = options.sample_rate < 1.0;
  Rng sampler(subsample ? SampleStreamSeed(options.seed, options.iteration,
                                           mode, row)
                        : 0);
  const std::int64_t others = order - 1;
  std::int64_t index[DeltaEngine::kMaxOrder];
  index[mode] = row;
  // δ, then the Eq. 10 / Eq. 11 accumulations, for record r.
  const auto accumulate_record = [&](std::int64_t r) {
    const std::int32_t* coords = records.coords + r * others;
    for (std::int64_t m = 0; m < mode; ++m) index[m] = coords[m];
    for (std::int64_t m = mode + 1; m < order; ++m) index[m] = coords[m - 1];
    engine.ComputeDelta(
        records.entry_ids != nullptr ? records.entry_ids[r] : -1, index, mode,
        s->delta.data());
    SymmetricRank1Update(s->b, s->delta.data());                  // Eq. 10
    Axpy(records.values[r], s->delta.data(), s->c.data(), rank);  // Eq. 11
  };
  std::int64_t used = 0;
  for (std::int64_t r = 0; r < records.count; ++r) {
    if (subsample && sampler.Uniform() >= options.sample_rate) continue;
    ++used;
    accumulate_record(r);
  }
  if (subsample && used == 0) {
    // Keep every observed row anchored to at least one entry.
    accumulate_record(0);
  }
  for (std::int64_t j = 0; j < rank; ++j) s->b(j, j) += options.lambda;
  SolveRow(s->b, s->c.data(), out, rank);  // Eq. 9
}

// Both routes' shared half: validates the factor and the rows, then runs
// the kernel over every row of `mode` (rows == nullptr) or each distinct
// listed row once, in parallel, with `records_of(row, scratch)` giving
// each row's records. Solving a row twice would let two threads write it
// at once.
template <typename RecordsOf>
void SweepRows(std::int64_t order, std::int64_t dim, std::int64_t mode,
               const std::int64_t* rows, std::int64_t num_rows,
               const DeltaEngine& engine, Matrix* factor,
               const RowUpdateOptions& options, const RecordsOf& records_of) {
  if (factor->rows() != dim) {
    throw std::invalid_argument(
        "row update: factor row count does not match the tensor dimension");
  }
  if (order > DeltaEngine::kMaxOrder) {
    throw std::invalid_argument("row update: tensor order above " +
                                std::to_string(DeltaEngine::kMaxOrder));
  }
  std::vector<std::int64_t> distinct;
  if (rows != nullptr) {
    distinct.assign(rows, rows + num_rows);
    for (const std::int64_t row : distinct) {
      if (row < 0 || row >= dim) {
        throw std::invalid_argument("row update: row index out of range");
      }
    }
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
  }
  const std::int64_t n_rows =
      rows == nullptr ? dim : static_cast<std::int64_t>(distinct.size());
  const std::int64_t rank = factor->cols();

#pragma omp parallel
  {
    RowScratch scratch(rank);
    // schedule(runtime): dynamic under the paper's careful
    // distribution of work, static for the naive ablation.
#pragma omp for schedule(runtime)
    for (std::int64_t i = 0; i < n_rows; ++i) {
      const std::int64_t row =
          rows == nullptr ? i : distinct[static_cast<std::size_t>(i)];
      SolveRowFromRecords(records_of(row, &scratch), order, mode, row, engine,
                          options, &scratch, factor);
    }
  }
}

void CheckArguments(std::int64_t order, std::int64_t mode,
                    const Matrix* factor) {
  if (factor == nullptr) {
    throw std::invalid_argument("row update: factor must not be null");
  }
  if (mode < 0 || mode >= order) {
    throw std::invalid_argument("row update: mode out of range");
  }
}

}  // namespace

SliceOrderedOmega::SliceOrderedOmega(const SparseTensor& x, bool entry_ids)
    : entry_ids_(entry_ids), dims_(x.dims()) {
  CheckRecordSource(x);
  bytes_ = Bytes(dims_, x.nnz(), entry_ids);
  const std::int64_t order = x.order();
  const std::int64_t entries = x.nnz();
  const std::int64_t others = order - 1;
  modes_.resize(static_cast<std::size_t>(order));
  // Every buffer is allocated here, on the calling thread: allocations
  // inside the parallel fill would land in per-thread malloc arenas.
  for (std::int64_t n = 0; n < order; ++n) {
    ModeRecords& records = modes_[static_cast<std::size_t>(n)];
    records.offsets.reset(new std::int64_t[x.dim(n) + 1]);
    records.coords.reset(new std::int32_t[entries * others]);
    records.values.reset(new double[entries]);
    if (entry_ids) records.ids.reset(new std::int32_t[entries]);
  }
#pragma omp parallel for schedule(dynamic, 1)
  for (std::int64_t n = 0; n < order; ++n) {
    ModeRecords& records = modes_[static_cast<std::size_t>(n)];
    std::int64_t* offsets = records.offsets.get();
    // offsets[i + 1] starts at slice i's first slot and is its fill
    // cursor, so it ends at slice i's end.
    std::int64_t begin = 0;
    offsets[0] = 0;
    for (std::int64_t i = 0; i < x.dim(n); ++i) {
      offsets[i + 1] = begin;
      begin += x.SliceSize(n, i);
    }
    // One stable scatter in entry order: ascending entry id per slice.
    for (std::int64_t e = 0; e < entries; ++e) {
      const std::int64_t* index = x.index(e);
      const std::int64_t slot = offsets[index[n] + 1]++;
      std::int32_t* coords = records.coords.get() + slot * others;
      for (std::int64_t m = 0; m < n; ++m) {
        coords[m] = static_cast<std::int32_t>(index[m]);
      }
      for (std::int64_t m = n + 1; m < order; ++m) {
        coords[m - 1] = static_cast<std::int32_t>(index[m]);
      }
      records.values[slot] = x.value(e);
      if (entry_ids) records.ids[slot] = static_cast<std::int32_t>(e);
    }
  }
}

std::int64_t SliceOrderedOmega::Bytes(const std::vector<std::int64_t>& dims,
                                      std::int64_t nnz, bool entry_ids) {
  CheckRecordLimits(dims, nnz);
  const std::int64_t order = static_cast<std::int64_t>(dims.size());
  const std::int64_t record_bytes =
      static_cast<std::int64_t>(sizeof(std::int32_t)) * (order - 1) +
      static_cast<std::int64_t>(sizeof(double)) +
      (entry_ids ? static_cast<std::int64_t>(sizeof(std::int32_t)) : 0);
  std::int64_t bytes = order * nnz * record_bytes;
  for (const std::int64_t dim : dims) {
    bytes += static_cast<std::int64_t>(sizeof(std::int64_t)) * (dim + 1);
  }
  return bytes;
}

SliceRecords SliceOrderedOmega::Slice(std::int64_t mode,
                                      std::int64_t i) const {
  const ModeRecords& records = modes_[static_cast<std::size_t>(mode)];
  const std::int64_t begin = records.offsets[i];
  SliceRecords slice;
  slice.coords = records.coords.get() + begin * (order() - 1);
  slice.values = records.values.get() + begin;
  slice.entry_ids = entry_ids_ ? records.ids.get() + begin : nullptr;
  slice.count = records.offsets[i + 1] - begin;
  return slice;
}

void UpdateFactorRows(const SliceOrderedOmega& omega, std::int64_t mode,
                      const std::int64_t* rows, std::int64_t num_rows,
                      const DeltaEngine& engine, Matrix* factor,
                      const RowUpdateOptions& options) {
  CheckArguments(omega.order(), mode, factor);
  if (engine.UsesEntryIds() && !omega.has_entry_ids()) {
    throw std::invalid_argument(
        "row update: the engine keys state by entry id, but the layout "
        "has no entry-id column");
  }
  SweepRows(omega.order(), omega.dim(mode), mode, rows, num_rows, engine,
            factor, options, [&](std::int64_t row, RowScratch* /*scratch*/) {
              return omega.Slice(mode, row);
            });
}

void UpdateFactorRows(const SparseTensor& x, std::int64_t mode,
                      const std::int64_t* rows, std::int64_t num_rows,
                      const DeltaEngine& engine, Matrix* factor,
                      const RowUpdateOptions& options) {
  CheckArguments(x.order(), mode, factor);
  CheckRecordSource(x);
  const bool entry_ids = engine.UsesEntryIds();
  const std::int64_t others = x.order() - 1;
  // Copies the row's records into the thread's scratch, in slice order.
  const auto gather = [&](std::int64_t row, RowScratch* s) {
    const auto slice = x.Slice(mode, row);
    const std::size_t count = slice.size();
    s->coords.resize(count * static_cast<std::size_t>(others));
    s->values.resize(count);
    if (entry_ids) s->ids.resize(count);
    for (std::size_t r = 0; r < count; ++r) {
      const std::int64_t entry = slice[r];
      const std::int64_t* index = x.index(entry);
      std::int32_t* coords =
          s->coords.data() + static_cast<std::int64_t>(r) * others;
      for (std::int64_t m = 0; m < mode; ++m) {
        coords[m] = static_cast<std::int32_t>(index[m]);
      }
      for (std::int64_t m = mode + 1; m < x.order(); ++m) {
        coords[m - 1] = static_cast<std::int32_t>(index[m]);
      }
      s->values[r] = x.value(entry);
      if (entry_ids) s->ids[r] = static_cast<std::int32_t>(entry);
    }
    SliceRecords records;
    records.coords = s->coords.data();
    records.values = s->values.data();
    records.entry_ids = entry_ids ? s->ids.data() : nullptr;
    records.count = static_cast<std::int64_t>(count);
    return records;
  };
  SweepRows(x.order(), x.dim(mode), mode, rows, num_rows, engine, factor,
            options, gather);
}

}  // namespace ptucker

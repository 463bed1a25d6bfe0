#include "core/row_update.h"

#include <algorithm>
#include <limits>
#include <numeric>
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

// Per-thread intermediate data (Fig. 4): B and c, and one chunk of kept
// records staged for DeltaBatch: a pointer to each record's int64
// coordinates (into `index` when they had to be widened), entry ids or
// −1, values and δ.
struct RowScratch {
  RowScratch(std::int64_t rank, std::int64_t order)
      : b(rank, rank),
        c(static_cast<std::size_t>(rank)),
        index(static_cast<std::size_t>(DeltaEngine::kDeltaChunk * order)),
        indices(static_cast<std::size_t>(DeltaEngine::kDeltaChunk)),
        entries(static_cast<std::size_t>(DeltaEngine::kDeltaChunk)),
        values(static_cast<std::size_t>(DeltaEngine::kDeltaChunk)),
        deltas(static_cast<std::size_t>(DeltaEngine::kDeltaChunk * rank)) {}

  // Bytes the constructor allocates for `rank` and `order`.
  static std::int64_t Bytes(std::int64_t rank, std::int64_t order) {
    const std::int64_t chunk = DeltaEngine::kDeltaChunk;
    return static_cast<std::int64_t>(
        sizeof(b(0, 0)) * rank * rank + sizeof(c[0]) * rank +
        sizeof(index[0]) * chunk * order + sizeof(indices[0]) * chunk +
        sizeof(entries[0]) * chunk + sizeof(values[0]) * chunk +
        sizeof(deltas[0]) * chunk * rank);
  }

  Matrix b;
  std::vector<double> c;
  std::vector<std::int64_t> index;
  std::vector<const std::int64_t*> indices;
  std::vector<std::int64_t> entries;
  std::vector<double> values;
  std::vector<double> deltas;
};

// A row's records as the kernel reads them: their count and, for record
// r, its full int64 coordinates, its entry id (or −1) and its value.
// Index(r, buffer) returns the coordinates, widened into the order-long
// `buffer` when the source does not hold them as int64.

// The SliceOrderedOmega route: the slice's int32 records, widened.
struct LayoutRecords {
  SliceRecords slice;
  std::int64_t order;
  std::int64_t mode;
  std::int64_t row;

  std::int64_t count() const { return slice.count; }
  const std::int64_t* Index(std::int64_t r, std::int64_t* buffer) const {
    const std::int32_t* coords = slice.coords + r * (order - 1);
    for (std::int64_t m = 0; m < mode; ++m) buffer[m] = coords[m];
    buffer[mode] = row;
    for (std::int64_t m = mode + 1; m < order; ++m) buffer[m] = coords[m - 1];
    return buffer;
  }
  std::int64_t Entry(std::int64_t r) const {
    return slice.entry_ids != nullptr ? slice.entry_ids[r] : -1;
  }
  double Value(std::int64_t r) const { return slice.values[r]; }
};

// The SparseTensor route: the slice's entries, their coordinates read in
// place from the tensor. Outside mode 0 they lie scattered over the
// tensor, so Index prefetches them while the chunk is staged and
// DeltaBatch finds them in cache.
struct TensorRecords {
  const SparseTensor* x;
  Span<const std::int64_t> slice;
  bool entry_ids;

  std::int64_t count() const { return static_cast<std::int64_t>(slice.size()); }
  const std::int64_t* Index(std::int64_t r, std::int64_t* /*buffer*/) const {
    const std::int64_t* index = x->index(slice[static_cast<std::size_t>(r)]);
    __builtin_prefetch(index);
    return index;
  }
  std::int64_t Entry(std::int64_t r) const {
    return entry_ids ? slice[static_cast<std::size_t>(r)] : -1;
  }
  double Value(std::int64_t r) const {
    return x->value(slice[static_cast<std::size_t>(r)]);
  }
};

// Eqs. 10-11 over `count` records: B += δδᵀ and c += x·δ, record by
// record, δ of record r at deltas[r·J ..] and x at values[r]. Every
// element of B and c gets the additions SymmetricRank1Update (which skips
// row i when δ[i] == 0) and Axpy would give it, in the same order, so
// the bits are theirs. kRank > 0 fixes J at compile time and keeps B and
// c in locals across the records; kRank = 0 calls those two routines.
template <int kRank>
void FoldRecords(std::int64_t count, const double* deltas,
                 const double* values, Matrix* b_matrix, double* c_out) {
  if constexpr (kRank == 0) {
    const std::int64_t rank = b_matrix->cols();
    for (std::int64_t r = 0; r < count; ++r) {
      SymmetricRank1Update(*b_matrix, deltas + r * rank);
      Axpy(values[r], deltas + r * rank, c_out, rank);
    }
  } else {
    double* b_out = b_matrix->data();
    double b[kRank * kRank];
    double c[kRank];
    std::copy(b_out, b_out + kRank * kRank, b);
    std::copy(c_out, c_out + kRank, c);
    for (std::int64_t r = 0; r < count; ++r) {
      const double* delta = deltas + r * kRank;
      for (int i = 0; i < kRank; ++i) {
        const double scale = delta[i];
        if (scale == 0.0) continue;
        for (int k = 0; k < kRank; ++k) b[i * kRank + k] += scale * delta[k];
      }
      const double x = values[r];
      for (int k = 0; k < kRank; ++k) c[k] += x * delta[k];
    }
    std::copy(b, b + kRank * kRank, b_out);
    std::copy(c, c + kRank, c_out);
  }
}

// FoldRecords with its rank dispatched from the matrix.
void FoldRecords(std::int64_t count, const double* deltas,
                 const double* values, Matrix* b, double* c) {
  switch (b->cols()) {
    case 1: FoldRecords<1>(count, deltas, values, b, c); break;
    case 2: FoldRecords<2>(count, deltas, values, b, c); break;
    case 3: FoldRecords<3>(count, deltas, values, b, c); break;
    case 4: FoldRecords<4>(count, deltas, values, b, c); break;
    case 5: FoldRecords<5>(count, deltas, values, b, c); break;
    case 6: FoldRecords<6>(count, deltas, values, b, c); break;
    case 7: FoldRecords<7>(count, deltas, values, b, c); break;
    case 8: FoldRecords<8>(count, deltas, values, b, c); break;
    default: FoldRecords<0>(count, deltas, values, b, c); break;
  }
}

// Eqs. 9-11 for row `row` of `mode` over its slice `records`, in record
// order. With subsampling each record is kept with probability
// sample_rate, drawn from the row's own stream, and a row that keeps none
// is anchored to its first record. Kept records are staged
// DeltaEngine::kDeltaChunk at a time: one DeltaBatch call computes their
// δ, then FoldRecords adds them to B and c.
template <typename Records>
void SolveRowFromRecords(const Records& records, std::int64_t order,
                         std::int64_t mode, std::int64_t row,
                         const DeltaEngine& engine,
                         const RowUpdateOptions& options, RowScratch* s,
                         Matrix* factor) {
  const std::int64_t rank = factor->cols();
  double* out = factor->Row(row);
  const std::int64_t count = records.count();
  if (count == 0) {
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
  std::int64_t staged = 0;
  // δ of the staged records, then Eqs. 10 and 11.
  const auto flush = [&] {
    engine.DeltaBatch(staged, s->entries.data(), s->indices.data(), mode,
                      s->deltas.data());
    FoldRecords(staged, s->deltas.data(), s->values.data(), &s->b,
                s->c.data());
    staged = 0;
  };
  const auto stage = [&](std::int64_t r) {
    const std::size_t slot = static_cast<std::size_t>(staged);
    s->indices[slot] = records.Index(r, s->index.data() + staged * order);
    s->entries[slot] = records.Entry(r);
    s->values[slot] = records.Value(r);
    if (++staged == DeltaEngine::kDeltaChunk) flush();
  };
  std::int64_t used = 0;
  for (std::int64_t r = 0; r < count; ++r) {
    if (subsample && sampler.Uniform() >= options.sample_rate) continue;
    ++used;
    stage(r);
  }
  if (subsample && used == 0) {
    // Keep every observed row anchored to at least one entry.
    stage(0);
  }
  if (staged > 0) flush();
  for (std::int64_t j = 0; j < rank; ++j) s->b(j, j) += options.lambda;
  SolveRow(s->b, s->c.data(), out, rank);  // Eq. 9
}

// True when the runtime schedule is static: the naive split of
// Scheduling::kStatic.
bool RuntimeScheduleIsStatic() {
  omp_sched_t kind;
  int chunk;
  omp_get_schedule(&kind, &chunk);
  return (static_cast<unsigned>(kind) &
          ~static_cast<unsigned>(omp_sched_monotonic)) ==
         static_cast<unsigned>(omp_sched_static);
}

// Splits the n_rows rows to solve into blocks of consecutive rows and
// returns the block boundaries: block b is rows [starts[b], starts[b+1]).
// A block closes once it holds at least min(4·kDeltaChunk, ⌈R/(8T)⌉)
// records, R the records of all n_rows rows and T the thread count, so a
// heavy row forms a block of its own and even a small subset gives every
// thread about 8 blocks. Under a static runtime schedule every block is
// one row, so static scheduling stays the naive split of rows.
template <typename CountOf>
std::vector<std::int64_t> RowBlocks(std::int64_t n_rows,
                                    const CountOf& count_of) {
  if (RuntimeScheduleIsStatic()) {
    std::vector<std::int64_t> starts(static_cast<std::size_t>(n_rows + 1));
    std::iota(starts.begin(), starts.end(), std::int64_t{0});
    return starts;
  }
  std::int64_t records = 0;
  for (std::int64_t i = 0; i < n_rows; ++i) records += count_of(i);
  const std::int64_t parts = 8 * std::int64_t{omp_get_max_threads()};
  const std::int64_t target = std::min<std::int64_t>(
      4 * DeltaEngine::kDeltaChunk, (records + parts - 1) / parts);
  std::vector<std::int64_t> starts = {0};
  std::int64_t held = 0;
  for (std::int64_t i = 0; i < n_rows; ++i) {
    held += count_of(i);
    if (held >= target || i + 1 == n_rows) {
      starts.push_back(i + 1);
      held = 0;
    }
  }
  return starts;
}

// Both routes' shared half: validates the factor and the rows, then runs
// the kernel over every row of `mode` (rows == nullptr) or each distinct
// listed row once, with `records_of(row)` giving each row's records. The
// threads take RowBlocks' blocks under the runtime schedule; rows are
// independent (Lemma 1), so the bits do not depend on the blocks. Solving
// a row twice would let two threads write it at once.
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
    if (num_rows < 0) {
      throw std::invalid_argument("row update: num_rows is negative (" +
                                  std::to_string(num_rows) + ")");
    }
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
  const auto row_at = [&](std::int64_t i) {
    return rows == nullptr ? i : distinct[static_cast<std::size_t>(i)];
  };
  const std::vector<std::int64_t> starts = RowBlocks(
      n_rows, [&](std::int64_t i) { return records_of(row_at(i)).count(); });
  const std::int64_t n_blocks = static_cast<std::int64_t>(starts.size()) - 1;

#pragma omp parallel
  {
    RowScratch scratch(rank, order);
    // schedule(runtime): dynamic under the paper's careful
    // distribution of work, static for the naive ablation.
#pragma omp for schedule(runtime)
    for (std::int64_t block = 0; block < n_blocks; ++block) {
      for (std::int64_t i = starts[static_cast<std::size_t>(block)];
           i < starts[static_cast<std::size_t>(block + 1)]; ++i) {
        const std::int64_t row = row_at(i);
        SolveRowFromRecords(records_of(row), order, mode, row, engine,
                            options, &scratch, factor);
      }
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

std::int64_t RowUpdateScratchBytes(int threads, std::int64_t order,
                                   std::int64_t max_rank) {
  return static_cast<std::int64_t>(threads) *
         RowScratch::Bytes(max_rank, order);
}

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
            factor, options, [&](std::int64_t row) {
              return LayoutRecords{omega.Slice(mode, row), omega.order(),
                                   mode, row};
            });
}

void UpdateFactorRows(const SparseTensor& x, std::int64_t mode,
                      const std::int64_t* rows, std::int64_t num_rows,
                      const DeltaEngine& engine, Matrix* factor,
                      const RowUpdateOptions& options) {
  CheckArguments(x.order(), mode, factor);
  CheckRecordSource(x);
  const bool entry_ids = engine.UsesEntryIds();
  SweepRows(x.order(), x.dim(mode), mode, rows, num_rows, engine, factor,
            options, [&](std::int64_t row) {
              return TensorRecords{&x, x.Slice(mode, row), entry_ids};
            });
}

}  // namespace ptucker

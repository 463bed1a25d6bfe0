/// \file
/// \brief The §III-C Pres table of P-TUCKER-CACHE: memoized per-(observed
/// entry, core entry) products giving O(1) δ per pair, behind
/// CachedDeltaEngine.
#ifndef PTUCKER_CORE_CACHE_TABLE_H_
#define PTUCKER_CORE_CACHE_TABLE_H_

#include <cstdint>
#include <vector>

#include "core/delta.h"
#include "linalg/factor_view.h"
#include "linalg/matrix.h"
#include "tensor/sparse_tensor.h"
#include "util/memory_tracker.h"

namespace ptucker {

/// The Pres table of P-TUCKER-CACHE (Algorithm 3 lines 1-4 and 16-19):
/// Pres[α][β] = G_β · Π_{k=1..N} A(k)(ik, jk) for every observed entry α
/// and nonzero core entry β.
///
/// With the full product cached, δ(jn) is recovered by dividing out the
/// mode-n coefficient: δ(jn) += Pres[α][β] / A(n)(in, jn) — O(1) per pair
/// instead of O(N). When that coefficient is zero the product is recomputed
/// directly, exactly as the paper specifies. After mode n's rows change,
/// the table is rescaled by a_new/a_old (same zero fallback).
///
/// Memory is Θ(|Ω|·|G|) doubles — the time-for-memory trade of §III-C —
/// and is charged to the tracker for the table's lifetime.
class CacheTable {
 public:
  /// Charges |Ω|·|G| doubles to `tracker` (throws OutOfMemoryBudget if
  /// over budget) and fills the table in parallel. Owning factors pass
  /// MakeFactorViews() here and below.
  CacheTable(const SparseTensor& x, const CoreEntryList& core,
             const std::vector<FactorView>& factors, MemoryTracker* tracker);
  /// Releases the charged bytes.
  ~CacheTable();

  CacheTable(const CacheTable&) = delete;             ///< non-copyable
  CacheTable& operator=(const CacheTable&) = delete;  ///< non-copyable

  /// Number of observed entries |Ω| the table spans.
  std::int64_t num_entries() const { return num_entries_; }
  /// Number of nonzero core entries |G| per row.
  std::int64_t num_core() const { return num_core_; }

  /// The cached products Pres[entry][0..num_core()) of one observed entry.
  const double* Row(std::int64_t entry) const {
    return table_.data() + static_cast<std::size_t>(entry * num_core_);
  }

  /// Computes δ for observed entry `entry` (coordinates `entry_index`)
  /// using the cached products. `delta` holds Jn doubles.
  void ComputeDeltaCached(const CoreEntryList& core,
                          const std::vector<FactorView>& factors,
                          std::int64_t entry, const std::int64_t* entry_index,
                          std::int64_t mode, double* delta) const;

  /// Rescales the table after mode `mode`'s factor changed from
  /// `old_factor` to `new_factor` (Algorithm 3 lines 16-19).
  void UpdateAfterMode(const SparseTensor& x, const CoreEntryList& core,
                       const std::vector<FactorView>& factors,
                       std::int64_t mode, const Matrix& old_factor);

  /// Bytes held by the table (the Θ(|Ω|·|G|) trade of §III-C).
  std::int64_t ByteSize() const {
    return static_cast<std::int64_t>(table_.size() * sizeof(double));
  }

 private:
  /// Recomputes Pres[entry][b] = G_b Π_k A(k)(ik, jk) from scratch.
  double RecomputeProduct(const CoreEntryList& core,
                          const std::vector<FactorView>& factors,
                          const std::int64_t* entry_index,
                          std::int64_t b) const;

  std::int64_t num_entries_;
  std::int64_t num_core_;
  std::vector<double> table_;  // num_entries x num_core, row-major
  MemoryTracker* tracker_;
  std::int64_t charged_bytes_ = 0;
};

}  // namespace ptucker

#endif  // PTUCKER_CORE_CACHE_TABLE_H_

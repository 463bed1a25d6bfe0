/// \file
/// \brief Snapshot format v2: the mmap-able model plane. Sections are
/// 64-byte-aligned and little-endian, so a loaded snapshot *is* the file
/// — MmapSnapshot maps it read-only and hands out FactorViews / core
/// spans pointing straight into the mapping, zero factor copies. An
/// optional section carries per-mode IVF coarse centroids + inverted
/// lists for sublinear top-K. A failed mapping falls back to a heap
/// buffer behind the same interface. Format spec: docs/serving.md.
#ifndef PTUCKER_SERVE_SNAPSHOT_V2_H_
#define PTUCKER_SERVE_SNAPSHOT_V2_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analytics/ivf.h"
#include "core/ptucker.h"
#include "linalg/factor_view.h"
#include "util/span.h"

namespace ptucker {

/// Format version written by SerializeSnapshotV2 and the only one
/// MmapSnapshot::Open accepts.
inline constexpr std::uint32_t kSnapshotVersion2 = 2;

/// Alignment of every v2 section (header, meta, factors, core, IVF);
/// gaps are zero-padded and covered by the payload CRC.
inline constexpr std::int64_t kSnapshotV2Alignment = 64;

/// Serializes `model` into the v2 format. `ivf` optionally supplies one
/// IvfIndex per mode (entries with k == 0 are skipped); pass nullptr for
/// no centroid section. Throws std::invalid_argument, naming the value's
/// place (NonFiniteValuePlace), when a factor or core value is NaN or
/// Inf.
std::string SerializeSnapshotV2(const TuckerFactorization& model,
                                const std::vector<IvfIndex>* ivf);

/// The place of the first NaN or Inf value of `model`, factors first:
/// "factor n row i column j" or "core entry (j1, …, jN)", all 0-based.
/// Empty when every value is finite.
std::string NonFiniteValuePlace(const TuckerFactorization& model);

/// Writes `model` to `path` in v2. When `with_centroids` is set, builds
/// the per-mode IVF indexes (BuildIvfRows defaults: √I clusters, modes
/// under 64 rows skipped) and embeds them.
void SaveSnapshotV2(const std::string& path, const TuckerFactorization& model,
                    bool with_centroids);

/// A v2 snapshot opened in place. Prefers `mmap` + `madvise(WILLNEED)`;
/// when mapping fails (or on platforms without it) the file is read into
/// an aligned heap buffer — both paths yield the same views. Structural
/// validation (magic, version, meta CRC, section alignment and extents,
/// core index ranges, IVF list boundaries) always runs and never touches
/// the factor payload; `verify_payload` additionally checks the payload
/// CRC, reading every page.
///
/// All views and spans point into the mapped (or heap) region and die
/// with the object; parse failures throw std::runtime_error naming the
/// file and the offending section.
class MmapSnapshot {
 public:
  /// Opens and validates `path`. Throws std::runtime_error on open/parse
  /// failure (message includes the path and section).
  static std::unique_ptr<MmapSnapshot> Open(const std::string& path,
                                            bool verify_payload = false);

  ~MmapSnapshot();

  MmapSnapshot(const MmapSnapshot&) = delete;             ///< non-copyable
  MmapSnapshot& operator=(const MmapSnapshot&) = delete;  ///< non-copyable

  /// Tensor order N.
  std::int64_t order() const {
    return static_cast<std::int64_t>(dims_.size());
  }
  /// Factor row counts I_n.
  const std::vector<std::int64_t>& dims() const { return dims_; }
  /// Core dimensionalities J_n.
  const std::vector<std::int64_t>& ranks() const { return ranks_; }

  /// Zero-copy views of the factor matrices, in mode order.
  const std::vector<FactorView>& factors() const { return factors_; }

  /// Number of nonzero core entries.
  std::int64_t core_nnz() const {
    return static_cast<std::int64_t>(core_values_.size());
  }
  /// Entry-major COO core indices (core_nnz × order).
  Span<const std::int32_t> core_indices() const { return core_indices_; }
  /// COO core values (core_nnz).
  Span<const double> core_values() const { return core_values_; }

  /// The IVF section of `mode`, or nullptr when the snapshot carries
  /// none for it.
  const IvfModeView* ivf(std::int64_t mode) const {
    const IvfModeView& view = ivf_[static_cast<std::size_t>(mode)];
    return view.k > 0 ? &view : nullptr;
  }

  /// True when backed by a live mmap (false = heap fallback).
  bool mapped() const { return map_ != nullptr; }

 private:
  MmapSnapshot() = default;

  /// Points base_/size_ at an aligned heap copy of `bytes`.
  void AdoptHeapBuffer(const std::string& bytes);
  /// Validates the v2 layout and builds every view over base_.
  void ParseV2(const std::string& path, bool verify_payload);

  void* map_ = nullptr;         // live mapping, or nullptr
  std::size_t map_size_ = 0;    // mapping length (for munmap)
  std::vector<char> heap_;      // fallback storage (over-allocated to align)
  const char* base_ = nullptr;  // start of the snapshot bytes
  std::size_t size_ = 0;        // snapshot byte count

  std::vector<std::int64_t> dims_;
  std::vector<std::int64_t> ranks_;
  std::vector<FactorView> factors_;
  Span<const std::int32_t> core_indices_;
  Span<const double> core_values_;
  std::vector<IvfModeView> ivf_;
};

/// Materializes an owning TuckerFactorization from an opened snapshot
/// (the v2 → warm-start bridge; factor and core bits are copied).
TuckerFactorization MaterializeModel(const MmapSnapshot& snapshot);

}  // namespace ptucker

#endif  // PTUCKER_SERVE_SNAPSHOT_V2_H_

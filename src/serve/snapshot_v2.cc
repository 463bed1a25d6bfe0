#include "serve/snapshot_v2.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "serve/snapshot.h"
#include "tensor/dense_tensor.h"
#include "util/logging.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define PTUCKER_HAVE_MMAP 1
#else
#define PTUCKER_HAVE_MMAP 0
#endif

namespace ptucker {

namespace {

// v2 layout (all integers little-endian; every section 64-byte-aligned
// with zero padding between, so factor data can be viewed in place with
// naturally-aligned doubles):
//
//   [0,4)    magic "PTKS"
//   [4,8)    u32 format version (2)
//   [8,12)   u32 CRC-32 (IEEE) of [meta_offset, payload_offset) — the
//            meta section plus its trailing padding, so no byte between
//            the header and the payload escapes both CRCs
//   [12,16)  u32 CRC-32 (IEEE) of the payload [payload_offset, file_bytes)
//   [16,24)  u64 file byte count
//   [24,32)  u64 meta offset (= 64)
//   [32,40)  u64 meta byte count
//   [40,48)  u64 payload offset (64-aligned)
//   [48,56)  u64 flags (bit 0 = IVF centroid sections present)
//   [56,64)  u64 reserved (must be 0; rejected otherwise so a future
//            writer can repurpose it without old readers misloading)
//
// meta (i64 sequence):
//   order, dims[N], ranks[N], core_nnz,
//   factor_offset[N], core_indices_offset, core_values_offset,
//   flags bit 0 set: per mode { k, centroids_offset, csr_offsets_offset,
//   ids_offset } (k = 0 marks a mode without an index; its offsets are 0)
//
// payload sections, in file order (offsets are absolute):
//   factor n        f64 × dims[n]·ranks[n]   row-major
//   core indices    i32 × core_nnz·N         entry-major
//   core values     f64 × core_nnz
//   per indexed mode: centroids f64 × k·ranks[n], csr offsets i64 × (k+1),
//   member ids i32 × dims[n]
constexpr char kMagic[4] = {'P', 'T', 'K', 'S'};
constexpr std::size_t kHeaderBytes = 64;
constexpr std::int64_t kMaxSnapshotOrder = 64;
constexpr std::int64_t kMaxCoreElements = std::int64_t{1} << 31;
constexpr std::uint64_t kFlagIvf = 1;

std::int64_t Align64(std::int64_t offset) {
  return (offset + (kSnapshotV2Alignment - 1)) &
         ~(kSnapshotV2Alignment - 1);
}

[[noreturn]] void ThrowFormat(const std::string& source,
                              const std::string& section,
                              const std::string& detail) {
  throw std::runtime_error("snapshot parse error: " + detail + " (file " +
                           source + ", section " + section + ")");
}

void PutRaw(std::string* out, std::int64_t offset, const void* data,
            std::size_t bytes) {
  std::memcpy(&(*out)[static_cast<std::size_t>(offset)], data, bytes);
}

// Bounds-checked i64 reader over the meta section.
class MetaReader {
 public:
  MetaReader(const char* data, std::size_t size, const std::string& source)
      : data_(data), size_(size), source_(&source) {}

  std::int64_t ReadI64(const char* section) {
    if (sizeof(std::int64_t) > size_ - pos_) {
      ThrowFormat(*source_, section, "meta section truncated");
    }
    std::int64_t value = 0;
    std::memcpy(&value, data_ + pos_, sizeof(value));
    pos_ += sizeof(value);
    return value;
  }

  std::size_t remaining() const { return size_ - pos_; }

 private:
  const char* data_;
  std::size_t size_;
  const std::string* source_;
  std::size_t pos_ = 0;
};

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("snapshot: cannot open file: " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) throw std::runtime_error("snapshot: read failed: " + path);
  return bytes;
}

}  // namespace

std::string SerializeSnapshotV2(const TuckerFactorization& model,
                                const std::vector<IvfIndex>* ivf) {
  const std::int64_t order = model.core.order();
  if (order < 1 || order > kMaxSnapshotOrder) {
    throw std::runtime_error("snapshot: model order must be in [1, 64]");
  }
  if (static_cast<std::int64_t>(model.factors.size()) != order) {
    throw std::runtime_error(
        "snapshot: factor count does not match core order");
  }
  for (std::int64_t n = 0; n < order; ++n) {
    const Matrix& factor = model.factors[static_cast<std::size_t>(n)];
    if (factor.rows() < 1 || factor.cols() != model.core.dim(n)) {
      throw std::runtime_error(
          "snapshot: factor " + std::to_string(n) +
          " shape does not match the core (" + std::to_string(factor.rows()) +
          "x" + std::to_string(factor.cols()) + " vs rank " +
          std::to_string(model.core.dim(n)) + ")");
    }
  }
  if (ivf != nullptr &&
      static_cast<std::int64_t>(ivf->size()) != order) {
    throw std::runtime_error("snapshot: IVF index count does not match order");
  }
  const std::string non_finite = NonFiniteValuePlace(model);
  if (!non_finite.empty()) {
    throw std::invalid_argument("snapshot: refusing to serialize the "
                                "non-finite value at " + non_finite);
  }

  // VeST-compact core: nonzeros only, in linear (mode-0-fastest) order
  // so serialization is deterministic.
  std::vector<std::int32_t> core_indices;
  std::vector<double> core_values;
  std::vector<std::int64_t> index(static_cast<std::size_t>(order));
  for (std::int64_t linear = 0; linear < model.core.size(); ++linear) {
    if (model.core[linear] == 0.0) continue;
    model.core.IndexOf(linear, index.data());
    for (std::int64_t k = 0; k < order; ++k) {
      core_indices.push_back(static_cast<std::int32_t>(
          index[static_cast<std::size_t>(k)]));
    }
    core_values.push_back(model.core[linear]);
  }
  const std::int64_t core_nnz =
      static_cast<std::int64_t>(core_values.size());

  const bool with_ivf = ivf != nullptr;
  // Meta i64 count: order + dims + ranks + core_nnz + factor offsets +
  // two core offsets (+ 4 per mode for the IVF tuples).
  const std::int64_t meta_count =
      1 + 3 * order + 3 + (with_ivf ? 4 * order : 0);
  const std::int64_t meta_bytes =
      meta_count * static_cast<std::int64_t>(sizeof(std::int64_t));
  const std::int64_t payload_offset =
      Align64(static_cast<std::int64_t>(kHeaderBytes) + meta_bytes);

  // Lay the sections out.
  std::vector<std::int64_t> factor_offsets(static_cast<std::size_t>(order));
  std::int64_t cursor = payload_offset;
  for (std::int64_t n = 0; n < order; ++n) {
    factor_offsets[static_cast<std::size_t>(n)] = cursor;
    cursor = Align64(cursor +
                     model.factors[static_cast<std::size_t>(n)].size() *
                         static_cast<std::int64_t>(sizeof(double)));
  }
  const std::int64_t core_indices_offset = cursor;
  cursor = Align64(cursor + static_cast<std::int64_t>(core_indices.size() *
                                                      sizeof(std::int32_t)));
  const std::int64_t core_values_offset = cursor;
  cursor = Align64(cursor + core_nnz *
                                static_cast<std::int64_t>(sizeof(double)));
  struct IvfOffsets {
    std::int64_t k = 0;
    std::int64_t centroids = 0;
    std::int64_t csr = 0;
    std::int64_t ids = 0;
  };
  std::vector<IvfOffsets> ivf_offsets(static_cast<std::size_t>(order));
  if (with_ivf) {
    for (std::int64_t n = 0; n < order; ++n) {
      const IvfIndex& idx = (*ivf)[static_cast<std::size_t>(n)];
      if (idx.k <= 0) continue;
      const std::int64_t rows =
          model.factors[static_cast<std::size_t>(n)].rows();
      PTUCKER_CHECK(idx.centroids.rows() == idx.k &&
                    idx.centroids.cols() == model.core.dim(n));
      PTUCKER_CHECK(static_cast<std::int64_t>(idx.offsets.size()) ==
                    idx.k + 1);
      PTUCKER_CHECK(static_cast<std::int64_t>(idx.ids.size()) == rows);
      IvfOffsets& o = ivf_offsets[static_cast<std::size_t>(n)];
      o.k = idx.k;
      o.centroids = cursor;
      cursor = Align64(cursor + idx.centroids.size() *
                                    static_cast<std::int64_t>(sizeof(double)));
      o.csr = cursor;
      cursor = Align64(cursor +
                       (idx.k + 1) *
                           static_cast<std::int64_t>(sizeof(std::int64_t)));
      o.ids = cursor;
      cursor = Align64(cursor +
                       rows * static_cast<std::int64_t>(sizeof(std::int32_t)));
    }
  }
  const std::int64_t file_bytes = cursor;

  std::string out(static_cast<std::size_t>(file_bytes), '\0');

  // Meta section.
  std::vector<std::int64_t> meta;
  meta.reserve(static_cast<std::size_t>(meta_count));
  meta.push_back(order);
  for (std::int64_t n = 0; n < order; ++n) {
    meta.push_back(model.factors[static_cast<std::size_t>(n)].rows());
  }
  for (std::int64_t n = 0; n < order; ++n) {
    meta.push_back(model.core.dim(n));
  }
  meta.push_back(core_nnz);
  for (std::int64_t n = 0; n < order; ++n) {
    meta.push_back(factor_offsets[static_cast<std::size_t>(n)]);
  }
  meta.push_back(core_indices_offset);
  meta.push_back(core_values_offset);
  if (with_ivf) {
    for (std::int64_t n = 0; n < order; ++n) {
      const IvfOffsets& o = ivf_offsets[static_cast<std::size_t>(n)];
      meta.push_back(o.k);
      meta.push_back(o.centroids);
      meta.push_back(o.csr);
      meta.push_back(o.ids);
    }
  }
  PTUCKER_CHECK(static_cast<std::int64_t>(meta.size()) == meta_count);
  PutRaw(&out, static_cast<std::int64_t>(kHeaderBytes), meta.data(),
         meta.size() * sizeof(std::int64_t));

  // Payload sections.
  for (std::int64_t n = 0; n < order; ++n) {
    const Matrix& factor = model.factors[static_cast<std::size_t>(n)];
    PutRaw(&out, factor_offsets[static_cast<std::size_t>(n)], factor.data(),
           static_cast<std::size_t>(factor.size()) * sizeof(double));
  }
  PutRaw(&out, core_indices_offset, core_indices.data(),
         core_indices.size() * sizeof(std::int32_t));
  PutRaw(&out, core_values_offset, core_values.data(),
         core_values.size() * sizeof(double));
  if (with_ivf) {
    for (std::int64_t n = 0; n < order; ++n) {
      const IvfOffsets& o = ivf_offsets[static_cast<std::size_t>(n)];
      if (o.k <= 0) continue;
      const IvfIndex& idx = (*ivf)[static_cast<std::size_t>(n)];
      PutRaw(&out, o.centroids, idx.centroids.data(),
             static_cast<std::size_t>(idx.centroids.size()) * sizeof(double));
      PutRaw(&out, o.csr, idx.offsets.data(),
             idx.offsets.size() * sizeof(std::int64_t));
      PutRaw(&out, o.ids, idx.ids.data(),
             idx.ids.size() * sizeof(std::int32_t));
    }
  }

  // Header last, so both CRCs cover final bytes.
  const std::uint64_t flags = with_ivf ? kFlagIvf : 0;
  std::memcpy(&out[0], kMagic, sizeof(kMagic));
  const std::uint32_t version = kSnapshotVersion2;
  PutRaw(&out, 4, &version, sizeof(version));
  const std::uint32_t meta_crc =
      SnapshotCrc32(out.data() + kHeaderBytes,
                    static_cast<std::size_t>(payload_offset) - kHeaderBytes);
  PutRaw(&out, 8, &meta_crc, sizeof(meta_crc));
  const std::uint32_t payload_crc = SnapshotCrc32(
      out.data() + payload_offset,
      static_cast<std::size_t>(file_bytes - payload_offset));
  PutRaw(&out, 12, &payload_crc, sizeof(payload_crc));
  const std::uint64_t file_bytes_u = static_cast<std::uint64_t>(file_bytes);
  PutRaw(&out, 16, &file_bytes_u, sizeof(file_bytes_u));
  const std::uint64_t meta_offset_u = kHeaderBytes;
  PutRaw(&out, 24, &meta_offset_u, sizeof(meta_offset_u));
  const std::uint64_t meta_bytes_u = static_cast<std::uint64_t>(meta_bytes);
  PutRaw(&out, 32, &meta_bytes_u, sizeof(meta_bytes_u));
  const std::uint64_t payload_offset_u =
      static_cast<std::uint64_t>(payload_offset);
  PutRaw(&out, 40, &payload_offset_u, sizeof(payload_offset_u));
  PutRaw(&out, 48, &flags, sizeof(flags));
  return out;
}

std::string NonFiniteValuePlace(const TuckerFactorization& model) {
  for (std::size_t n = 0; n < model.factors.size(); ++n) {
    const Matrix& factor = model.factors[n];
    for (std::int64_t i = 0; i < factor.rows(); ++i) {
      for (std::int64_t j = 0; j < factor.cols(); ++j) {
        if (std::isfinite(factor(i, j))) continue;
        return "factor " + std::to_string(n) + " row " + std::to_string(i) +
               " column " + std::to_string(j);
      }
    }
  }
  const DenseTensor& core = model.core;
  std::vector<std::int64_t> index(static_cast<std::size_t>(core.order()));
  for (std::int64_t linear = 0; linear < core.size(); ++linear) {
    if (std::isfinite(core[linear])) continue;
    core.IndexOf(linear, index.data());
    std::string place = "core entry (";
    for (std::size_t k = 0; k < index.size(); ++k) {
      if (k > 0) place += ", ";
      place += std::to_string(index[k]);
    }
    return place + ")";
  }
  return "";
}

void SaveSnapshotV2(const std::string& path, const TuckerFactorization& model,
                    bool with_centroids) {
  std::string bytes;
  if (with_centroids) {
    std::vector<IvfIndex> ivf;
    ivf.reserve(model.factors.size());
    for (const Matrix& factor : model.factors) {
      ivf.push_back(BuildIvfRows(FactorView(factor), IvfBuildOptions{}));
    }
    bytes = SerializeSnapshotV2(model, &ivf);
  } else {
    bytes = SerializeSnapshotV2(model, nullptr);
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("snapshot: cannot open file for write: " + path);
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("snapshot: write failed: " + path);
}

MmapSnapshot::~MmapSnapshot() {
#if PTUCKER_HAVE_MMAP
  if (map_ != nullptr) ::munmap(map_, map_size_);
#endif
}

void MmapSnapshot::AdoptHeapBuffer(const std::string& bytes) {
  // Over-allocate so the buffer start can be aligned like an mmap-ed
  // region; in-file 64-byte section alignment then yields naturally
  // aligned doubles for the views.
  heap_.resize(bytes.size() + static_cast<std::size_t>(kSnapshotV2Alignment));
  auto address = reinterpret_cast<std::uintptr_t>(heap_.data());
  const std::uintptr_t aligned =
      (address + static_cast<std::uintptr_t>(kSnapshotV2Alignment - 1)) &
      ~static_cast<std::uintptr_t>(kSnapshotV2Alignment - 1);
  char* base = heap_.data() + (aligned - address);
  std::memcpy(base, bytes.data(), bytes.size());
  base_ = base;
  size_ = bytes.size();
}

std::unique_ptr<MmapSnapshot> MmapSnapshot::Open(const std::string& path,
                                                 bool verify_payload) {
  std::unique_ptr<MmapSnapshot> snapshot(new MmapSnapshot());

#if PTUCKER_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat st;
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      const auto size = static_cast<std::size_t>(st.st_size);
      void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
      if (map != MAP_FAILED) {
        ::madvise(map, size, MADV_WILLNEED);
        snapshot->map_ = map;
        snapshot->map_size_ = size;
        snapshot->base_ = static_cast<const char*>(map);
        snapshot->size_ = size;
      }
    }
    ::close(fd);
  }
#endif
  if (snapshot->base_ == nullptr) {
    // Graceful fallback: mapping unavailable or failed — read into an
    // aligned heap buffer behind the same views.
    snapshot->AdoptHeapBuffer(ReadWholeFile(path));
  }
  snapshot->ParseV2(path, verify_payload);
  return snapshot;
}

void MmapSnapshot::ParseV2(const std::string& path, bool verify_payload) {
  // Magic and version come first, so a file in another format version
  // is named as such even when it is shorter than a v2 header.
  if (size_ < 8) {
    ThrowFormat(path, "header", "file shorter than the header");
  }
  if (std::memcmp(base_, kMagic, sizeof(kMagic)) != 0) {
    ThrowFormat(path, "header", "bad magic (not a PTKS snapshot)");
  }
  std::uint32_t version = 0;
  std::memcpy(&version, base_ + 4, sizeof(version));
  if (version != kSnapshotVersion2) {
    ThrowFormat(path, "header",
                "unsupported snapshot version " + std::to_string(version) +
                    " (this library reads version 2)");
  }
  if (size_ < kHeaderBytes) {
    ThrowFormat(path, "header", "file shorter than the header");
  }
  std::uint32_t meta_crc = 0;
  std::uint32_t payload_crc = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t meta_offset = 0;
  std::uint64_t meta_bytes = 0;
  std::uint64_t payload_offset = 0;
  std::uint64_t flags = 0;
  std::uint64_t reserved = 0;
  std::memcpy(&meta_crc, base_ + 8, sizeof(meta_crc));
  std::memcpy(&payload_crc, base_ + 12, sizeof(payload_crc));
  std::memcpy(&file_bytes, base_ + 16, sizeof(file_bytes));
  std::memcpy(&meta_offset, base_ + 24, sizeof(meta_offset));
  std::memcpy(&meta_bytes, base_ + 32, sizeof(meta_bytes));
  std::memcpy(&payload_offset, base_ + 40, sizeof(payload_offset));
  std::memcpy(&flags, base_ + 48, sizeof(flags));
  std::memcpy(&reserved, base_ + 56, sizeof(reserved));

  if (file_bytes != size_) {
    ThrowFormat(path, "header",
                file_bytes > size_ ? "file truncated"
                                   : "trailing bytes after the snapshot");
  }
  if (meta_offset != kHeaderBytes) {
    ThrowFormat(path, "header", "meta section must follow the header");
  }
  if (meta_bytes < sizeof(std::int64_t) ||
      meta_bytes > size_ - kHeaderBytes) {
    ThrowFormat(path, "meta", "meta section out of bounds");
  }
  if (payload_offset % static_cast<std::uint64_t>(kSnapshotV2Alignment) !=
          0 ||
      payload_offset < kHeaderBytes + meta_bytes || payload_offset > size_) {
    ThrowFormat(path, "header", "payload offset out of bounds or unaligned");
  }
  if ((flags & ~kFlagIvf) != 0) {
    ThrowFormat(path, "header", "unsupported flags");
  }
  if (reserved != 0) {
    ThrowFormat(path, "header", "reserved header field is not zero");
  }
  // The meta CRC spans up to the payload so the meta→payload padding gap
  // cannot carry undetected flips.
  if (SnapshotCrc32(base_ + meta_offset,
                    static_cast<std::size_t>(payload_offset - meta_offset)) !=
      meta_crc) {
    ThrowFormat(path, "meta", "meta CRC mismatch (file is corrupt)");
  }
  if (verify_payload &&
      SnapshotCrc32(base_ + payload_offset,
                    static_cast<std::size_t>(size_ - payload_offset)) !=
          payload_crc) {
    ThrowFormat(path, "payload", "payload CRC mismatch (file is corrupt)");
  }

  MetaReader meta(base_ + meta_offset, static_cast<std::size_t>(meta_bytes),
                  path);
  const std::int64_t order = meta.ReadI64("meta");
  if (order < 1 || order > kMaxSnapshotOrder) {
    ThrowFormat(path, "meta",
                "order " + std::to_string(order) + " out of range");
  }
  dims_.resize(static_cast<std::size_t>(order));
  for (auto& d : dims_) {
    d = meta.ReadI64("meta");
    if (d < 1) ThrowFormat(path, "meta", "non-positive mode dimensionality");
  }
  ranks_.resize(static_cast<std::size_t>(order));
  std::int64_t core_size = 1;
  for (auto& r : ranks_) {
    r = meta.ReadI64("meta");
    if (r < 1) ThrowFormat(path, "meta", "non-positive core rank");
    if (core_size > kMaxCoreElements / r) {
      ThrowFormat(path, "meta", "core too large");
    }
    core_size *= r;
  }
  const std::int64_t core_nnz = meta.ReadI64("meta");
  if (core_nnz < 0 || core_nnz > core_size) {
    ThrowFormat(path, "meta",
                "core nnz " + std::to_string(core_nnz) + " out of range");
  }

  // Every section must be 64-aligned inside the payload and its extent
  // must fit the file; the element count is divided into the remaining
  // bytes so a hostile header cannot overflow count * element_size.
  const auto check_section = [&](std::int64_t offset, std::uint64_t count,
                                 std::uint64_t element_bytes,
                                 const std::string& section) {
    if (offset < static_cast<std::int64_t>(payload_offset) ||
        offset % kSnapshotV2Alignment != 0 ||
        static_cast<std::uint64_t>(offset) > size_) {
      ThrowFormat(path, section, "section offset out of bounds or unaligned");
    }
    if (count > (size_ - static_cast<std::uint64_t>(offset)) /
                    element_bytes) {
      ThrowFormat(path, section, "section extends past the end of the file");
    }
  };

  factors_.clear();
  factors_.reserve(static_cast<std::size_t>(order));
  for (std::int64_t n = 0; n < order; ++n) {
    const std::int64_t offset = meta.ReadI64("meta");
    const std::int64_t rows = dims_[static_cast<std::size_t>(n)];
    const std::int64_t cols = ranks_[static_cast<std::size_t>(n)];
    const std::string section = "factor " + std::to_string(n);
    // cols <= kMaxCoreElements, so cols * sizeof(double) cannot overflow.
    check_section(offset, static_cast<std::uint64_t>(rows),
                  static_cast<std::uint64_t>(cols) * sizeof(double), section);
    factors_.emplace_back(
        reinterpret_cast<const double*>(base_ + offset), rows, cols);
  }

  const std::int64_t indices_offset = meta.ReadI64("meta");
  check_section(indices_offset, static_cast<std::uint64_t>(core_nnz),
                static_cast<std::uint64_t>(order) * sizeof(std::int32_t),
                "core indices");
  core_indices_ = {reinterpret_cast<const std::int32_t*>(
                       base_ + indices_offset),
                   static_cast<std::size_t>(core_nnz * order)};
  const std::int64_t values_offset = meta.ReadI64("meta");
  check_section(values_offset, static_cast<std::uint64_t>(core_nnz),
                sizeof(double), "core values");
  core_values_ = {reinterpret_cast<const double*>(base_ + values_offset),
                  static_cast<std::size_t>(core_nnz)};

  // Core multi-indices feed engine kernels unchecked, so validate every
  // coordinate here (O(nnz·N); never touches the factor sections).
  for (std::int64_t e = 0; e < core_nnz; ++e) {
    for (std::int64_t k = 0; k < order; ++k) {
      const std::int32_t coord =
          core_indices_[static_cast<std::size_t>(e * order + k)];
      if (coord < 0 || coord >= ranks_[static_cast<std::size_t>(k)]) {
        ThrowFormat(path, "core indices",
                    "core index out of bounds in entry " + std::to_string(e));
      }
    }
  }

  ivf_.assign(static_cast<std::size_t>(order), IvfModeView{});
  if ((flags & kFlagIvf) != 0) {
    for (std::int64_t n = 0; n < order; ++n) {
      const std::string section = "ivf mode " + std::to_string(n);
      const std::int64_t k = meta.ReadI64("meta");
      const std::int64_t centroids_offset = meta.ReadI64("meta");
      const std::int64_t csr_offset = meta.ReadI64("meta");
      const std::int64_t ids_offset = meta.ReadI64("meta");
      if (k == 0) continue;
      const std::int64_t rows = dims_[static_cast<std::size_t>(n)];
      const std::int64_t rank = ranks_[static_cast<std::size_t>(n)];
      if (k < 0 || k > rows) {
        ThrowFormat(path, section, "cluster count out of range");
      }
      check_section(centroids_offset, static_cast<std::uint64_t>(k),
                    static_cast<std::uint64_t>(rank) * sizeof(double),
                    section + " centroids");
      check_section(csr_offset, static_cast<std::uint64_t>(k) + 1,
                    sizeof(std::int64_t), section + " offsets");
      check_section(ids_offset, static_cast<std::uint64_t>(rows),
                    sizeof(std::int32_t), section + " ids");
      IvfModeView& view = ivf_[static_cast<std::size_t>(n)];
      view.k = k;
      view.centroids = FactorView(
          reinterpret_cast<const double*>(base_ + centroids_offset), k, rank);
      view.offsets = {reinterpret_cast<const std::int64_t*>(base_ +
                                                            csr_offset),
                      static_cast<std::size_t>(k + 1)};
      view.ids = {reinterpret_cast<const std::int32_t*>(base_ + ids_offset),
                  static_cast<std::size_t>(rows)};
      // CSR boundaries are walked by the prober; reject broken ones now
      // (member ids themselves are range-checked at probe time, keeping
      // load cost independent of I_n).
      if (view.offsets[0] != 0 ||
          view.offsets[static_cast<std::size_t>(k)] != rows) {
        ThrowFormat(path, section + " offsets",
                    "cluster boundaries do not span the rows");
      }
      for (std::int64_t c = 0; c < k; ++c) {
        if (view.offsets[static_cast<std::size_t>(c)] >
            view.offsets[static_cast<std::size_t>(c) + 1]) {
          ThrowFormat(path, section + " offsets",
                      "cluster boundaries decrease");
        }
      }
    }
  }
  if (meta.remaining() != 0) {
    ThrowFormat(path, "meta", "trailing bytes inside the meta section");
  }
}

TuckerFactorization MaterializeModel(const MmapSnapshot& snapshot) {
  TuckerFactorization model;
  const std::int64_t order = snapshot.order();
  model.factors.reserve(static_cast<std::size_t>(order));
  for (const FactorView& view : snapshot.factors()) {
    Matrix factor(view.rows(), view.cols());
    std::memcpy(factor.data(), view.data(),
                static_cast<std::size_t>(view.size()) * sizeof(double));
    model.factors.push_back(std::move(factor));
  }
  model.core = DenseTensor(snapshot.ranks());
  const Span<const std::int32_t> indices = snapshot.core_indices();
  const Span<const double> values = snapshot.core_values();
  std::vector<std::int64_t> index(static_cast<std::size_t>(order));
  for (std::int64_t e = 0; e < snapshot.core_nnz(); ++e) {
    for (std::int64_t k = 0; k < order; ++k) {
      index[static_cast<std::size_t>(k)] =
          indices[static_cast<std::size_t>(e * order + k)];
    }
    model.core.at(index.data()) = values[static_cast<std::size_t>(e)];
  }
  return model;
}

}  // namespace ptucker

/// \file
/// \brief Loading persistent model checkpoints into an owning
/// TuckerFactorization. Snapshots are written in format v2
/// (serve/snapshot_v2.h): dims, ranks, factor matrices and the sparse
/// core as COO nonzeros — VeST-compact, so a truncated P-TUCKER-APPROX
/// core costs only its surviving entries on disk. They round-trip
/// bit-identically and feed both the warm-start path
/// (PTuckerOptions::init_snapshot) and the serving layer
/// (serve/service.h). Format spec: docs/serving.md.
#ifndef PTUCKER_SERVE_SNAPSHOT_H_
#define PTUCKER_SERVE_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/ptucker.h"

namespace ptucker {

/// Reads the snapshot at `path` into an owning model: opens it with
/// MmapSnapshot::Open and copies the factor and core bits out
/// (MaterializeModel). Throws std::runtime_error naming the path on an
/// unopenable file, on every parse failure, including an unsupported
/// format version (only v2 is read), and on a NaN or Inf factor or core
/// value, which it also places (NonFiniteValuePlace).
TuckerFactorization LoadSnapshot(const std::string& path);

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) — the checksum the
/// snapshot format stores, exposed for the writer and tests.
std::uint32_t SnapshotCrc32(const char* data, std::size_t size);

}  // namespace ptucker

#endif  // PTUCKER_SERVE_SNAPSHOT_H_

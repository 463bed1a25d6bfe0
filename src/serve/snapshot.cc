#include "serve/snapshot.h"

#include <stdexcept>
#include <string>
#include <vector>

#include "serve/snapshot_v2.h"

namespace ptucker {

TuckerFactorization LoadSnapshot(const std::string& path) {
  TuckerFactorization model = MaterializeModel(*MmapSnapshot::Open(path));
  const std::string non_finite = NonFiniteValuePlace(model);
  if (!non_finite.empty()) {
    throw std::runtime_error("snapshot: non-finite value at " + non_finite +
                             " (file " + path + ")");
  }
  return model;
}

std::uint32_t SnapshotCrc32(const char* data, std::size_t size) {
  // CRC-32 (IEEE 802.3, reflected 0xEDB88320) — the corruption check
  // that turns a flipped bit into a clean load error instead of a
  // silently wrong model.
  static const auto table = [] {
    std::vector<std::uint32_t> t(256);
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ static_cast<unsigned char>(data[i])) & 0xFFu] ^
          (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace ptucker

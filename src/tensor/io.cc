#include "tensor/io.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "tensor/dense_tensor.h"
#include "util/logging.h"

namespace ptucker {

namespace {

[[noreturn]] void ThrowParse(std::int64_t line_number,
                             const std::string& detail) {
  throw std::runtime_error("tns parse error at line " +
                           std::to_string(line_number) + ": " + detail);
}

struct ParsedEntry {
  std::vector<std::int64_t> index;  // 0-based
  double value;
};

// Parses one data line into `entry`; returns false for blank/comment lines.
bool ParseLine(const std::string& line, std::int64_t line_number,
               ParsedEntry* entry) {
  std::size_t first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos || line[first] == '#') return false;

  std::istringstream in(line);
  std::vector<double> tokens;
  double token = 0.0;
  while (in >> token) tokens.push_back(token);
  if (!in.eof()) ThrowParse(line_number, "non-numeric token");
  if (tokens.size() < 2) {
    ThrowParse(line_number, "expected at least one index and a value");
  }

  entry->index.clear();
  for (std::size_t k = 0; k + 1 < tokens.size(); ++k) {
    const double raw = tokens[k];
    // Range-check before the cast: converting a double outside int64's
    // range (1e19, 1e300, NaN) is undefined behaviour. Every integer up
    // to 2^53 is exactly representable, so the floor test is exact too.
    if (!(raw >= 1.0 && raw <= 9007199254740992.0) || std::floor(raw) != raw) {
      ThrowParse(line_number, "index must be a positive integer");
    }
    entry->index.push_back(static_cast<std::int64_t>(raw) - 1);
  }
  entry->value = tokens.back();
  return true;
}

SparseTensor BuildFromEntries(const std::vector<ParsedEntry>& entries,
                              const std::vector<std::int64_t>& dims) {
  if (entries.empty() && dims.empty()) {
    throw std::runtime_error("tns parse error: no entries and no dims given");
  }
  const std::size_t order =
      entries.empty() ? dims.size() : entries.front().index.size();

  std::vector<std::int64_t> resolved = dims;
  if (resolved.empty()) {
    resolved.assign(order, 1);
    for (const auto& entry : entries) {
      for (std::size_t k = 0; k < order; ++k) {
        resolved[k] = std::max(resolved[k], entry.index[k] + 1);
      }
    }
  }
  if (resolved.size() != order) {
    throw std::runtime_error("tns parse error: dims order mismatch");
  }

  SparseTensor tensor(resolved);
  tensor.Reserve(static_cast<std::int64_t>(entries.size()));
  for (std::size_t e = 0; e < entries.size(); ++e) {
    const auto& entry = entries[e];
    if (entry.index.size() != order) {
      throw std::runtime_error("tns parse error: entry " + std::to_string(e) +
                               " has inconsistent order");
    }
    for (std::size_t k = 0; k < order; ++k) {
      if (entry.index[k] >= resolved[k]) {
        throw std::runtime_error("tns parse error: entry " +
                                 std::to_string(e) + " out of bounds");
      }
    }
    tensor.AddEntry(entry.index, entry.value);
  }
  return tensor;
}

std::vector<ParsedEntry> ParseStream(std::istream& in) {
  std::vector<ParsedEntry> entries;
  std::string line;
  std::int64_t line_number = 0;
  ParsedEntry entry;
  while (std::getline(in, line)) {
    ++line_number;
    if (!ParseLine(line, line_number, &entry)) continue;
    if (!entries.empty() &&
        entry.index.size() != entries.front().index.size()) {
      ThrowParse(line_number, "inconsistent number of indices");
    }
    entries.push_back(entry);
  }
  return entries;
}

}  // namespace

SparseTensor ReadTns(const std::string& path,
                     const std::vector<std::int64_t>& dims) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open tns file: " + path);
  return BuildFromEntries(ParseStream(in), dims);
}

SparseTensor ParseTns(const std::string& content,
                      const std::vector<std::int64_t>& dims) {
  std::istringstream in(content);
  return BuildFromEntries(ParseStream(in), dims);
}

std::string FormatTns(const SparseTensor& tensor) {
  std::ostringstream out;
  for (std::int64_t e = 0; e < tensor.nnz(); ++e) {
    for (std::int64_t k = 0; k < tensor.order(); ++k) {
      out << tensor.index(e, k) + 1 << ' ';  // 1-based on disk
    }
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", tensor.value(e));
    out << buffer << '\n';
  }
  return out.str();
}

void WriteTns(const std::string& path, const SparseTensor& tensor) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open file for write: " + path);
  out << FormatTns(tensor);
  if (!out) throw std::runtime_error("write failed: " + path);
}

void WriteBinary(const std::string& path, const SparseTensor& tensor) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open file for write: " + path);
  const char magic[4] = {'P', 'T', 'N', 'B'};
  out.write(magic, 4);
  const std::int64_t order = tensor.order();
  const std::int64_t entries = tensor.nnz();
  out.write(reinterpret_cast<const char*>(&order), sizeof(order));
  for (std::int64_t k = 0; k < order; ++k) {
    const std::int64_t d = tensor.dim(k);
    out.write(reinterpret_cast<const char*>(&d), sizeof(d));
  }
  out.write(reinterpret_cast<const char*>(&entries), sizeof(entries));
  for (std::int64_t e = 0; e < entries; ++e) {
    out.write(reinterpret_cast<const char*>(tensor.index(e)),
              static_cast<std::streamsize>(sizeof(std::int64_t) * order));
    const double value = tensor.value(e);
    out.write(reinterpret_cast<const char*>(&value), sizeof(value));
  }
  if (!out) throw std::runtime_error("write failed: " + path);
}

SparseTensor ReadBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open file: " + path);
  char magic[4];
  in.read(magic, 4);
  if (!in || std::memcmp(magic, "PTNB", 4) != 0) {
    throw std::runtime_error("bad magic in binary tensor file: " + path);
  }
  std::int64_t order = 0;
  in.read(reinterpret_cast<char*>(&order), sizeof(order));
  if (!in || order <= 0 || order > 64) {
    throw std::runtime_error("bad order in binary tensor file: " + path);
  }
  std::vector<std::int64_t> dims(static_cast<std::size_t>(order));
  for (auto& d : dims) in.read(reinterpret_cast<char*>(&d), sizeof(d));
  std::int64_t entries = 0;
  in.read(reinterpret_cast<char*>(&entries), sizeof(entries));
  if (!in || entries < 0) {
    throw std::runtime_error("bad entry count in binary tensor file: " + path);
  }
  SparseTensor tensor(dims);
  tensor.Reserve(entries);
  std::vector<std::int64_t> index(static_cast<std::size_t>(order));
  for (std::int64_t e = 0; e < entries; ++e) {
    in.read(reinterpret_cast<char*>(index.data()),
            static_cast<std::streamsize>(sizeof(std::int64_t) * order));
    double value = 0.0;
    in.read(reinterpret_cast<char*>(&value), sizeof(value));
    if (!in) {
      throw std::runtime_error("truncated binary tensor file: " + path);
    }
    tensor.AddEntry(index.data(), value);
  }
  return tensor;
}

SparseTensor SparseFromDense(const DenseTensor& dense) {
  SparseTensor sparse(dense.dims());
  sparse.Reserve(dense.CountNonZeros());
  std::vector<std::int64_t> index(static_cast<std::size_t>(dense.order()));
  for (std::int64_t linear = 0; linear < dense.size(); ++linear) {
    if (dense[linear] == 0.0) continue;
    dense.IndexOf(linear, index.data());
    sparse.AddEntry(index, dense[linear]);
  }
  sparse.BuildModeIndex();
  return sparse;
}

}  // namespace ptucker

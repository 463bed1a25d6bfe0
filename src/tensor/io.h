#ifndef PTUCKER_TENSOR_IO_H_
#define PTUCKER_TENSOR_IO_H_

#include <string>

#include "tensor/sparse_tensor.h"

namespace ptucker {

/// Tensor I/O in the FROSTT `.tns` text format used by the paper's public
/// datasets: one nonzero per line, N whitespace-separated 1-based indices
/// followed by the value; lines starting with '#' are comments.
///
/// All readers throw std::runtime_error with a line-numbered message on
/// malformed input.

/// Reads a `.tns` file. Mode dimensionalities are the per-mode maximum
/// index unless `dims` is non-empty, in which case indices are validated
/// against it.
SparseTensor ReadTns(const std::string& path,
                     const std::vector<std::int64_t>& dims = {});

/// Parses `.tns` content from a string (same rules as ReadTns).
SparseTensor ParseTns(const std::string& content,
                      const std::vector<std::int64_t>& dims = {});

/// Writes FROSTT text (1-based indices).
void WriteTns(const std::string& path, const SparseTensor& tensor);

/// Serializes `.tns` content to a string.
std::string FormatTns(const SparseTensor& tensor);

/// The nonzeros of a dense tensor as a SparseTensor (used to serialize a
/// fitted — possibly truncated — core tensor in FROSTT format).
SparseTensor SparseFromDense(const class DenseTensor& tensor);

}  // namespace ptucker

#endif  // PTUCKER_TENSOR_IO_H_

#ifndef PTUCKER_TENSOR_IO_H_
#define PTUCKER_TENSOR_IO_H_

#include <string>

#include "tensor/sparse_tensor.h"

namespace ptucker {

/// Tensor I/O in the FROSTT `.tns` text format used by the paper's public
/// datasets: one nonzero per line, N whitespace-separated 1-based indices
/// followed by the value.
///
/// Grammar. Lines end at '\n'; the last line needs none. A line made only
/// of ' ', '\t' and '\r', or whose first other character is '#', is
/// skipped. Any other line is a run of tokens separated by ' ', '\t', '\r',
/// '\v' or '\f'. A token reads as `std::istream >> double` reads it in the
/// C locale: an optional sign, decimal digits with at most one '.', then,
/// after at least one digit, an optional exponent ('e' or 'E', an optional
/// sign, digits). So `+5`, `+.5`, `5.`, `.5`, `-0`, `1E2` and `00012` are
/// numbers; `+-1`, `--1`, `1e`, `1e+`, `0x10`, `1,5`, `inf` and `nan` are
/// not. A token ends at the first character that cannot extend it, so `1+2`
/// is the two tokens `1` and `+2`. A value too small for a double reads as
/// the correctly rounded result (`1e-400` is 0). Every token but the last
/// on a line is an index, an integer in [1, 2^53] (`1e2` is 100); the last
/// is the value. Every data line has the same number of indices.
///
/// Errors. Both readers throw std::runtime_error; ReadTns messages start
/// with the file path. A malformed line throws "tns parse error at line N:"
/// and one of: "non-numeric token", "value is not finite" (`inf`, `nan`,
/// an overflow such as `1e400`), "expected at least one index and a
/// value", "index must be a positive integer", or "inconsistent number of
/// indices: expected A, found B". The first malformed line wins. Only then,
/// with `dims` given, an index beyond its dimension throws for the first
/// line holding one, naming the index and its mode (1-based, as in the
/// file) and the dimension. Input with no entries needs `dims`, and `dims`
/// must have one entry per index column.
///
/// Threads. Both readers cut the input at newlines into one chunk per
/// `omp_get_max_threads()` thread and scan the chunks in parallel. The
/// tensor, its entry order and the first error, message and line number
/// included, do not depend on the thread count. The entries are stored
/// only when the input's bytes can hold every data line, so a malformed
/// input never sizes the arrays beyond the input's size.

/// Reads a `.tns` file, which may be a pipe or FIFO: the input is read once,
/// whole, then parsed. Mode dimensionalities are the per-mode maximum
/// index unless `dims` is non-empty, in which case indices are validated
/// against it. A file that does not open or read throws "<path>: cannot
/// open tns file: <reason>" or "<path>: read error: <reason>".
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

#include "tensor/io.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>

#include <locale.h>
#include <sys/stat.h>

#include "tensor/dense_tensor.h"

namespace ptucker {

namespace {

// The characters `std::istream >> double` skips before a token in the C
// locale ('\n' never occurs inside a line).
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

bool IsSign(char c) { return c == '+' || c == '-'; }

// ReadTns's first read size for an input of unknown size.
constexpr std::size_t kReadChunkBytes = std::size_t{1} << 16;

// Every integer up to 2^53 is exactly representable, so a token read as a
// double names an index exactly when it is integral and in [1, 2^53].
constexpr double kMaxIndex = 9007199254740992.0;

// Where `std::istream >> double` (libstdc++'s num_get in the C locale)
// stops reading a token that starts at `p`: a sign, then digits with at
// most one '.', then 'e' or 'E' with an optional sign and more digits.
// Whatever follows starts the next token. (The stream takes the 'e' only
// after a digit; without one the token fails to read either way.)
const char* NumberEnd(const char* p, const char* end) {
  if (p < end && IsSign(*p)) ++p;
  bool point = false;
  bool exponent = false;
  while (p < end) {
    const char c = *p;
    if (c == '.' && !point && !exponent) {
      point = true;
    } else if ((c == 'e' || c == 'E') && !exponent) {
      exponent = true;
      if (++p < end && IsSign(*p)) ++p;
      continue;
    } else if (!IsDigit(c)) {
      break;
    }
    ++p;
  }
  return p;
}

// `inf`, `infinity` or `nan` in any case after an optional sign: the
// spellings of a non-finite value, which the stream does not read.
bool SpellsNonFinite(const char* p, const char* end) {
  if (p < end && IsSign(*p)) ++p;
  std::string word;
  for (; p < end && !IsSpace(*p); ++p) {
    word += static_cast<char>(std::tolower(static_cast<unsigned char>(*p)));
  }
  return word == "inf" || word == "infinity" || word == "nan";
}

// Scans `.tns` lines straight into flat coordinate and value arrays,
// which Finish() hands to the SparseTensor without a copy.
class TnsScanner {
 public:
  // `prefix` starts every error message (the file path for ReadTns). The
  // input holds at most `max_lines` lines of `max_bytes` bytes in all, so
  // the storage is reserved once, when the first data line fixes the order.
  TnsScanner(const std::vector<std::int64_t>& dims, std::string prefix,
             std::int64_t max_lines, std::int64_t max_bytes)
      : dims_(dims),
        prefix_(std::move(prefix)),
        max_lines_(max_lines),
        max_bytes_(max_bytes) {}

  // Scans the lines in [begin, end); each ends in '\n' but the last may
  // not.
  void ScanLines(const char* begin, const char* end) {
    while (begin < end) {
      const auto* newline = static_cast<const char*>(
          std::memchr(begin, '\n', static_cast<std::size_t>(end - begin)));
      ++line_;
      ScanLine(begin, newline != nullptr ? newline : end);
      begin = newline != nullptr ? newline + 1 : end;
    }
  }

  // The tensor of every line scanned; call once.
  SparseTensor Finish() {
    if (values_.empty() && dims_.empty()) {
      throw std::runtime_error(prefix_ +
                               "tns parse error: no entries and no dims given");
    }
    if (!values_.empty() && !dims_.empty() && dims_.size() != order_) {
      throw std::runtime_error(
          prefix_ + "tns parse error: dims order mismatch: " +
          std::to_string(dims_.size()) + " dims for " +
          std::to_string(order_) + " indices per entry");
    }
    if (out_of_bounds_line_ != 0) Fail(out_of_bounds_line_, out_of_bounds_);
    return SparseTensor(dims_.empty() ? std::move(extent_) : dims_,
                        std::move(coords_), std::move(values_));
  }

 private:
  [[noreturn]] void Fail(std::int64_t line, const std::string& detail) const {
    throw std::runtime_error(prefix_ + "tns parse error at line " +
                             std::to_string(line) + ": " + detail);
  }

  // Reads the token that starts at `p` (not a space) into `*value` and
  // returns where it ends.
  const char* ScanToken(const char* p, const char* end, double* value) const {
    // Up to 15 plain digits, which a double holds exactly.
    const char* digits = IsSign(*p) ? p + 1 : p;
    const char* q = digits;
    std::int64_t whole = 0;
    for (; q < end && IsDigit(*q) && q - digits < 15; ++q) {
      whole = whole * 10 + (*q - '0');
    }
    if (q > digits && (q == end || (!IsDigit(*q) && *q != '.' &&
                                    *q != 'e' && *q != 'E'))) {
      const auto magnitude = static_cast<double>(whole);
      *value = *p == '-' ? -magnitude : magnitude;
      return q;
    }
    // The token must read whole up to where the stream stops. from_chars
    // reads as the stream does but takes no leading '+'.
    const char* number = *p == '+' ? p + 1 : p;
    const char* token_end = NumberEnd(p, end);
    const std::from_chars_result parsed =
        std::from_chars(number, token_end, *value);
    if (parsed.ptr != token_end ||
        (parsed.ec != std::errc() &&
         parsed.ec != std::errc::result_out_of_range)) {
      Fail(line_, SpellsNonFinite(p, end) ? "value is not finite"
                                          : "non-numeric token");
    }
    if (parsed.ec == std::errc::result_out_of_range) {
      // from_chars leaves *value alone on a range error. strtod in the C
      // locale, which the stream calls, rounds an underflow to a signed
      // zero and an overflow to infinity.
      static const locale_t c_locale = newlocale(LC_ALL_MASK, "C", nullptr);
      *value =
          strtod_l(std::string(p, token_end).c_str(), nullptr, c_locale);
    }
    if (!std::isfinite(*value)) Fail(line_, "value is not finite");
    return token_end;
  }

  void ScanLine(const char* p, const char* end) {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
    if (p == end || *p == '#') return;

    tokens_.clear();
    for (;;) {
      while (p < end && IsSpace(*p)) ++p;
      if (p == end) break;
      double token = 0.0;
      p = ScanToken(p, end, &token);
      tokens_.push_back(token);
    }
    if (tokens_.size() < 2) {
      Fail(line_, "expected at least one index and a value");
    }
    const std::size_t order = tokens_.size() - 1;
    for (std::size_t k = 0; k < order; ++k) {
      const double raw = tokens_[k];
      // Range-check before the cast: converting a double outside int64's
      // range (1e19, 1e300) is undefined behaviour.
      if (!(raw >= 1.0 && raw <= kMaxIndex) || std::floor(raw) != raw) {
        Fail(line_, "index must be a positive integer");
      }
    }
    if (order_ == 0) {
      StartEntries(order);
    } else if (order != order_) {
      Fail(line_, "inconsistent number of indices: expected " +
                      std::to_string(order_) + ", found " +
                      std::to_string(order));
    }

    const bool check_bounds = dims_.size() == order_;
    for (std::size_t k = 0; k < order; ++k) {
      const auto index = static_cast<std::int64_t>(tokens_[k]) - 1;
      coords_.push_back(index);
      if (dims_.empty()) {
        extent_[k] = std::max(extent_[k], index + 1);
      } else if (check_bounds && out_of_bounds_line_ == 0 &&
                 index >= dims_[k]) {
        out_of_bounds_line_ = line_;
        out_of_bounds_ = "index " + std::to_string(index + 1) + " of mode " +
                         std::to_string(k + 1) + " exceeds dimension " +
                         std::to_string(dims_[k]);
      }
    }
    values_.push_back(tokens_.back());
  }

  void StartEntries(std::size_t order) {
    order_ = order;
    if (dims_.empty()) extent_.assign(order, 1);
    // A data line holds order + 1 tokens of one byte or more, so the byte
    // count bounds the entries too, whatever the number of blank lines.
    const std::int64_t entries = std::min(
        max_lines_, max_bytes_ / static_cast<std::int64_t>(order + 1));
    values_.reserve(static_cast<std::size_t>(entries));
    coords_.reserve(static_cast<std::size_t>(entries) * order);
  }

  const std::vector<std::int64_t>& dims_;
  const std::string prefix_;
  const std::int64_t max_lines_;
  const std::int64_t max_bytes_;
  std::int64_t line_ = 0;
  std::size_t order_ = 0;  // indices per entry; 0 until the first entry
  std::vector<double> tokens_;  // the current line's tokens
  std::vector<std::int64_t> coords_;  // 0-based, entry-major
  std::vector<double> values_;
  std::vector<std::int64_t> extent_;  // per-mode maximum index, without dims
  std::int64_t out_of_bounds_line_ = 0;  // first line beyond dims, or 0
  std::string out_of_bounds_;
};

// Scans all of `content`; `prefix` starts every error message.
SparseTensor ScanTns(const std::string& content,
                     const std::vector<std::int64_t>& dims,
                     std::string prefix) {
  const char* begin = content.data();
  const char* end = begin + content.size();
  const bool unterminated = !content.empty() && content.back() != '\n';
  const std::int64_t lines =
      std::count(begin, end, '\n') + (unterminated ? 1 : 0);
  TnsScanner scanner(dims, std::move(prefix), lines,
                     static_cast<std::int64_t>(content.size()));
  scanner.ScanLines(begin, end);
  return scanner.Finish();
}

}  // namespace

SparseTensor ReadTns(const std::string& path,
                     const std::vector<std::int64_t>& dims) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!file) {
    throw std::runtime_error(path + ": cannot open tns file: " +
                             std::strerror(errno));
  }
  // Read the whole input in one pass, so a pipe or FIFO reads too. A
  // regular file's size sizes the buffer; the spare byte meets end of file.
  struct stat info {};
  const bool sized =
      ::fstat(::fileno(file.get()), &info) == 0 && info.st_size > 0;
  std::string content(sized ? static_cast<std::size_t>(info.st_size) + 1
                            : kReadChunkBytes,
                      '\0');
  std::size_t size = 0;
  for (;;) {
    if (size == content.size()) content.resize(2 * size);
    const std::size_t got = std::fread(content.data() + size, 1,
                                       content.size() - size, file.get());
    if (got == 0) break;
    size += got;
  }
  if (std::ferror(file.get())) {
    throw std::runtime_error(path + ": read error: " + std::strerror(errno));
  }
  content.resize(size);
  return ScanTns(content, dims, path + ": ");
}

SparseTensor ParseTns(const std::string& content,
                      const std::vector<std::int64_t>& dims) {
  return ScanTns(content, dims, "");
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

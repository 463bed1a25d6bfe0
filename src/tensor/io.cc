#include "tensor/io.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>

#include <locale.h>
#include <omp.h>
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

// The first character of [p, end) other than ' ', '\t' and '\r', or `end`.
const char* SkipBlanks(const char* p, const char* end) {
  while (p < end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
  return p;
}

// Whether the line [p, end) is skipped: blank, or a comment.
bool IsSkipped(const char* p, const char* end) {
  p = SkipBlanks(p, end);
  return p == end || *p == '#';
}

// Where the line that starts at `p` ends: its '\n', or `end`.
const char* LineEnd(const char* p, const char* end) {
  const auto* newline = static_cast<const char*>(
      std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
  return newline != nullptr ? newline : end;
}

// Calls `line(p, end)` for each line in [begin, end), without its '\n';
// the last line needs none.
template <typename LineFn>
void ForEachLine(const char* begin, const char* end, LineFn&& line) {
  while (begin < end) {
    const char* line_end = LineEnd(begin, end);
    line(begin, line_end);
    begin = line_end < end ? line_end + 1 : end;
  }
}

// A run of whole lines, scanned by one thread. The counting pass fills
// `lines` and `entries`; the prefix sums over the chunks before it fill
// `lines_before` and `entries_before`.
struct TnsChunk {
  const char* begin = nullptr;
  const char* end = nullptr;
  std::int64_t lines = 0;
  std::int64_t entries = 0;  // lines neither blank nor a comment
  std::int64_t lines_before = 0;
  std::int64_t entries_before = 0;
};

// Cuts `content` into `count` runs of whole lines of about equal size. A
// run is empty when the line that ends the run before it also crosses
// its cut.
std::vector<TnsChunk> CutChunks(const std::string& content,
                                std::size_t count) {
  const char* begin = content.data();
  const char* end = begin + content.size();
  std::vector<TnsChunk> chunks(count);
  const char* at = begin;
  for (std::size_t c = 0; c < count; ++c) {
    chunks[c].begin = at;
    const char* target = begin + content.size() * (c + 1) / count;
    if (c + 1 == count) {
      at = end;
    } else if (target > at) {
      const auto* newline = static_cast<const char*>(std::memchr(
          target - 1, '\n', static_cast<std::size_t>(end - target + 1)));
      at = newline != nullptr ? newline + 1 : end;
    }
    chunks[c].end = at;
  }
  return chunks;
}

// Counts the chunk's lines and entries. A line that starts with a digit
// is an entry, and WriteTns writes no other kind, so one pass that
// compiles to byte-wide vector compares counts the newlines and the line
// starts that are not digits. Only a chunk with such a start, a blank
// line or a comment say, is walked line by line.
void CountLines(TnsChunk* chunk) {
  if (chunk->begin == chunk->end) return;
  const auto* bytes = reinterpret_cast<const unsigned char*>(chunk->begin);
  // The last byte ends the last line, whether it is a newline or not.
  const auto last = static_cast<std::size_t>(chunk->end - chunk->begin) - 1;
  std::int64_t newlines = 0;
  std::int64_t other_starts = IsDigit(chunk->begin[0]) ? 0 : 1;
  // Blocks of 255 bytes let the counts run in bytes without overflow.
  for (std::size_t block = 0; block < last; block += 255) {
    const std::size_t stop = std::min(last, block + 255);
    unsigned char block_newlines = 0;
    unsigned char block_other_starts = 0;
    for (std::size_t i = block; i < stop; ++i) {
      const unsigned char newline = bytes[i] == '\n';
      block_newlines += newline;
      block_other_starts +=
          newline & (static_cast<unsigned char>(bytes[i + 1] - '0') > 9);
    }
    newlines += block_newlines;
    other_starts += block_other_starts;
  }
  if (other_starts == 0) {
    chunk->lines = chunk->entries = newlines + 1;
    return;
  }
  ForEachLine(chunk->begin, chunk->end, [chunk](const char* p,
                                                const char* end) {
    ++chunk->lines;
    if (!IsSkipped(p, end)) ++chunk->entries;
  });
}

// Throws "<prefix>tns parse error at line <line>: <detail>", or, for
// input that is wrong as a whole, with `line` 0, without "at line".
[[noreturn]] void ThrowParseError(const std::string& prefix, std::int64_t line,
                                  const std::string& detail) {
  throw std::runtime_error(
      prefix + "tns parse error" +
      (line > 0 ? " at line " + std::to_string(line) : std::string()) + ": " +
      detail);
}

// Scans `.tns` lines straight into their slots of the flat coordinate and
// value arrays, which the SparseTensor then adopts without a copy.
class TnsScanner {
 public:
  // `prefix` starts every error message; `lines_before` lines precede the
  // first line scanned.
  TnsScanner(const std::vector<std::int64_t>& dims, const std::string& prefix,
             std::int64_t lines_before)
      : dims_(dims), prefix_(prefix), line_(lines_before) {}

  // The number of indices on the data line [p, end), the next line;
  // throws if the line is malformed.
  std::size_t Order(const char* p, const char* end) {
    ++line_;
    return Tokenize(p, end);
  }

  // Scans the lines in [begin, end), each ending in '\n' but the last,
  // into consecutive entries of `order` indices from `coords` and
  // `values` on.
  void ScanLines(const char* begin, const char* end, std::size_t order,
                 std::int64_t* coords, double* values) {
    order_ = order;
    coords_ = coords;
    values_ = values;
    if (dims_.empty()) extent_.assign(order, 1);
    ForEachLine(begin, end, [this](const char* p, const char* line_end) {
      ++line_;
      ScanLine(p, line_end);
    });
  }

  // Checks the lines in [begin, end) as ScanLines does, but stores no
  // entry and skips the bounds check.
  void CheckLines(const char* begin, const char* end, std::size_t order) {
    order_ = order;
    ForEachLine(begin, end, [this](const char* p, const char* line_end) {
      ++line_;
      CheckLine(p, line_end);
    });
  }

  // Throws for the first line with an index beyond `dims`, if any.
  void CheckBounds() const {
    if (out_of_bounds_line_ != 0) Fail(out_of_bounds_line_, out_of_bounds_);
  }

  // The per-mode maximum index of the lines scanned, without `dims`.
  const std::vector<std::int64_t>& extent() const { return extent_; }

 private:
  [[noreturn]] void Fail(std::int64_t line, const std::string& detail) const {
    ThrowParseError(prefix_, line, detail);
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

  // Reads the data line [p, end) into `tokens_`, checks its indices and
  // returns their number.
  std::size_t Tokenize(const char* p, const char* end) {
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
    return order;
  }

  // Reads the line [p, end) into `tokens_` and checks that it holds an
  // entry of `order_` indices; false for a blank line or a comment.
  bool CheckLine(const char* p, const char* end) {
    p = SkipBlanks(p, end);
    if (p == end || *p == '#') return false;
    const std::size_t order = Tokenize(p, end);
    if (order != order_) {
      Fail(line_, "inconsistent number of indices: expected " +
                      std::to_string(order_) + ", found " +
                      std::to_string(order));
    }
    return true;
  }

  void ScanLine(const char* p, const char* end) {
    if (!CheckLine(p, end)) return;
    const std::size_t order = order_;
    const bool check_bounds = dims_.size() == order;
    for (std::size_t k = 0; k < order; ++k) {
      const auto index = static_cast<std::int64_t>(tokens_[k]) - 1;
      *coords_++ = index;
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
    *values_++ = tokens_.back();
  }

  const std::vector<std::int64_t>& dims_;
  const std::string& prefix_;
  std::int64_t line_;
  std::size_t order_ = 0;  // indices per entry
  std::int64_t* coords_ = nullptr;  // the next entry's slots, 0-based
  double* values_ = nullptr;
  std::vector<double> tokens_;  // the current line's tokens
  std::vector<std::int64_t> extent_;  // per-mode maximum index, without dims
  std::int64_t out_of_bounds_line_ = 0;  // first line beyond dims, or 0
  std::string out_of_bounds_;
};

// Scans all of `content`; `prefix` starts every error message. Each
// thread takes one chunk of whole lines: a counting pass gives every
// chunk its first line number and its first entry, the output is
// allocated once at its exact size, and each chunk scans into its own
// slice of it. The first error in file order wins, so the tensor and the
// error do not depend on the thread count. (Scanning into per-chunk
// arrays and concatenating them would hold the entries twice at the
// peak.)
SparseTensor ScanTns(const std::string& content,
                     const std::vector<std::int64_t>& dims,
                     const std::string& prefix) {
  std::vector<TnsChunk> chunks = CutChunks(
      content, static_cast<std::size_t>(std::max(1, omp_get_max_threads())));
  const auto count = static_cast<std::int64_t>(chunks.size());
#pragma omp parallel for schedule(static, 1)
  for (std::int64_t c = 0; c < count; ++c) {
    CountLines(&chunks[static_cast<std::size_t>(c)]);
  }

  std::int64_t lines = 0;
  std::int64_t entries = 0;
  for (TnsChunk& chunk : chunks) {
    chunk.lines_before = lines;
    chunk.entries_before = entries;
    lines += chunk.lines;
    entries += chunk.entries;
  }
  // The first data line fixes the order; only blank lines and comments
  // come before it, so if it is malformed, its error is the first.
  const char* const end = content.data() + content.size();
  std::size_t order = 0;
  std::int64_t line = 0;
  for (const char* p = content.data(); order == 0 && p < end; ++line) {
    const char* line_end = LineEnd(p, end);
    if (!IsSkipped(p, line_end)) {
      order = TnsScanner(dims, prefix, line).Order(p, line_end);
    }
    p = line_end < end ? line_end + 1 : end;
  }

  // A data line holds order + 1 tokens of a byte or more. When the bytes
  // cannot hold that many lines, one of them is malformed: the chunks are
  // then only checked, which throws, so the arrays never outgrow the
  // input, whatever its line count.
  const bool fits =
      entries <= static_cast<std::int64_t>(content.size() / (order + 1));
  std::vector<std::int64_t> coords(
      fits ? static_cast<std::size_t>(entries) * order : 0);
  std::vector<double> values(fits ? static_cast<std::size_t>(entries) : 0);
  std::vector<TnsScanner> scanners;
  scanners.reserve(chunks.size());
  for (const TnsChunk& chunk : chunks) {
    scanners.emplace_back(dims, prefix, chunk.lines_before);
  }
  std::vector<std::exception_ptr> errors(chunks.size());
#pragma omp parallel for schedule(static, 1)
  for (std::int64_t c = 0; c < count; ++c) {
    const TnsChunk& chunk = chunks[static_cast<std::size_t>(c)];
    const auto first = static_cast<std::size_t>(chunk.entries_before);
    TnsScanner& scanner = scanners[static_cast<std::size_t>(c)];
    try {
      if (fits) {
        scanner.ScanLines(chunk.begin, chunk.end, order,
                          coords.data() + first * order,
                          values.data() + first);
      } else {
        scanner.CheckLines(chunk.begin, chunk.end, order);
      }
    } catch (...) {
      errors[static_cast<std::size_t>(c)] = std::current_exception();
    }
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  if (entries == 0 && dims.empty()) {
    ThrowParseError(prefix, 0, "no entries and no dims given");
  }
  if (entries != 0 && !dims.empty() && dims.size() != order) {
    ThrowParseError(prefix, 0,
                    "dims order mismatch: " + std::to_string(dims.size()) +
                        " dims for " + std::to_string(order) +
                        " indices per entry");
  }
  for (const TnsScanner& scanner : scanners) scanner.CheckBounds();
  if (!dims.empty()) {
    return SparseTensor(dims, std::move(coords), std::move(values));
  }
  std::vector<std::int64_t> extent(order, 1);
  for (const TnsScanner& scanner : scanners) {
    for (std::size_t k = 0; k < scanner.extent().size(); ++k) {
      extent[k] = std::max(extent[k], scanner.extent()[k]);
    }
  }
  return SparseTensor(std::move(extent), std::move(coords), std::move(values));
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

#include "tensor/io.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sys/stat.h>

#include <gtest/gtest.h>

#include "core/row_update.h"
#include "data/movielens_sim.h"
#include "data/synthetic.h"
#include "util/random.h"

namespace ptucker {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// The line-by-line reader that ParseTns replaced (std::getline, an
// istringstream and `>> double` per line), kept as the reference the
// differential and fuzz tests compare against. One change: a malformed
// token at the very end of a line (`1e`, `1e400`, `+`) is an error. The
// old `while (in >> token)` loop hit end of line while failing on it and
// dropped the token silently, so "1 1 1e400" read as index 1, value 1.
[[noreturn]] void OracleThrow(std::int64_t line_number,
                              const std::string& detail) {
  throw std::runtime_error("tns parse error at line " +
                           std::to_string(line_number) + ": " + detail);
}

struct OracleEntry {
  std::vector<std::int64_t> index;  // 0-based
  double value;
};

bool OracleParseLine(const std::string& line, std::int64_t line_number,
                     OracleEntry* entry) {
  std::size_t first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos || line[first] == '#') return false;

  std::istringstream in(line);
  std::vector<double> tokens;
  double token = 0.0;
  while (!(in >> std::ws).eof()) {
    if (!(in >> token)) OracleThrow(line_number, "non-numeric token");
    tokens.push_back(token);
  }
  if (tokens.size() < 2) {
    OracleThrow(line_number, "expected at least one index and a value");
  }

  entry->index.clear();
  for (std::size_t k = 0; k + 1 < tokens.size(); ++k) {
    const double raw = tokens[k];
    if (!(raw >= 1.0 && raw <= 9007199254740992.0) || std::floor(raw) != raw) {
      OracleThrow(line_number, "index must be a positive integer");
    }
    entry->index.push_back(static_cast<std::int64_t>(raw) - 1);
  }
  entry->value = tokens.back();
  return true;
}

SparseTensor OracleParseTns(const std::string& content,
                            const std::vector<std::int64_t>& dims = {}) {
  std::vector<OracleEntry> entries;
  std::istringstream in(content);
  std::string line;
  std::int64_t line_number = 0;
  OracleEntry entry;
  while (std::getline(in, line)) {
    ++line_number;
    if (!OracleParseLine(line, line_number, &entry)) continue;
    if (!entries.empty() &&
        entry.index.size() != entries.front().index.size()) {
      OracleThrow(line_number, "inconsistent number of indices");
    }
    entries.push_back(entry);
  }

  if (entries.empty() && dims.empty()) {
    throw std::runtime_error("tns parse error: no entries and no dims given");
  }
  const std::size_t order =
      entries.empty() ? dims.size() : entries.front().index.size();
  std::vector<std::int64_t> resolved = dims;
  if (resolved.empty()) {
    resolved.assign(order, 1);
    for (const auto& e : entries) {
      for (std::size_t k = 0; k < order; ++k) {
        resolved[k] = std::max(resolved[k], e.index[k] + 1);
      }
    }
  }
  if (resolved.size() != order) {
    throw std::runtime_error("tns parse error: dims order mismatch");
  }
  SparseTensor tensor(resolved);
  for (std::size_t e = 0; e < entries.size(); ++e) {
    for (std::size_t k = 0; k < order; ++k) {
      if (entries[e].index[k] >= resolved[k]) {
        throw std::runtime_error("tns parse error: entry " +
                                 std::to_string(e) + " out of bounds");
      }
    }
    tensor.AddEntry(entries[e].index, entries[e].value);
  }
  return tensor;
}

// A parse: the tensor, or the error message.
struct Outcome {
  bool ok = false;
  SparseTensor tensor;
  std::string error;
};

Outcome Capture(const std::function<SparseTensor()>& parse) {
  Outcome outcome;
  try {
    outcome.tensor = parse();
    outcome.ok = true;
  } catch (const std::runtime_error& e) {
    outcome.error = e.what();
  }
  return outcome;
}

// The line number an error message names, or -1.
std::int64_t ErrorLine(const std::string& message) {
  const std::size_t at = message.find("at line ");
  return at == std::string::npos ? -1 : std::stoll(message.substr(at + 8));
}

std::string Escaped(const std::string& content) {
  std::string out;
  for (const char c : content) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c == '\v') {
      out += "\\v";
    } else if (c == '\f') {
      out += "\\f";
    } else if (static_cast<unsigned char>(c) < 0x20 ||
               static_cast<unsigned char>(c) >= 0x7f) {
      out += "\\x" + std::to_string(static_cast<unsigned char>(c));
    } else {
      out += c;
    }
  }
  return out;
}

bool BitwiseEqual(const SparseTensor& a, const SparseTensor& b) {
  if (a.dims() != b.dims() || a.nnz() != b.nnz()) return false;
  for (std::int64_t e = 0; e < a.nnz(); ++e) {
    for (std::int64_t k = 0; k < a.order(); ++k) {
      if (a.index(e, k) != b.index(e, k)) return false;
    }
    const double x = a.value(e);
    const double y = b.value(e);
    if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
  }
  return true;
}

// `got` must equal the oracle's parse of `content` bit for bit, or both
// must throw; where the oracle's error names a line, `got`'s names it too.
void ExpectMatchesOracle(const Outcome& got, const std::string& content,
                         const std::vector<std::int64_t>& dims = {}) {
  const Outcome want = Capture([&] { return OracleParseTns(content, dims); });
  ASSERT_EQ(got.ok, want.ok) << "content \"" << Escaped(content)
                             << "\": reader '" << got.error << "', oracle '"
                             << want.error << "'";
  if (want.ok) {
    EXPECT_TRUE(BitwiseEqual(got.tensor, want.tensor))
        << "content \"" << Escaped(content) << "\"";
  } else if (ErrorLine(want.error) >= 0) {
    EXPECT_EQ(ErrorLine(got.error), ErrorLine(want.error))
        << "content \"" << Escaped(content) << "\": reader '" << got.error
        << "', oracle '" << want.error << "'";
  }
}

void ExpectParseMatchesOracle(const std::string& content,
                              const std::vector<std::int64_t>& dims = {}) {
  ExpectMatchesOracle(Capture([&] { return ParseTns(content, dims); }), content,
                      dims);
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

TEST(TnsParseTest, BasicContent) {
  const std::string content =
      "# a comment\n"
      "1 1 1 1.5\n"
      "\n"
      "2 3 1 -2.0\n";
  SparseTensor t = ParseTns(content);
  EXPECT_EQ(t.order(), 3);
  EXPECT_EQ(t.nnz(), 2);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.dim(2), 1);
  EXPECT_EQ(t.index(1, 1), 2);  // 1-based on disk -> 0-based in memory
  EXPECT_EQ(t.value(0), 1.5);
}

TEST(TnsParseTest, ExplicitDims) {
  SparseTensor t = ParseTns("1 1 0.5\n", {10, 20});
  EXPECT_EQ(t.dim(0), 10);
  EXPECT_EQ(t.dim(1), 20);
}

TEST(TnsParseTest, RejectsOutOfBoundsForExplicitDims) {
  EXPECT_THROW(ParseTns("5 1 0.5\n", {4, 4}), std::runtime_error);
}

TEST(TnsParseTest, RejectsNonNumeric) {
  EXPECT_THROW(ParseTns("1 abc 0.5\n"), std::runtime_error);
}

TEST(TnsParseTest, RejectsZeroIndex) {
  EXPECT_THROW(ParseTns("0 1 0.5\n"), std::runtime_error);
}

TEST(TnsParseTest, RejectsFractionalIndex) {
  EXPECT_THROW(ParseTns("1.5 1 0.5\n"), std::runtime_error);
}

// Indices beyond int64 (1e19) or far beyond any double-to-int cast
// (1e300) must be rejected by value, with the line number, before any
// conversion — the cast itself would be undefined behaviour.
TEST(TnsParseTest, RejectsHugeIndexTokens) {
  for (const std::string token : {"1e19", "1e300"}) {
    try {
      ParseTns("1 1 0.5\n" + token + " 1 0.5\n");
      ADD_FAILURE() << "accepted index " << token;
    } catch (const std::runtime_error& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("line 2"), std::string::npos) << message;
      EXPECT_NE(message.find("positive integer"), std::string::npos)
          << message;
    }
  }
}

TEST(TnsParseTest, RejectsInconsistentOrder) {
  EXPECT_THROW(ParseTns("1 1 0.5\n1 1 1 0.5\n"), std::runtime_error);
}

TEST(TnsParseTest, RejectsValueOnlyLine) {
  EXPECT_THROW(ParseTns("0.5\n"), std::runtime_error);
}

TEST(TnsParseTest, EmptyContentWithoutDimsThrows) {
  EXPECT_THROW(ParseTns("# nothing\n"), std::runtime_error);
}

TEST(TnsRoundTripTest, FormatThenParse) {
  Rng rng(1);
  SparseTensor original = UniformSparseTensor({5, 7, 3}, 20, rng);
  SparseTensor parsed = ParseTns(FormatTns(original), original.dims());
  ASSERT_EQ(parsed.nnz(), original.nnz());
  for (std::int64_t e = 0; e < original.nnz(); ++e) {
    for (std::int64_t k = 0; k < 3; ++k) {
      EXPECT_EQ(parsed.index(e, k), original.index(e, k));
    }
    EXPECT_DOUBLE_EQ(parsed.value(e), original.value(e));
  }
}

TEST(TnsFileTest, WriteAndReadBack) {
  Rng rng(2);
  SparseTensor original = UniformSparseTensor({4, 4, 4}, 10, rng);
  const std::string path = TempPath("ptucker_io_test.tns");
  WriteTns(path, original);
  SparseTensor loaded = ReadTns(path, original.dims());
  EXPECT_EQ(loaded.nnz(), original.nnz());
  std::remove(path.c_str());
}

TEST(TnsFileTest, MissingFileThrows) {
  EXPECT_THROW(ReadTns(TempPath("does_not_exist_ptucker.tns")),
               std::runtime_error);
}

// A token that fails to read at the end of a line is an error, not
// dropped: "1 1 1e400" must not read as index 1, value 1.
TEST(TnsParseTest, RejectsMalformedLastToken) {
  for (const std::string line : {"1 1 0.5 1e", "1 1 1e400", "1 1 0.5 +",
                                 "1 1 0.5e", "1 1 0.5 ."}) {
    EXPECT_THROW(ParseTns(line), std::runtime_error) << line;
    EXPECT_THROW(ParseTns(line + "\n"), std::runtime_error) << line;
  }
}

TEST(TnsParseTest, NonFiniteValuesNameTheLine) {
  for (const std::string token : {"inf", "-inf", "+INF", "Infinity", "nan",
                                  "NaN", "-nan", "1e400", "-1e400",
                                  "1.8e308"}) {
    for (const std::string& line : {"1 " + token, token + " 0.5"}) {
      try {
        ParseTns("1 0.5\n" + line + "\n");
        ADD_FAILURE() << "accepted " << line;
      } catch (const std::runtime_error& e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("line 2: value is not finite"),
                  std::string::npos)
            << message;
      }
    }
  }
}

TEST(TnsParseTest, UnderflowReadsAsTheRoundedValue) {
  const SparseTensor t = ParseTns(
      "1 1e-400\n2 -1e-400\n3 4.9e-324\n4 2.2250738585072011e-308\n");
  EXPECT_EQ(t.value(0), 0.0);
  EXPECT_FALSE(std::signbit(t.value(0)));
  EXPECT_EQ(t.value(1), 0.0);
  EXPECT_TRUE(std::signbit(t.value(1)));
  EXPECT_EQ(t.value(2), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(t.value(3), 2.2250738585072011e-308);
}

TEST(TnsParseTest, ErrorsNameThePlace) {
  try {
    ParseTns("1 1 0.5\n\n2 5 0.5\n", {4, 4});
    ADD_FAILURE() << "accepted an out-of-bounds index";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "tns parse error at line 3: index 5 of mode 2 exceeds "
                 "dimension 4");
  }
  try {
    ParseTns("1 1 0.5\n1 1 1 0.5\n");
    ADD_FAILURE() << "accepted an inconsistent order";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "tns parse error at line 2: inconsistent number of indices: "
                 "expected 2, found 3");
  }
  // A malformed line wins over an earlier out-of-bounds one, as the
  // bounds are checked once the whole input has parsed.
  try {
    ParseTns("9 1 0.5\n1 x 0.5\n", {4, 4});
    ADD_FAILURE() << "accepted a non-numeric token";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "tns parse error at line 2: non-numeric token");
  }

  const std::string path = TempPath("ptucker_io_errors.tns");
  WriteFile(path, "1 1 0.5\n1 abc 0.5\n");
  for (const std::string& file : {path, TempPath("missing_ptucker.tns")}) {
    try {
      ReadTns(file);
      ADD_FAILURE() << "read " << file;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind(file + ": ", 0), 0u) << e.what();
    }
  }
  std::remove(path.c_str());

  // A directory opens but does not read.
  const std::string directory =
      std::filesystem::temp_directory_path().string();
  try {
    ReadTns(directory);
    ADD_FAILURE() << "read " << directory;
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind(directory + ": read error: ", 0), 0u)
        << e.what();
  }
}

// Every edge token of the grammar, as an index and as a value, at the
// end of a line and followed by each kind of line ending.
TEST(TnsDifferentialTest, EdgeTokensMatchOracle) {
  const std::vector<std::string> accepted = {"+5", "+.5", "5.", ".5",
                                             "-0", "1E2", "00012", "1e-400"};
  const std::vector<std::string> rejected = {"+-1", "--1", "1e",  "1e+",
                                             "0x10", "1,5", "inf", "nan"};
  for (const char* ending : {"", "\n", " \n", "\r\n", "\t# x\n"}) {
    for (const auto* tokens : {&accepted, &rejected}) {
      for (const std::string& token : *tokens) {
        const std::string as_value = "3 1 0.5\n2 " + token + ending;
        const std::string as_index = token + " 2 0.25" + ending;
        ExpectParseMatchesOracle(as_value);
        ExpectParseMatchesOracle(as_index);
        ExpectParseMatchesOracle("2 " + token + " 0.5" + ending);
        if (tokens == &rejected && std::strchr(ending, '#') == nullptr) {
          EXPECT_THROW(ParseTns(as_value), std::runtime_error) << token;
        }
      }
    }
  }
  EXPECT_EQ(ParseTns("1 1e-400").value(0), 0.0);
  EXPECT_EQ(ParseTns("00012 1E2\n").index(0, 0), 11);
}

TEST(TnsDifferentialTest, LineShapesMatchOracle) {
  for (const std::string& content : std::vector<std::string>{
           "1 2 0.5\r\n2 1 -1.5\r\n",      // CRLF
           "1 2 0.5\n2 1 -1.5",            // no final newline
           "  # lead\n\t# tab\n1 1 2\n",   // comments after whitespace
           "1 1 2\n\v\n",                  // a \v-only line is not blank
           "1 1 2\n\f\n",                  // nor is a \f-only line
           "1\v1\f2\n",                    // \v and \f separate tokens
           "\v# not a comment\n1 1 2\n",   // '#' after \v is a token
           "\r\n \r\n\t\n1 1 2\n\n\n",     // blank lines of ' ', \t, \r
           "1+2 0.5\n",                    // a sign starts a new token
           "1 1 2.5.5\n",                  // so does a second '.'
           "1 1 1e5e5\n",                  // and a second 'e'
           "1 1 0.5\n\n1 1\n1 1 1\n",      // order change after a blank
           "",                             // nothing at all
           "\n\n",                         // only blank lines
           "1 1 \x80\n",                   // a byte outside ASCII
           std::string("1 1 0.5\n1 1\0 0.5\n", 17),  // an embedded NUL
       }) {
    ExpectParseMatchesOracle(content);
    ExpectParseMatchesOracle(content, {3, 3});
  }
}

// At least `bytes` of entry lines, some with CRLF endings.
std::string EntryLines(std::size_t bytes) {
  std::string body;
  for (std::int64_t e = 0; body.size() < bytes; ++e) {
    body += std::to_string(e % 97 + 1) + " " + std::to_string(e % 13 + 1) +
            " " + std::to_string(0.001 * static_cast<double>(e)) +
            (e % 3 == 0 ? "\r\n" : "\n");
  }
  return body;
}

// ReadTns reads a file exactly as the oracle reads its text, including a
// long comment line and a malformed last line.
TEST(TnsDifferentialTest, ReadTnsMatchesOracle) {
  const std::string body = EntryLines(200000);
  const std::string path = TempPath("ptucker_io_read.tns");
  for (const std::string& content :
       {body, "1 1 0.5\n#" + std::string(200000, 'x') + "\n2 2 1",
        body + "1 1 x"}) {
    WriteFile(path, content);
    ExpectMatchesOracle(Capture([&] { return ReadTns(path); }), content);
  }
  std::remove(path.c_str());
}

// A FIFO can be read only once and has no size up front; ReadTns reads it
// whole, growing its buffer past the first read.
TEST(TnsFileTest, ReadsAFifo) {
  const std::string path = TempPath("ptucker_io_fifo.tns");
  std::remove(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0) << std::strerror(errno);
  const std::string content = EntryLines(200000);
  std::thread writer([&] {
    std::ofstream out(path, std::ios::binary);
    out << content;
  });
  const Outcome got = Capture([&] { return ReadTns(path); });
  writer.join();
  std::remove(path.c_str());
  EXPECT_TRUE(got.ok) << got.error;
  ExpectMatchesOracle(got, content);
}

TEST(TnsDifferentialTest, FormattedRandomTensorsMatchOracle) {
  Rng rng(30);
  for (int round = 0; round < 4; ++round) {
    SparseTensor original = UniformSparseTensor({6, 5, 4}, 40, rng);
    for (std::int64_t e = 0; e < original.nnz(); ++e) {
      const double magnitude = original.value(e);
      switch (e % 5) {
        case 0:  // negative, 17 significant digits
          original.set_value(e, -magnitude / 3.0);
          break;
        case 1:  // subnormal
          original.set_value(e, magnitude * 1e-310);
          break;
        case 2:  // tiny subnormal and signed zero
          original.set_value(e, e % 2 == 0 ? -0.0 : 4.9e-324);
          break;
        case 3:  // large
          original.set_value(e, magnitude * 1e300);
          break;
        default:
          break;
      }
    }
    const std::string text = FormatTns(original);
    ExpectParseMatchesOracle(text, original.dims());
    EXPECT_TRUE(BitwiseEqual(ParseTns(text, original.dims()), original));
  }
}

TEST(TnsDifferentialTest, MovieLensSampleMatchesOracle) {
  MovieLensConfig config;
  config.num_users = 60;
  config.num_movies = 30;
  config.num_years = 5;
  config.nnz = 2000;
  const MovieLensData data = SimulateMovieLens(config);
  const std::string text = FormatTns(data.tensor);
  ExpectParseMatchesOracle(text);
  ExpectParseMatchesOracle(text, data.tensor.dims());
}

// A small document with comments, CRLF, a blank line, signs, exponents and
// no final newline: the base of the two sweeps below.
const char kFuzzDocument[] =
    "# ratings\n"
    "1 2 3 4.5\n"
    "  2 1 1 -0.25e1\r\n"
    "\n"
    "3 3 2 .5\n"
    "1 1 1 1e-3";

// Byte-flip sweep (the WireTest discipline): every offset of the document
// set to each of a few bytes that matter to the grammar. Reader and
// oracle must agree on accept or reject, on every value, and on the
// line of the error. Nothing may read out of bounds (ASan-checked).
TEST(TnsFuzzTest, ByteFlipSweepMatchesOracle) {
  const std::string document = kFuzzDocument;
  for (std::size_t offset = 0; offset < document.size(); ++offset) {
    for (const char byte : {'\n', ' ', '\v', '\r', '#', '+', '-', '.', 'e',
                            '0', '7', 'i', '\0', '\x80'}) {
      std::string mutated = document;
      mutated[offset] = byte;
      ExpectParseMatchesOracle(mutated);
      ExpectParseMatchesOracle(mutated, {3, 3, 3});
    }
  }
}

// Truncation sweep: every prefix of the document, each parsed from an
// exact-size copy so ASan flags any read past its end.
TEST(TnsFuzzTest, TruncationSweepMatchesOracle) {
  const std::string document = kFuzzDocument;
  for (std::size_t length = 0; length <= document.size(); ++length) {
    const std::string prefix = document.substr(0, length);
    ExpectParseMatchesOracle(prefix);
    ExpectParseMatchesOracle(prefix, {3, 3, 3});
  }
}

// Random lines over the grammar's alphabet, where tokens run into each
// other ("1+2", "5.e-", ".e5") in every combination.
TEST(TnsFuzzTest, RandomTokenSoupMatchesOracle) {
  const std::string alphabet = "0123456789+-.eE \t\r\v\f#xi,\n11 ";
  Rng rng(31);
  for (int round = 0; round < 20000; ++round) {
    std::string content = round % 2 == 0 ? "1 2 " : "";
    const std::uint64_t length = rng.UniformInt(24);
    for (std::uint64_t i = 0; i < length; ++i) {
      content += alphabet[rng.UniformInt(alphabet.size())];
    }
    ExpectParseMatchesOracle(content, round % 4 == 0
                                          ? std::vector<std::int64_t>{3, 3}
                                          : std::vector<std::int64_t>{});
  }
}

// The reader cuts its input into one chunk of whole lines per OpenMP
// thread. Everything below runs it at several thread counts, against the
// oracle and against its own 1-thread result, tensor and error message
// alike.

const int kThreadCounts[] = {1, 2, 3, 8};

// A document and the dims it is parsed with.
struct TnsCase {
  std::string content;
  std::vector<std::int64_t> dims;
};

// ParseTns on every case at every thread count, one thread count at a
// time: each result matches the oracle, and equals the 1-thread result
// bit for bit or with the same message.
void ExpectSameAtEveryThreadCount(const std::vector<TnsCase>& cases) {
  std::vector<Outcome> serial;
  for (const int threads : kThreadCounts) {
    OmpEnvironmentGuard guard(threads, Scheduling::kStatic);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const TnsCase& c = cases[i];
      const Outcome got = Capture([&] { return ParseTns(c.content, c.dims); });
      if (threads == 1) {
        ExpectMatchesOracle(got, c.content, c.dims);
        serial.push_back(got);
        continue;
      }
      const Outcome& want = serial[i];
      ASSERT_EQ(got.ok, want.ok) << threads << " threads, content \""
                                 << Escaped(c.content) << "\"";
      EXPECT_EQ(got.error, want.error) << threads << " threads";
      if (got.ok) {
        EXPECT_TRUE(BitwiseEqual(got.tensor, want.tensor))
            << threads << " threads, content \"" << Escaped(c.content)
            << "\"";
      }
    }
  }
}

// The documents of the oracle tests above: every edge token and line
// shape, every byte flip and truncation of the fuzz document, and the
// first 1,000 rounds of the token soup.
std::vector<TnsCase> OracleSweepCases() {
  std::vector<TnsCase> cases;
  for (const char* ending : {"", "\n", " \n", "\r\n", "\t# x\n"}) {
    for (const std::string token :
         {"+5", "+.5", "5.", ".5", "-0", "1E2", "00012", "1e-400", "+-1",
          "--1", "1e", "1e+", "0x10", "1,5", "inf", "nan"}) {
      cases.push_back({"3 1 0.5\n2 " + token + ending, {}});
      cases.push_back({token + " 2 0.25" + ending, {}});
      cases.push_back({"2 " + token + " 0.5" + ending, {}});
    }
  }
  for (const std::string& content : std::vector<std::string>{
           "1 2 0.5\r\n2 1 -1.5\r\n", "1 2 0.5\n2 1 -1.5",
           "  # lead\n\t# tab\n1 1 2\n", "1 1 2\n\v\n", "1 1 2\n\f\n",
           "1\v1\f2\n", "\v# not a comment\n1 1 2\n",
           "\r\n \r\n\t\n1 1 2\n\n\n", "1+2 0.5\n", "1 1 2.5.5\n",
           "1 1 1e5e5\n", "1 1 0.5\n\n1 1\n1 1 1\n", "", "\n\n",
           "1 1 \x80\n", std::string("1 1 0.5\n1 1\0 0.5\n", 17)}) {
    cases.push_back({content, {}});
    cases.push_back({content, {3, 3}});
  }
  const std::string document = kFuzzDocument;
  for (std::size_t offset = 0; offset < document.size(); ++offset) {
    for (const char byte : {'\n', ' ', '\v', '\r', '#', '+', '-', '.', 'e',
                            '0', '7', 'i', '\0', '\x80'}) {
      std::string mutated = document;
      mutated[offset] = byte;
      cases.push_back({mutated, {}});
      cases.push_back({mutated, {3, 3, 3}});
    }
  }
  for (std::size_t length = 0; length <= document.size(); ++length) {
    cases.push_back({document.substr(0, length), {}});
    cases.push_back({document.substr(0, length), {3, 3, 3}});
  }
  const std::string alphabet = "0123456789+-.eE \t\r\v\f#xi,\n11 ";
  Rng rng(31);
  for (int round = 0; round < 1000; ++round) {
    std::string content = round % 2 == 0 ? "1 2 " : "";
    const std::uint64_t length = rng.UniformInt(24);
    for (std::uint64_t i = 0; i < length; ++i) {
      content += alphabet[rng.UniformInt(alphabet.size())];
    }
    cases.push_back({content, round % 4 == 0
                                  ? std::vector<std::int64_t>{3, 3}
                                  : std::vector<std::int64_t>{}});
  }
  return cases;
}

// Documents this short put a cut in or next to nearly every line at 2, 3
// or 8 threads, and many chunks are empty.
TEST(TnsThreadsTest, OracleSweepsAtEveryThreadCount) {
  ExpectSameAtEveryThreadCount(OracleSweepCases());
}

// Twelve entry lines with one odd line moved through every position, so
// that at some position and thread count a cut lands on the odd line: a
// comment, a blank line, blanks of ' ', '\t' and '\r', a CRLF entry, an
// entry led by blanks, and a malformed line. Each document also runs
// with CRLF endings and without its final newline.
TEST(TnsThreadsTest, CutsLandOnEveryLineKind) {
  std::vector<TnsCase> cases;
  for (const std::string odd :
       {"# 1 2 3", "", " \t\r", "5 5 2.5\r", "  4 4 -1", "4 x 1"}) {
    for (std::size_t at = 0; at <= 12; ++at) {
      for (const std::string newline : {"\n", "\r\n"}) {
        std::string content;
        for (std::size_t line = 0; line <= 12; ++line) {
          content += line == at ? odd
                                : std::to_string(line % 5 + 1) + " " +
                                      std::to_string(line % 3 + 1) + " 0." +
                                      std::to_string(line);
          content += newline;
        }
        cases.push_back({content, {}});
        cases.push_back({content, {5, 3}});
        content.resize(content.size() - newline.size());
        cases.push_back({content, {}});
      }
    }
  }
  ExpectSameAtEveryThreadCount(cases);
}

// Fewer bytes than threads: most chunks are empty.
TEST(TnsThreadsTest, DocumentShorterThanTheThreadCount) {
  std::vector<TnsCase> cases;
  for (const std::string content :
       {"", "\n", "#", "7", "1 2", "1 1 2", "1 1 2\n", "\r\n1 1"}) {
    cases.push_back({content, {}});
    cases.push_back({content, {1, 1}});
  }
  ExpectSameAtEveryThreadCount(cases);
  OmpEnvironmentGuard guard(8, Scheduling::kStatic);
  const SparseTensor t = ParseTns("2 3 4");
  EXPECT_EQ(t.dims(), (std::vector<std::int64_t>{2, 3}));
  EXPECT_EQ(t.value(0), 4.0);
}

// Each half is 16 bytes, so at 2 threads the cut falls on the newline
// that ends line 2 and the second chunk opens with the order change
// (after a comment in the second document). Its line is numbered in the
// whole file.
TEST(TnsThreadsTest, SecondChunkOpensWithAnOrderChange) {
  for (const auto& [content, line] :
       std::vector<std::pair<std::string, int>>{
           {"1 1 0.5\n2 2 0.5\n1 1 1 5\n2 2 2 5\n", 3},
           {"1 1 0.5\n2 2 0.5\n# c\n1 1 1 5\n2 2\n", 4}}) {
    for (const int threads : kThreadCounts) {
      OmpEnvironmentGuard guard(threads, Scheduling::kStatic);
      try {
        ParseTns(content);
        ADD_FAILURE() << "accepted an order change at " << threads
                      << " threads";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()),
                  "tns parse error at line " + std::to_string(line) +
                      ": inconsistent number of indices: expected 2, "
                      "found 3");
      }
    }
  }
}

// The message `ParseTns(content, dims)` throws at `threads` threads.
std::string ParseError(const std::string& content,
                       const std::vector<std::int64_t>& dims, int threads) {
  OmpEnvironmentGuard guard(threads, Scheduling::kStatic);
  try {
    ParseTns(content, dims);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "accepted";
}

// The first malformed line in file order wins, wherever the chunks fall;
// an out-of-bounds line counts only when no line is malformed.
TEST(TnsThreadsTest, FirstErrorInFileOrderWins) {
  std::string entries;
  for (int e = 0; e < 30; ++e) entries += "1 1 0.5\n";
  const std::vector<std::int64_t> dims = {4, 4};
  for (const int threads : kThreadCounts) {
    // A malformed last line beats an out-of-bounds first line.
    EXPECT_EQ(ParseError("9 1 0.5\n" + entries + "1 x 0.5\n", dims, threads),
              "tns parse error at line 32: non-numeric token");
    // Of two malformed lines, the earlier wins, whatever each one's fault.
    EXPECT_EQ(ParseError("1 1 0.5\n1 1e 0.5\n" + entries + "1 1 1 0.5\n",
                         dims, threads),
              "tns parse error at line 2: non-numeric token");
    EXPECT_EQ(ParseError("1 1 0.5\n1 1 1 0.5\n" + entries + "1 1e 0.5\n",
                         dims, threads),
              "tns parse error at line 2: inconsistent number of indices: "
              "expected 2, found 3");
    // Of two out-of-bounds lines, the earlier wins.
    EXPECT_EQ(ParseError(entries + "1 5 0.5\n" + entries + "6 1 0.5\n", dims,
                         threads),
              "tns parse error at line 31: index 5 of mode 2 exceeds "
              "dimension 4");
  }
}

// A first line of 20,000 indices, then 20,000 short lines: so few bytes
// cannot hold that many entries of that order, and the reader reports the
// first short line without sizing its arrays by the line count, which
// would take 3.2 GB.
TEST(TnsThreadsTest, WideFirstLineThenShortLines) {
  std::string wide;
  for (int k = 0; k < 20000; ++k) wide += "1 ";
  wide += "0.5\n";
  std::string ones;
  std::string pairs;
  for (int line = 0; line < 20000; ++line) {
    ones += "1\n";
    pairs += "1 0.5\n";
  }
  for (const int threads : kThreadCounts) {
    EXPECT_EQ(ParseError(wide + ones, {}, threads),
              "tns parse error at line 2: expected at least one index and "
              "a value");
    EXPECT_EQ(ParseError(wide + "# c\n\n" + pairs, {}, threads),
              "tns parse error at line 4: inconsistent number of indices: "
              "expected 20000, found 1");
  }
}

// ReadTns at every thread count, on a file long enough that every chunk
// holds thousands of lines, and with a malformed line near its end; and
// a tensor whose extents each chunk sees only in part.
TEST(TnsThreadsTest, LongInputsAtEveryThreadCount) {
  const std::string body = EntryLines(200000);
  const std::string path = TempPath("ptucker_io_threads.tns");
  for (const std::string& content :
       {body, body + "1 1 x\n" + body.substr(0, 1000)}) {
    WriteFile(path, content);
    const Outcome serial = Capture([&] { return ReadTns(path); });
    ExpectMatchesOracle(serial, content);
    for (const int threads : kThreadCounts) {
      OmpEnvironmentGuard guard(threads, Scheduling::kStatic);
      const Outcome got = Capture([&] { return ReadTns(path); });
      ASSERT_EQ(got.ok, serial.ok) << threads << " threads: " << got.error;
      EXPECT_EQ(got.error, serial.error) << threads << " threads";
      if (got.ok) {
        EXPECT_TRUE(BitwiseEqual(got.tensor, serial.tensor))
            << threads << " threads";
      }
    }
  }
  std::remove(path.c_str());

  MovieLensConfig config;
  config.num_users = 60;
  config.num_movies = 30;
  config.num_years = 5;
  config.nnz = 2000;
  const MovieLensData data = SimulateMovieLens(config);
  ExpectSameAtEveryThreadCount({{FormatTns(data.tensor), {}}});
}

}  // namespace
}  // namespace ptucker

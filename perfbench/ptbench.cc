// ptbench: the benchmark executable behind perfbench/run.py.
//
//   ptbench info                                   build record (JSON)
//   ptbench probe                                  host-interference probe
//   ptbench gen --workload W --seed S --dir D      write the inputs
//   ptbench run --workload W --dir D --seconds T --trace 0|1 [--trace-out F]
//
// `run` prints one JSON report as its last stdout line; run.py turns it
// into the benchmark's result line. See perfbench/README.md.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "core/ptucker.h"
#include "tensor/sparse_tensor.h"

namespace perfbench {

// Thread budgets: OpenMP threads for the solver and ingest workloads;
// listen + worker + load-generator threads for serve-tcp, whose batch
// kernel runs on the worker thread alone (one OpenMP thread).
const std::vector<Workload> kWorkloads = {
    {"als-movielens", 2, 2, GenAls, RunSolver},
    {"approx-serial", 1, 1, GenApprox, RunSolver},
    {"serve-tcp", 3, 1, GenServe, RunServe},
    {"stream-ingest", 2, 2, GenIngest, RunIngest},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  const std::size_t at = rank == 0 ? 0 : rank - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(at),
                   samples.end());
  return samples[at];
}

volatile double consumed = 0.0;

void Consume(double value) { consumed = value; }

bool BitEqual(const ptucker::TuckerFactorization& a,
              const ptucker::TuckerFactorization& b) {
  const auto same = [](const double* x, const double* y, std::int64_t n) {
    return std::memcmp(x, y, sizeof(double) * static_cast<std::size_t>(n)) == 0;
  };
  if (a.factors.size() != b.factors.size() || a.core.dims() != b.core.dims() ||
      !same(a.core.data(), b.core.data(), a.core.size())) {
    return false;
  }
  for (std::size_t n = 0; n < a.factors.size(); ++n) {
    const ptucker::Matrix& fa = a.factors[n];
    const ptucker::Matrix& fb = b.factors[n];
    if (fa.rows() != fb.rows() || fa.cols() != fb.cols() ||
        !same(fa.data(), fb.data(), fa.size())) {
      return false;
    }
  }
  return true;
}

Calibration::Calibration(const ptucker::SparseTensor& x, std::int64_t rank)
    : order_(x.order()), rank_(rank) {
  std::int64_t core_size = 1;
  for (std::int64_t n = 0; n < order_; ++n) core_size *= rank_;
  const double per_entry = static_cast<double>(order_ * (order_ - 1)) *
                           static_cast<double>(core_size);
  const std::int64_t stride = std::max<std::int64_t>(
      1, std::llround(static_cast<double>(x.nnz()) * per_entry / 6e7));
  for (std::int64_t e = 0; e < x.nnz(); e += stride) {
    coords_.insert(coords_.end(), x.index(e), x.index(e) + order_);
  }
  madds_ = static_cast<double>(coords_.size()) /
           static_cast<double>(order_) * per_entry;
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return 0.5 + static_cast<double>(state % 1024) / 2048.0;
  };
  for (std::int64_t n = 0; n < order_; ++n) {
    factors_.emplace_back(static_cast<std::size_t>(x.dim(n) * rank_));
    for (double& v : factors_.back()) v = next();
  }
  for (std::int64_t k = 0; k < core_size; ++k) {
    for (std::int64_t n = 0, r = k; n < order_; ++n, r /= rank_) {
      core_index_.push_back(r % rank_);
    }
    core_.push_back(next());
  }
}

double Calibration::Sweep() const {
  const auto entries = static_cast<std::int64_t>(coords_.size()) / order_;
  const auto core_size = static_cast<std::int64_t>(core_.size());
  double checksum = 0.0;
  const std::int64_t start = NowNs();
#pragma omp parallel reduction(+ : checksum)
  {
    std::vector<double> acc(static_cast<std::size_t>(rank_));
#pragma omp for schedule(static)
    for (std::int64_t e = 0; e < entries; ++e) {
      const std::int64_t* ix = &coords_[static_cast<std::size_t>(e * order_)];
      for (std::int64_t n = 0; n < order_; ++n) {
        std::fill(acc.begin(), acc.end(), 0.0);
        for (std::int64_t k = 0; k < core_size; ++k) {
          const std::int64_t* j =
              &core_index_[static_cast<std::size_t>(k * order_)];
          double product = core_[static_cast<std::size_t>(k)];
          for (std::int64_t m = 0; m < order_; ++m) {
            if (m != n) {
              product *= factors_[static_cast<std::size_t>(m)]
                                 [static_cast<std::size_t>(ix[m] * rank_ + j[m])];
            }
          }
          acc[static_cast<std::size_t>(j[n])] += product;
        }
        checksum += acc[0];
      }
    }
  }
  const double seconds = SecondsSince(start);
  Consume(checksum);
  return seconds;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, std::int64_t count) {
  metrics_.push_back({name, value, unit, count});
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail, bool counts) {
  checks_.push_back({name, ok, detail});
  if (!ok && counts) ++failed_;
}

std::string Report::Json() const {
  std::ostringstream out;
  out << "{\"attempted\":" << attempted_ << ",\"failed\":" << failed_
      << ",\"metrics\":[";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& m = metrics_[i];
    out << (i ? "," : "") << "{\"name\":" << JsonString(m.name)
        << ",\"value\":" << JsonNumber(m.value)
        << ",\"unit\":" << JsonString(m.unit) << ",\"count\":" << m.count
        << "}";
  }
  out << "],\"checks\":[";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    const CheckResult& c = checks_[i];
    out << (i ? "," : "") << "{\"name\":" << JsonString(c.name)
        << ",\"ok\":" << (c.ok ? "true" : "false")
        << ",\"detail\":" << JsonString(c.detail) << "}";
  }
  out << "],\"notes\":[";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    out << (i ? "," : "") << JsonString(notes_[i]);
  }
  out << "]}";
  return out.str();
}

int SpanRecorder::Begin(const std::string& name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, NowNs(), 0, open_.empty() ? -1 : open_.back()});
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> SpanRecorder::SelfSeconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  for (double& s : self) s *= 1e-9;
  return self;
}

std::vector<double> SpanRecorder::SelfSecondsOf(const std::string& name) const {
  const std::vector<double> self = SelfSeconds();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(self[i]);
  }
  return out;
}

std::vector<double> SpanRecorder::DurationsOf(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-9);
    }
  }
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<double> self = SelfSeconds();
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":" << JsonString(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << JsonNumber(static_cast<double>(s.start_ns - origin) * 1e-3)
        << ",\"dur\":"
        << JsonNumber(static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"self_us\":" << JsonNumber(self[i] * 1e6) << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

void WriteMeta(const std::string& path, const Meta& meta) {
  std::ofstream out(path);
  for (const auto& kv : meta) out << kv.first << " " << kv.second << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

Meta ReadMeta(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  Meta meta;
  std::string key, value;
  while (in >> key && std::getline(in >> std::ws, value)) meta[key] = value;
  return meta;
}

std::vector<std::int64_t> ParseDims(const std::string& text) {
  std::vector<std::int64_t> dims;
  std::istringstream in(text);
  std::string field;
  while (std::getline(in, field, 'x')) dims.push_back(std::stoll(field));
  return dims;
}

std::string FormatDims(const std::vector<std::int64_t>& dims) {
  std::string out;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    out += (i ? "x" : "") + std::to_string(dims[i]);
  }
  return out;
}

namespace {

// Host-interference probe: a fixed pure-ALU loop (xorshift) and a fixed
// pointer chase through a 1 MiB random cycle (resident in L2). Each is
// timed five times; the medians are reported in ms.
std::string Probe() {
  std::vector<double> alu, l2;
  std::uint64_t sink = 0;
  const std::size_t n = (1u << 20) / sizeof(std::uint64_t);
  std::vector<std::uint64_t> next(n);
  for (std::size_t i = 0; i < n; ++i) next[i] = i;
  std::uint64_t x = 88172645463325252ull;
  for (std::size_t i = n - 1; i > 0; --i) {  // Sattolo: one n-cycle
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[static_cast<std::size_t>(x % i)]);
  }
  for (int rep = 0; rep < 5; ++rep) {
    std::int64_t start = NowNs();
    std::uint64_t y = 88172645463325252ull + static_cast<std::uint64_t>(rep);
    for (int i = 0; i < 20000000; ++i) {
      y ^= y << 13;
      y ^= y >> 7;
      y ^= y << 17;
    }
    alu.push_back(SecondsSince(start) * 1e3);
    sink += y;
    start = NowNs();
    std::uint64_t p = static_cast<std::uint64_t>(rep);
    for (int i = 0; i < 2000000; ++i) p = next[p];
    l2.push_back(SecondsSince(start) * 1e3);
    sink += p;
  }
  std::ostringstream out;
  out << "{\"alu_ms\":" << JsonNumber(Median(alu))
      << ",\"l2_ms\":" << JsonNumber(Median(l2))
      << ",\"sink\":" << (sink & 1) << "}";
  return out.str();
}

std::string Info() {
  std::ostringstream out;
  out << "{\"build_type\":" << JsonString(PTB_BUILD_TYPE)
      << ",\"compiler\":" << JsonString(PTB_COMPILER)
      << ",\"flags\":" << JsonString(PTB_CXX_FLAGS) << ",\"threads\":{";
  for (std::size_t i = 0; i < kWorkloads.size(); ++i) {
    out << (i ? "," : "") << JsonString(kWorkloads[i].name) << ":["
        << kWorkloads[i].threads << "," << kWorkloads[i].omp_threads << "]";
  }
  out << "}}";
  return out.str();
}

[[noreturn]] void Usage(const std::string& message) {
  std::fprintf(stderr, "ptbench: %s\n", message.c_str());
  std::exit(2);
}

int Main(int argc, char** argv) {
  if (argc < 2) Usage("missing command (info|probe|gen|run)");
  const std::string command = argv[1];
  std::string workload_name, dir, trace_out;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(flag + " needs a value");
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--dir") {
      dir = value;
    } else if (flag == "--seed") {
      seed = std::stoull(value);
    } else if (flag == "--seconds") {
      seconds = std::stod(value);
    } else if (flag == "--trace") {
      trace = std::stoi(value);
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (command == "info") {
    std::printf("%s\n", Info().c_str());
    return 0;
  }
  if (command == "probe") {
    std::printf("%s\n", Probe().c_str());
    return 0;
  }
  const Workload* workload = FindWorkload(workload_name);
  if (workload == nullptr) Usage("unknown workload '" + workload_name + "'");
  if (dir.empty()) Usage("--dir is required");
  if (command == "gen") {
    workload->gen(dir, seed);
    return 0;
  }
  if (command != "run") Usage("unknown command " + command);
  if (std::string(PTB_BUILD_TYPE) != "Release") {
    Usage("refusing to measure a " + std::string(PTB_BUILD_TYPE) +
          " build; configure with -DCMAKE_BUILD_TYPE=Release");
  }
  RunContext ctx;
  ctx.dir = dir;
  ctx.seconds = seconds;
  ctx.threads = workload->threads;
  ctx.traced = trace != 0;
  ctx.trace_out = trace_out;
  SpanRecorder spans;
  if (ctx.traced) ctx.spans = &spans;
  Report report;
  workload->run(ctx, &report);
  report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  if (ctx.traced && !ctx.trace_out.empty() &&
      !spans.WriteChromeTrace(ctx.trace_out)) {
    report.Check("trace_written", false, "cannot write " + ctx.trace_out);
  }
  std::printf("%s\n", report.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ptbench: %s\n", e.what());
    return 1;
  }
}

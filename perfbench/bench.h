// Shared plumbing of the benchmark executable: the run report (metrics,
// correctness checks, attempted/failed counts), the in-memory span
// recorder behind the traced runs, the host-speed calibration of the
// measured runs, and small timing/statistics helpers.
// Every span here is recorded by the benchmark around a public library
// call; nothing inside the library is instrumented.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ptucker {
class SparseTensor;
struct TuckerFactorization;
}

namespace perfbench {

// True when both models have the same shapes and bit-identical factors
// and core.
bool BitEqual(const ptucker::TuckerFactorization& a,
              const ptucker::TuckerFactorization& b);

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// Nearest-rank percentile (p in [0, 100]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double p);
inline double Median(const std::vector<double>& samples) {
  return Percentile(samples, 50.0);
}

inline double Sum(const std::vector<double>& samples) {
  double sum = 0.0;
  for (const double s : samples) sum += s;
  return sum;
}

// Units that every repeat does alike (iteration i of each solve, window w
// of each pass): entry i is unit i's median over the repeats.
inline std::vector<double> MedianPerUnit(
    const std::vector<std::vector<double>>& repeats) {
  std::vector<double> out;
  for (std::size_t i = 0; !repeats.empty() && i < repeats[0].size(); ++i) {
    std::vector<double> unit;
    for (const std::vector<double>& r : repeats) unit.push_back(r.at(i));
    out.push_back(Median(unit));
  }
  return out;
}

// Peak resident set of this process in MiB (getrusage).
double PeakRssMb();

// Keeps a computed value observable so timed calls are not optimized out.
void Consume(double value);

// Host-speed calibration of the compute-bound workloads (README.md,
// "Noise"). The host's speed drifts by up to 2x over tens of seconds, so
// each unit of work is timed between two sweeps of a reference kernel and
// rescaled to a fixed reference speed. The reference is a naive δ sweep
// written here, independent of the library: for every mode of a fixed
// subset of the workload's own coordinates, the dense rank-R core
// contraction against fixed pseudo-random factors. It has the solver's
// access pattern on the solver's data, so it slows down with the host as
// the solver does, while no change to the library can change its cost.
class Calibration {
 public:
  // The reference speed that calibrated times are expressed at.
  static constexpr double kReferenceMaddsPerSecond = 1e9;

  // Copies every k-th coordinate tuple of `x`, k chosen so one sweep costs
  // about 6e7 multiply-adds.
  Calibration(const ptucker::SparseTensor& x, std::int64_t rank);

  // Runs one reference sweep (on OMP_NUM_THREADS threads) and returns its
  // wall seconds.
  double Sweep() const;
  // `seconds` of work timed between sweeps that took `before` and `after`,
  // rescaled to the reference speed.
  double Calibrated(double seconds, double before, double after) const {
    return seconds * (madds_ / kReferenceMaddsPerSecond) /
           (0.5 * (before + after));
  }

 private:
  std::int64_t order_;
  std::int64_t rank_;
  std::vector<std::int64_t> coords_;  // order_ per entry
  std::vector<std::vector<double>> factors_;
  std::vector<std::int64_t> core_index_;  // order_ per core entry
  std::vector<double> core_;
  double madds_ = 0.0;  // per sweep, computed: (N−1)·R^N per (entry, mode)
};

// What one `ptbench run` reports. Timings carry their sample count.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              std::int64_t count = 1);
  // A correctness check. A failed check is a failed operation unless
  // `counts` is false (a summary of failures already counted per unit).
  void Check(const std::string& name, bool ok, const std::string& detail,
             bool counts = true);
  // One unit of work (a solve, a request, an ingest pass) was attempted.
  void Attempt(std::int64_t n = 1) { attempted_ += n; }
  void Fail(std::int64_t n = 1) { failed_ += n; }
  void Note(const std::string& text) { notes_.push_back(text); }

  // One JSON object on one line: metrics, checks, notes and counts.
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::int64_t count;
  };
  struct CheckResult {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Entry> metrics_;
  std::vector<CheckResult> checks_;
  std::vector<std::string> notes_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// In-memory span recorder for the traced runs. Spans nest on the calling
// thread (the benchmark records from its main thread only); each keeps
// its parent so self time = duration − time covered by its children.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;  // index into spans(), −1 at top level
  };

  int Begin(const std::string& name);
  void End(int id);

  // Per-span self time in seconds, indexed like spans().
  std::vector<double> SelfSeconds() const;
  // Self times (seconds) of every span called `name`, in start order.
  std::vector<double> SelfSecondsOf(const std::string& name) const;
  // Durations (seconds) of every span called `name`, in start order.
  std::vector<double> DurationsOf(const std::string& name) const;
  // Chrome trace-event JSON ("X" events, µs), with self time and the
  // parent's index in each event's args.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null recorder records nothing (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), id_(recorder ? recorder->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

// Everything a workload needs to run once.
struct RunContext {
  std::string dir;          // generated inputs (and scratch output)
  double seconds = 10.0;    // measuring budget of the main phase
  int threads = 1;          // the workload's thread budget
  bool traced = false;      // --trace 1: per-layer metrics
  std::string trace_out;    // Chrome trace path (traced runs)
  SpanRecorder* spans = nullptr;  // non-null iff traced
};

// Key/value inputs description written by `gen` next to the data files.
using Meta = std::map<std::string, std::string>;
void WriteMeta(const std::string& path, const Meta& meta);
Meta ReadMeta(const std::string& path);
std::vector<std::int64_t> ParseDims(const std::string& text);
std::string FormatDims(const std::vector<std::int64_t>& dims);

// Workload entry points. `Gen*` writes the inputs for a seed into `dir`;
// `Run*` reads only those files.
void GenAls(const std::string& dir, std::uint64_t seed);
void GenApprox(const std::string& dir, std::uint64_t seed);
void GenServe(const std::string& dir, std::uint64_t seed);
void GenIngest(const std::string& dir, std::uint64_t seed);
void RunSolver(const RunContext& ctx, Report* report);
void RunServe(const RunContext& ctx, Report* report);
void RunIngest(const RunContext& ctx, Report* report);

// The workload table: name, thread budget, generator and runner.
struct Workload {
  const char* name;
  int threads;      // all threads the workload runs at once
  int omp_threads;  // OMP_NUM_THREADS for the run (the OpenMP share)
  void (*gen)(const std::string& dir, std::uint64_t seed);
  void (*run)(const RunContext& ctx, Report* report);
};
extern const std::vector<Workload> kWorkloads;
const Workload* FindWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_

// ptucker_cli — command-line driver for the library. `ptucker_cli --help`
// lists the subcommands, the methods, the δ-engines and each flag under
// the subcommands that take it, generated from the tables below, and
// names the kernel build this CPU runs (util/cpu.h).
#include <omp.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "baselines/cp_als.h"
#include "baselines/hooi.h"
#include "core/delta_engine.h"
#include "baselines/shot.h"
#include "baselines/tucker_csf.h"
#include "baselines/tucker_wopt.h"
#include "core/ptucker.h"
#include "core/reconstruction.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "distributed/proc/dist_solver.h"
#include "linalg/matrix_io.h"
#include "data/movielens_sim.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/net/client.h"
#include "serve/net/server.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/snapshot_v2.h"
#include "stream/event_log.h"
#include "stream/ingest_pipeline.h"
#include "tensor/io.h"
#include "util/cpu.h"
#include "util/format.h"
#include "util/random.h"

namespace {

using namespace ptucker;

// One row of the subcommand table. The parser, the flag table's
// subcommand sets and the --help text all read this one table (the
// DeltaEngineCatalog() pattern), so the accepted subcommands and their
// documentation cannot drift apart. Summaries name no flag: --help
// lists each flag once, in the flag table's part.
struct SubcommandDescriptor {
  const char* name;
  const char* summary;
};

constexpr SubcommandDescriptor kSubcommands[] = {
    {"decompose", "factorize a tensor (the default when no subcommand given)"},
    {"solve",
     "factorize across forked worker processes, bit-identical to decompose "
     "(docs/distributed.md)"},
    {"predict", "batch x-hat predictions from a model snapshot"},
    {"topk", "top-K completions along one mode of a model snapshot"},
    {"convert-model", "rewrite a model snapshot as v2 with IVF centroids"},
    {"serve",
     "serve a model snapshot over TCP: epoll loops + cross-client batch "
     "coalescing (docs/serving.md)"},
    {"stats",
     "fetch live telemetry from a running serve: `stats host:port` prints "
     "the METRICS exposition text (docs/observability.md)"},
    {"gen-stream", "simulate a tensor + a timestamped event stream on it"},
    {"replay",
     "stream an event log through the ingest pipeline over a fitted model "
     "(docs/streaming.md)"},
};

// The decompositions `decompose` runs; ptucker is the default.
constexpr const char* kMethods[] = {"ptucker", "hooi", "shot",
                                    "csf",     "wopt", "cp"};

constexpr std::string_view NameOf(const SubcommandDescriptor& sub) {
  return sub.name;
}
constexpr std::string_view NameOf(const char* name) { return name; }

// The position of `name` in `table`, or N when it is not there.
template <typename Entry, std::size_t N>
constexpr std::size_t IndexOf(const Entry (&table)[N], std::string_view name) {
  std::size_t i = 0;
  while (i < N && NameOf(table[i]) != name) ++i;
  return i;
}

// The set of the space-separated `names` as bits: bit i is table[i]. A
// name not in the table throws, which fails the build where the flag
// table below evaluates this as a constant expression.
template <typename Entry, std::size_t N>
constexpr unsigned BitsOf(const Entry (&table)[N], std::string_view names) {
  unsigned bits = 0;
  while (!names.empty()) {
    const std::string_view name = names.substr(0, names.find(' '));
    const std::size_t i = IndexOf(table, name);
    if (i == N) throw std::logic_error("name not in the table");
    bits |= 1u << i;
    names.remove_prefix(std::min(names.size(), name.size() + 1));
  }
  return bits;
}

// The names of the set `bits`, comma-separated.
template <typename Entry, std::size_t N>
std::string NamesOf(const Entry (&table)[N], unsigned bits) {
  std::string names;
  for (std::size_t i = 0; i < N; ++i) {
    if ((bits >> i & 1u) == 0) continue;
    if (!names.empty()) names += ", ";
    names += NameOf(table[i]);
  }
  return names;
}

constexpr unsigned Subcommands(std::string_view names) {
  return BitsOf(kSubcommands, names);
}
constexpr unsigned Methods(std::string_view names) {
  return BitsOf(kMethods, names);
}
constexpr unsigned kEverySubcommand = (1u << std::size(kSubcommands)) - 1;
constexpr unsigned kAnyMethod = (1u << std::size(kMethods)) - 1;

struct CliConfig {
  std::string subcommand = "decompose";
  bool help = false;
  std::string input;
  std::string output_dir;
  std::string method = "ptucker";
  std::string variant = "memory";
  std::string delta_engine;  // empty = contraction
  std::vector<std::int64_t> ranks;
  std::int64_t uniform_rank = 0;
  double lambda = 0.01;
  int max_iters = 20;
  double tolerance = 1e-4;
  double truncation_rate = 0.2;
  double sample_rate = 1.0;
  int threads = 0;
  std::uint64_t seed = 0x5eedULL;
  double test_fraction = 0.0;
  bool update_core = false;
  bool quiet = false;
  bool selftest = false;
  std::string save_model;
  std::string load_model;
  std::string queries;
  std::int64_t topk_mode = 0;  // 1-based, as in .tns files
  std::vector<std::int64_t> topk_index;
  std::int64_t topk_k = 10;
  std::optional<std::int64_t> topk_nprobe;  // unset = 'all' (exact scan)
  std::int64_t serve_port = 0;
  std::int64_t serve_listen_threads = 1;
  std::int64_t serve_worker_threads = 2;
  std::int64_t serve_max_batch = 64;
  std::int64_t serve_batch_window_us = 100;
  std::int64_t serve_queue_capacity = 8192;
  std::int64_t serve_seconds = 0;
  std::int64_t serve_overload_timeout_ms = -1;
  std::string output_tensor;
  std::string events;
  std::int64_t stream_num_events = 5000;
  double stream_update_fraction = 0.2;
  double stream_delete_fraction = 0.1;
  std::int64_t stream_max_timestamp_step = 1000;
  std::int64_t flush_every = 64;
  std::int64_t checkpoint_every = 0;
  std::string checkpoint_dir;
  std::int64_t dist_workers = 2;
  std::string stats_target;  // stats: the host:port positional
  std::string trace_out;     // empty = tracing off
  std::int64_t metrics_log_ms = 0;
};

// The CliConfig field a flag writes; its type is the flag's value kind.
// A bool field is a switch that takes no value, an optional int64 reads
// `N|all` (all = unset), a vector reads a comma-separated list.
using FlagField =
    std::variant<bool CliConfig::*, std::string CliConfig::*,
                 int CliConfig::*, std::int64_t CliConfig::*,
                 std::uint64_t CliConfig::*, double CliConfig::*,
                 std::vector<std::int64_t> CliConfig::*,
                 std::optional<std::int64_t> CliConfig::*>;

constexpr double kInf = std::numeric_limits<double>::infinity();

// One row of the flag table. Parsing, the range checks, the subcommand
// and method checks and the --help text all read this one table.
struct FlagSpec {
  const char* name;
  const char* value;  // --help's placeholder for the value; "" for a switch
  FlagField field;
  unsigned subcommands;  // bit i: kSubcommands[i] takes the flag
  unsigned methods;      // bit i: --method kMethods[i] reads it
  const char* help;
  double min = -kInf;  // the value must lie in [min, max]
  double max = kInf;
};

constexpr unsigned kSolvers = Subcommands("decompose solve");
constexpr unsigned kAlsRuns = Subcommands("decompose solve replay");
constexpr unsigned kServe = Subcommands("serve");
constexpr unsigned kTopk = Subcommands("topk");
constexpr unsigned kGenStream = Subcommands("gen-stream");
constexpr unsigned kReplay = Subcommands("replay");
constexpr unsigned kPTucker = Methods("ptucker");

constexpr FlagSpec kFlags[] = {
    {"--help", "", &CliConfig::help, kEverySubcommand, kAnyMethod,
     "print this text and exit"},
    {"--selftest", "", &CliConfig::selftest, kSolvers, kAnyMethod,
     "factorize a synthetic 50x40x30 tensor and check the error"},
    {"--ranks", "J1,J2,...", &CliConfig::ranks, kSolvers, kAnyMethod,
     "core dimensionality per mode"},
    {"--rank", "J", &CliConfig::uniform_rank, kSolvers, kAnyMethod,
     "one core dimensionality for every mode", 1},
    {"--max-iters", "N", &CliConfig::max_iters, kSolvers, kAnyMethod,
     "maximum ALS iterations (default 20)"},
    {"--tolerance", "X", &CliConfig::tolerance, kSolvers, kAnyMethod,
     "relative-error convergence (default 1e-4)"},
    {"--truncation-rate", "P", &CliConfig::truncation_rate, kSolvers, kPTucker,
     "the approx variant's p (default 0.2)"},
    {"--sample-rate", "P", &CliConfig::sample_rate, kSolvers, kPTucker,
     "entry-sampling extension, (0, 1] (default 1)"},
    {"--update-core", "", &CliConfig::update_core, kSolvers, kPTucker,
     "enable the core-update extension"},
    {"--test-fraction", "F", &CliConfig::test_fraction, kSolvers, kAnyMethod,
     "hold out this fraction of the entries; report test RMSE"},
    {"--output-dir", "DIR", &CliConfig::output_dir, kSolvers, kAnyMethod,
     "write factor_<n>.txt + core.tns there"},
    {"--quiet", "", &CliConfig::quiet, kSolvers, kAnyMethod,
     "suppress per-iteration output"},
    {"--method", "NAME", &CliConfig::method, Subcommands("decompose"),
     kAnyMethod, "the decomposition (methods above; default ptucker)"},
    {"--workers", "N", &CliConfig::dist_workers, Subcommands("solve"),
     kAnyMethod, "worker processes (default 2)", 1, 64},
    {"--seed", "S", &CliConfig::seed, kSolvers | kGenStream, kAnyMethod,
     "RNG seed (default 0x5eed)"},
    {"--input", "PATH", &CliConfig::input, kAlsRuns, kAnyMethod,
     "input tensor (.tns, 1-based indices)"},
    {"--threads", "T", &CliConfig::threads, kAlsRuns, kAnyMethod,
     "OpenMP threads (default 0 = all)", 0},
    {"--lambda", "X", &CliConfig::lambda, kAlsRuns, Methods("ptucker cp"),
     "L2 regularization (default 0.01)"},
    {"--variant", "NAME", &CliConfig::variant, kAlsRuns, kPTucker,
     "memory (default), cache (= the cache engine) or approx (not replay)"},
    {"--delta-engine", "NAME", &CliConfig::delta_engine, kAlsRuns, kPTucker,
     "the δ-engine (engines above; default contraction)"},
    {"--trace-out", "PATH", &CliConfig::trace_out, kAlsRuns | kServe,
     kAnyMethod, "write phase spans as Chrome trace JSON on exit"},
    {"--save-model", "PATH", &CliConfig::save_model,
     kAlsRuns | Subcommands("convert-model"), kAnyMethod,
     "write the model as a v2 snapshot with IVF centroids"},
    {"--load-model", "PATH", &CliConfig::load_model,
     kEverySubcommand & ~Subcommands("stats gen-stream"), kPTucker,
     "the model snapshot (a warm start for decompose and solve)"},
    {"--queries", "PATH", &CliConfig::queries, Subcommands("predict"),
     kAnyMethod, ".tns file of query coordinates (values are ignored)"},
    {"--mode", "M", &CliConfig::topk_mode, kTopk, kAnyMethod,
     "1-based mode to rank candidates along"},
    {"--index", "i1,i2,...", &CliConfig::topk_index, kTopk, kAnyMethod,
     "1-based query coordinates (the mode's slot is ignored)"},
    {"--k", "K", &CliConfig::topk_k, kTopk, kAnyMethod,
     "number of results (default 10)", 1},
    {"--topk-nprobe", "N|all", &CliConfig::topk_nprobe, kTopk, kAnyMethod,
     "IVF clusters to probe: all = exact scan (default), 0 = auto"},
    {"--port", "P", &CliConfig::serve_port, kServe, kAnyMethod,
     "TCP port; 0 = ephemeral (default)", 0, 65535},
    {"--listen-threads", "N", &CliConfig::serve_listen_threads, kServe,
     kAnyMethod, "epoll loops / SO_REUSEPORT shards (default 1)", 1, 64},
    {"--worker-threads", "N", &CliConfig::serve_worker_threads, kServe,
     kAnyMethod, "coalescer batch executors (default 2)", 1, 64},
    {"--max-batch", "B", &CliConfig::serve_max_batch, kServe, kAnyMethod,
     "coalesced batch cap (default 64)", 1, 4096},
    {"--batch-window-us", "U", &CliConfig::serve_batch_window_us, kServe,
     kAnyMethod, "batch fill window (default 100)", 0, 1000000},
    {"--queue-capacity", "Q", &CliConfig::serve_queue_capacity, kServe,
     kAnyMethod, "request queue bound, >= the batch cap (default 8192)"},
    {"--serve-seconds", "S", &CliConfig::serve_seconds, kServe, kAnyMethod,
     "stop after S seconds; 0 = run forever (default)", 0, 86400},
    {"--overload-timeout-ms", "D", &CliConfig::serve_overload_timeout_ms,
     kServe, kAnyMethod,
     "shed a request parked on a full queue after D ms; -1 = park forever "
     "(default), 0 = at once", -1, 3600000},
    {"--metrics-log-ms", "N", &CliConfig::metrics_log_ms, kServe, kAnyMethod,
     "log a metrics line every N ms; 0 = off (default)", 0, 3600000},
    {"--events", "PATH", &CliConfig::events, kGenStream | kReplay, kAnyMethod,
     "the event log gen-stream writes and replay plays back"},
    {"--output-tensor", "PATH", &CliConfig::output_tensor, kGenStream,
     kAnyMethod, "the initial tensor (.tns)"},
    {"--num-events", "N", &CliConfig::stream_num_events, kGenStream, kAnyMethod,
     "mutations after the initial load (default 5000)", 0},
    {"--update-fraction", "F", &CliConfig::stream_update_fraction, kGenStream,
     kAnyMethod, "P(an event re-rates a live entry) (default 0.2)", 0, 1},
    {"--delete-fraction", "F", &CliConfig::stream_delete_fraction, kGenStream,
     kAnyMethod, "P(an event deletes a live entry) (default 0.1)", 0, 1},
    {"--max-timestamp-step", "N", &CliConfig::stream_max_timestamp_step,
     kGenStream, kAnyMethod, "max gap between timestamps (default 1000)", 0},
    {"--flush-every", "N", &CliConfig::flush_every, kReplay, kAnyMethod,
     "buffered mutations per flush (default 64)", 1},
    {"--checkpoint-every", "N", &CliConfig::checkpoint_every, kReplay,
     kAnyMethod, "mutations between checkpoints; 0 = final only (default)", 0},
    {"--checkpoint-dir", "DIR", &CliConfig::checkpoint_dir, kReplay, kAnyMethod,
     "durable checkpoints; a MANIFEST there resumes from its checkpoint"},
};

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "ptucker_cli: %s\n", message.c_str());
  std::fprintf(stderr, "run with --help for usage\n");
  std::exit(2);
}

std::string Number(double value) {
  char text[32];
  std::snprintf(text, sizeof(text), "%.15g", value);
  return text;
}

// A flag's range as "in [min, max]", ">= min" or "<= max"; empty when
// the flag takes any value of its type.
std::string RangeText(const FlagSpec& flag) {
  if (flag.min > -kInf && flag.max < kInf) {
    return "in [" + Number(flag.min) + ", " + Number(flag.max) + "]";
  }
  if (flag.min > -kInf) return ">= " + Number(flag.min);
  if (flag.max < kInf) return "<= " + Number(flag.max);
  return "";
}

[[noreturn]] void PrintUsageAndExit() {
  std::printf("usage: ptucker_cli [SUBCOMMAND] [FLAG [VALUE]]...\n\n");
  std::printf("subcommands (first argument; default decompose):\n");
  for (const SubcommandDescriptor& sub : kSubcommands) {
    std::printf("  %-18s %s\n", sub.name, sub.summary);
  }
  std::printf("\nmethods of decompose: %s\n",
              NamesOf(kMethods, kAnyMethod).c_str());
  std::printf("engines of ptucker:\n");
  for (const DeltaEngineDescriptor& engine : DeltaEngineCatalog()) {
    std::printf("  %-18s %s\n", engine.name, engine.summary);
  }
  // Each flag once, in table order, under the subcommands that take it.
  for (std::size_t i = 0; i < std::size(kFlags); ++i) {
    const FlagSpec& flag = kFlags[i];
    if (i == 0 || flag.subcommands != kFlags[i - 1].subcommands) {
      std::printf("\nflags of %s:\n",
                  flag.subcommands == kEverySubcommand
                      ? "every subcommand"
                      : NamesOf(kSubcommands, flag.subcommands).c_str());
    }
    std::string help = flag.help;
    const std::string range = RangeText(flag);
    if (!range.empty()) help += "; " + range;
    if (flag.methods != kAnyMethod) {
      help += " (method " + NamesOf(kMethods, flag.methods) + ")";
    }
    std::printf("  %-26s %s\n",
                (std::string(flag.name) + " " + flag.value).c_str(),
                help.c_str());
  }
  std::printf("\nflags accept both '--flag value' and '--flag=value'\n");
  std::printf("\nkernels: %s\n", KernelIsaName());
  std::exit(0);
}

// The whole of `token` as an integer of type T in [min, max]. Anything
// else — trailing characters, a fraction, a sign T cannot hold, a value
// out of range — exits 2, naming `flag` and the token.
template <typename T>
T ParseInteger(const std::string& token, const std::string& flag,
               T min = std::numeric_limits<T>::min(),
               T max = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, value);
  if (token.empty() || error != std::errc() || stop != end || value < min ||
      value > max) {
    Fail("bad " + flag + " value '" + token + "' (an integer in [" +
         std::to_string(min) + ", " + std::to_string(max) + "] expected)");
  }
  return value;
}

// The whole of `token` as a finite double; anything else exits 2, naming
// `flag` and the token.
double ParseDouble(const std::string& token, const std::string& flag) {
  double value = 0.0;
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, value);
  if (token.empty() || error != std::errc() || stop != end ||
      !std::isfinite(value)) {
    Fail("bad " + flag + " value '" + token + "' (a finite number expected)");
  }
  return value;
}

// Comma-separated list of positive integers (--ranks, --index).
std::vector<std::int64_t> ParseIntList(const std::string& spec,
                                       const std::string& flag) {
  std::vector<std::int64_t> values;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string token =
        spec.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (token.empty()) Fail("bad " + flag + " value: '" + spec + "'");
    values.push_back(ParseInteger<std::int64_t>(token, flag, 1));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return values;
}

// Reads `token`, the value of `flag`, into a field of the flag's kind.
void Assign(const std::string&, const std::string&, bool& out) { out = true; }
void Assign(const std::string& token, const std::string&, std::string& out) {
  out = token;
}
void Assign(const std::string& token, const std::string& flag, double& out) {
  out = ParseDouble(token, flag);
}
void Assign(const std::string& token, const std::string& flag,
            std::vector<std::int64_t>& out) {
  out = ParseIntList(token, flag);
}
void Assign(const std::string& token, const std::string& flag,
            std::optional<std::int64_t>& out) {
  out.reset();
  if (token != "all") out = ParseInteger<std::int64_t>(token, flag, 0);
}
template <typename Integer>
void Assign(const std::string& token, const std::string& flag, Integer& out) {
  out = ParseInteger<Integer>(token, flag);
}

// Exits 2 unless the numeric value `flag` wrote lies in its range.
void CheckRange(const FlagSpec& flag, const CliConfig& config) {
  std::visit(
      [&](auto field) {
        const auto& value = config.*field;
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
          if (value < flag.min || value > flag.max) {
            Fail(std::string(flag.name) + " must be " + RangeText(flag) +
                 ", got " +
                 (std::is_integral_v<T> ? std::to_string(value)
                                        : Number(value)));
          }
        }
      },
      flag.field);
}

CliConfig ParseArgs(int argc, char** argv) {
  CliConfig config;
  // An optional subcommand leads the argument list; every later
  // positional argument is an error, and an unrecognized subcommand is
  // rejected against the catalog instead of silently falling back to
  // decompose.
  int first_flag = 1;
  if (argc > 1 && argv[1][0] != '-') {
    config.subcommand = argv[1];
    if (IndexOf(kSubcommands, config.subcommand) == std::size(kSubcommands)) {
      Fail("unknown subcommand '" + config.subcommand +
           "'; expected one of: " +
           NamesOf(kSubcommands, kEverySubcommand));
    }
    first_flag = 2;
  }
  std::vector<const FlagSpec*> given;
  for (int i = first_flag; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.empty() || arg[0] != '-') {
      // `stats` is the one subcommand with a positional operand: the
      // host:port of the serve to query.
      if (config.subcommand == "stats" && config.stats_target.empty()) {
        config.stats_target = arg;
        continue;
      }
      Fail("unexpected positional argument '" + arg +
           "' (only one leading subcommand is accepted; subcommands: " +
           NamesOf(kSubcommands, kEverySubcommand) + ")");
    }
    // `--flag=value` carries its value inline; `--flag value` reads the
    // next argv slot.
    std::optional<std::string> value;
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    }
    if (arg == "-h") PrintUsageAndExit();
    const FlagSpec* flag = std::find_if(
        std::begin(kFlags), std::end(kFlags),
        [&](const FlagSpec& row) { return arg == row.name; });
    if (flag == std::end(kFlags)) Fail("unknown flag: " + arg);
    const bool is_switch =
        std::holds_alternative<bool CliConfig::*>(flag->field);
    if (is_switch && value) Fail("flag does not take a value: " + arg);
    if (!is_switch && !value) {
      if (i + 1 >= argc) Fail("missing value for " + arg);
      value = argv[++i];
    }
    std::visit(
        [&](auto field) { Assign(value.value_or(""), arg, config.*field); },
        flag->field);
    if (config.help) PrintUsageAndExit();
    given.push_back(flag);
  }
  // A flag the subcommand or the method does not read is an error, not
  // a silent no-op: it would otherwise run a different experiment than
  // the one asked for.
  const std::size_t subcommand = IndexOf(kSubcommands, config.subcommand);
  const std::size_t method = IndexOf(kMethods, config.method);
  if (method == std::size(kMethods)) {
    Fail("unknown --method: " + config.method + "; expected one of: " +
         NamesOf(kMethods, kAnyMethod));
  }
  for (const FlagSpec* flag : given) {
    if ((flag->subcommands >> subcommand & 1u) == 0) {
      Fail(std::string(flag->name) + " does not apply to " +
           config.subcommand + " (it applies to " +
           NamesOf(kSubcommands, flag->subcommands) + ")");
    }
    if ((flag->methods >> method & 1u) == 0) {
      Fail(std::string(flag->name) + " is not read by --method " +
           config.method + " (only by " + NamesOf(kMethods, flag->methods) +
           ")");
    }
    CheckRange(*flag, config);
  }
  // The two checks that relate two flags.
  if (config.serve_queue_capacity < config.serve_max_batch) {
    Fail("--queue-capacity must be >= --max-batch (" +
         std::to_string(config.serve_max_batch) + "), got " +
         std::to_string(config.serve_queue_capacity));
  }
  if (config.stream_update_fraction + config.stream_delete_fraction > 1.0) {
    Fail("--update-fraction and --delete-fraction must sum to <= 1");
  }
  return config;
}

void PrintTrace(const std::vector<IterationStats>& iterations, bool quiet) {
  if (quiet) return;
  std::printf("iter   error        secs     |G|\n");
  for (const auto& it : iterations) {
    std::printf("%4d   %-10.4f   %-6.3f   %lld\n", it.iteration, it.error,
                it.seconds, static_cast<long long>(it.core_nnz));
  }
}

void WriteModel(const TuckerFactorization& model,
                const std::string& output_dir) {
  std::filesystem::create_directories(output_dir);
  for (std::size_t n = 0; n < model.factors.size(); ++n) {
    WriteMatrix(output_dir + "/factor_" + std::to_string(n + 1) + ".txt",
                model.factors[n]);
  }
  WriteTns(output_dir + "/core.tns", SparseFromDense(model.core));
  std::printf("model written to %s (factor_1..%zu.txt, core.tns)\n",
              output_dir.c_str(), model.factors.size());
}

// Loads --load-model and stands up a serving snapshot + service over it
// (shared by the predict and topk subcommands).
PredictionService MakeService(const CliConfig& config) {
  if (config.load_model.empty()) {
    Fail(config.subcommand + " requires --load-model PATH");
  }
  // Snapshots are mmap-ed and served zero-copy.
  std::shared_ptr<const ModelSnapshot> snapshot =
      ModelSnapshot::CreateFromFile(config.load_model);
  std::printf("model: %lld modes, dims ",
              static_cast<long long>(snapshot->order()));
  for (std::int64_t n = 0; n < snapshot->order(); ++n) {
    std::printf("%s%lld", n == 0 ? "" : "x",
                static_cast<long long>(snapshot->dim(n)));
  }
  std::printf(", core nnz %lld\n",
              static_cast<long long>(snapshot->core_nnz()));
  return PredictionService(std::move(snapshot));
}

int RunPredict(const CliConfig& config) {
  if (config.queries.empty()) {
    Fail("predict requires --queries PATH (.tns coordinates)");
  }
  PredictionService service = MakeService(config);
  const std::shared_ptr<const ModelSnapshot> snapshot = service.snapshot();
  std::vector<std::int64_t> dims;
  for (std::int64_t n = 0; n < snapshot->order(); ++n) {
    dims.push_back(snapshot->dim(n));
  }
  // Passing the model dims validates every query coordinate at parse
  // time with a line-numbered error.
  const SparseTensor queries = ReadTns(config.queries, dims);
  const std::vector<double> predictions = service.PredictBatch(queries);
  std::printf("%lld predictions (1-based coordinates):\n",
              static_cast<long long>(queries.nnz()));
  for (std::int64_t e = 0; e < queries.nnz(); ++e) {
    for (std::int64_t n = 0; n < queries.order(); ++n) {
      std::printf("%lld ", static_cast<long long>(queries.index(e, n) + 1));
    }
    std::printf("%.6f\n", predictions[static_cast<std::size_t>(e)]);
  }
  return 0;
}

int RunTopk(const CliConfig& config) {
  PredictionService service = MakeService(config);
  const std::shared_ptr<const ModelSnapshot> snapshot = service.snapshot();
  const std::int64_t order = snapshot->order();
  if (config.topk_mode < 1 || config.topk_mode > order) {
    Fail("topk requires --mode in [1, " + std::to_string(order) +
         "] (1-based, like .tns indices)");
  }
  if (static_cast<std::int64_t>(config.topk_index.size()) != order) {
    Fail("topk requires --index with " + std::to_string(order) +
         " comma-separated 1-based coordinates (the --mode slot is "
         "ignored)");
  }
  const std::int64_t mode = config.topk_mode - 1;
  std::vector<std::int64_t> index;
  for (std::size_t n = 0; n < config.topk_index.size(); ++n) {
    // 1-based on the command line; the scanned mode's slot is a
    // placeholder TopK overwrites, clamp it into bounds.
    index.push_back(static_cast<std::int64_t>(n) == mode
                        ? 0
                        : config.topk_index[n] - 1);
  }
  const std::vector<ScoredIndex> top = service.TopK(
      mode, index, config.topk_k, /*exclude=*/nullptr,
      config.topk_nprobe.value_or(-1));
  std::printf("top-%lld along mode %lld:\n",
              static_cast<long long>(config.topk_k),
              static_cast<long long>(config.topk_mode));
  for (std::size_t r = 0; r < top.size(); ++r) {
    std::printf("%3zu. index %lld  predicted %.6f\n", r + 1,
                static_cast<long long>(top[r].index + 1), top[r].score);
  }
  return 0;
}

// serve: stand up the TCP front end (serve/net/server.h) over
// --load-model and block. With --serve-seconds the server runs for a
// bounded window and exits 0 — the shape the smoke test drives.
int RunServe(const CliConfig& config) {
  auto service =
      std::make_shared<PredictionService>(MakeService(config));
  NetServerOptions options;
  options.port = static_cast<int>(config.serve_port);
  options.listen_threads = static_cast<int>(config.serve_listen_threads);
  options.worker_threads = static_cast<int>(config.serve_worker_threads);
  options.max_batch = config.serve_max_batch;
  options.batch_window_us = config.serve_batch_window_us;
  options.queue_capacity = config.serve_queue_capacity;
  options.overload_timeout_ms = config.serve_overload_timeout_ms;
  NetServer server(service, options);
  server.Start();
  std::printf("serving on port %d (%d loops, %d workers, max batch %lld, "
              "window %lld us)\n",
              server.port(), options.listen_threads, options.worker_threads,
              static_cast<long long>(options.max_batch),
              static_cast<long long>(options.batch_window_us));
  std::fflush(stdout);

  // --metrics-log-ms: a detached cadence thread printing one compact
  // line from the global registry (the same registry the METRICS opcode
  // serves), for headless runs with no scraper attached.
  std::atomic<bool> log_stop{false};
  std::thread logger;
  if (config.metrics_log_ms > 0) {
    logger = std::thread([&config, &log_stop] {
      while (!log_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(config.metrics_log_ms));
        if (log_stop.load(std::memory_order_relaxed)) break;
        std::printf("metrics: %s\n", obs::GlobalMetrics().LogLine().c_str());
        std::fflush(stdout);
      }
    });
  }

  if (config.serve_seconds > 0) {
    std::this_thread::sleep_for(std::chrono::seconds(config.serve_seconds));
    log_stop.store(true, std::memory_order_relaxed);
    if (logger.joinable()) logger.join();
    server.Stop();
    // The server recorded into the global registry (no private one set).
    const ServeNetMetrics& metrics = ServeNetMetrics::Global();
    std::printf("stopped after %llds: %llu connections, %llu requests, "
                "%llu batches\n",
                static_cast<long long>(config.serve_seconds),
                static_cast<unsigned long long>(
                    metrics.connections_total->Value()),
                static_cast<unsigned long long>(
                    metrics.requests_total->Value()),
                static_cast<unsigned long long>(
                    metrics.batch_size->Snapshot().count));
    return 0;
  }
  while (true) {
    std::this_thread::sleep_for(std::chrono::hours(1));
  }
}

// stats: one METRICS round trip against a live serve — the exposition
// text lands on stdout, ready for a scraper or a grep.
int RunStats(const CliConfig& config) {
  if (config.stats_target.empty()) {
    Fail("stats requires a HOST:PORT argument (e.g. 127.0.0.1:7070)");
  }
  const std::size_t colon = config.stats_target.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= config.stats_target.size()) {
    Fail("stats target must be HOST:PORT, got '" + config.stats_target + "'");
  }
  const std::string host = config.stats_target.substr(0, colon);
  const int port = ParseInteger<int>(config.stats_target.substr(colon + 1),
                                     "stats target port", 1, 65535);
  NetClient client(host, port);
  std::fputs(client.Metrics().c_str(), stdout);
  return 0;
}

// gen-stream: write a simulated MovieLens-style tensor plus the
// timestamped append/update/delete event stream that mutates it — the
// inputs replay and bench_streaming consume. Deterministic in --seed.
int RunGenStream(const CliConfig& config) {
  if (config.output_tensor.empty()) {
    Fail("gen-stream requires --output-tensor PATH (.tns)");
  }
  if (config.events.empty()) {
    Fail("gen-stream requires --events PATH (the replay log)");
  }
  MovieLensStreamConfig stream_config;
  stream_config.num_events = config.stream_num_events;
  stream_config.update_fraction = config.stream_update_fraction;
  stream_config.delete_fraction = config.stream_delete_fraction;
  stream_config.max_timestamp_step = config.stream_max_timestamp_step;
  stream_config.seed = config.seed;
  const MovieLensStream stream = SimulateMovieLensStream(stream_config);
  WriteTns(config.output_tensor, stream.initial.tensor);
  WriteEventLog(config.events, stream.events,
                stream.initial.tensor.order());
  std::printf("initial tensor: %s (%s, %lld entries)\n",
              config.output_tensor.c_str(),
              JoinInts(stream.initial.tensor.dims(), "x").c_str(),
              static_cast<long long>(stream.initial.tensor.nnz()));
  std::printf("event stream:   %s (%lld events)\n", config.events.c_str(),
              static_cast<long long>(stream.events.size()));
  return 0;
}

// The δ-engine of decompose, solve and replay. `--variant cache` is the
// paper's name for `--delta-engine cache` (§III-C), so naming another
// engine beside it is a flag conflict. Engine names resolve through the
// same catalog --help prints. The ingest pipeline never truncates, so
// replay has no approx variant.
DeltaEngineChoice DeltaEngineFromFlags(const CliConfig& config) {
  if (config.variant != "memory" && config.variant != "cache" &&
      config.variant != "approx") {
    Fail("unknown --variant: " + config.variant);
  }
  if (config.variant == "approx" && config.subcommand == "replay") {
    Fail("--variant approx does not apply to replay (its ingest pipeline "
         "never truncates)");
  }
  const bool cache = config.variant == "cache";
  std::string name = config.delta_engine;
  if (name.empty()) {
    name = cache ? "cache"
                 : DeltaEngineChoiceName(PTuckerOptions().delta_engine);
  }
  const DeltaEngineDescriptor* engine = FindDeltaEngineByName(name);
  if (engine == nullptr) Fail("unknown --delta-engine: " + name);
  if (cache && engine->choice != DeltaEngineChoice::kCached) {
    Fail("--variant cache runs the cache delta-engine; it conflicts with "
         "--delta-engine " + name);
  }
  return engine->choice;
}

// replay: stream an event log through the ingest pipeline over the
// stream's initial tensor and a model fitted to it. With
// --checkpoint-dir the run is durable and resumable: an existing
// MANIFEST there restarts from its checkpoint and replays only the tail
// — landing on the same factors as an uninterrupted run.
int RunReplay(const CliConfig& config) {
  IngestOptions options;
  options.delta_engine = DeltaEngineFromFlags(config);
  if (config.input.empty()) {
    Fail("replay requires --input PATH (the stream's initial tensor)");
  }
  if (config.load_model.empty()) {
    Fail("replay requires --load-model PATH (a model fitted to --input)");
  }
  if (config.events.empty()) {
    Fail("replay requires --events PATH (see gen-stream)");
  }
  SparseTensor initial = ReadTns(config.input);
  initial.BuildModeIndex();
  std::int64_t order = 0;
  const std::vector<StreamEvent> events =
      ReadEventLog(config.events, &order);
  if (order != initial.order()) {
    Fail("--events order " + std::to_string(order) +
         " does not match the --input tensor's " +
         std::to_string(initial.order()));
  }

  options.lambda = config.lambda;
  options.num_threads = config.threads;
  options.flush_every = config.flush_every;
  options.checkpoint_every = config.checkpoint_every;
  options.checkpoint_dir = config.checkpoint_dir;

  // Resume: a MANIFEST in the checkpoint directory names the last
  // durable state — skip the events it already folded in.
  TuckerFactorization model;
  std::int64_t skip = 0;
  CheckpointInfo resume;
  if (!config.checkpoint_dir.empty() &&
      LatestCheckpoint(config.checkpoint_dir, &resume)) {
    if (resume.ops_applied > static_cast<std::int64_t>(events.size())) {
      Fail("checkpoint MANIFEST claims " +
           std::to_string(resume.ops_applied) +
           " events applied but --events has only " +
           std::to_string(events.size()));
    }
    model = LoadSnapshot(resume.path);
    skip = resume.ops_applied;
    initial = ReplayOmega(initial, events, skip);
    options.ops_already_applied = skip;
    std::printf("resuming from checkpoint %lld (%lld events already "
                "applied)\n",
                static_cast<long long>(resume.seq),
                static_cast<long long>(skip));
  } else {
    model = LoadSnapshot(config.load_model);
  }

  IngestPipeline pipeline(std::move(initial), std::move(model),
                          std::move(options));
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t e = static_cast<std::size_t>(skip); e < events.size();
       ++e) {
    pipeline.Apply(events[e]);
  }
  // Durable runs end with an explicit checkpoint so the MANIFEST covers
  // the whole log; in-memory runs just fold in the tail.
  if (config.checkpoint_dir.empty()) {
    pipeline.Flush();
  } else {
    pipeline.Checkpoint();
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const std::int64_t replayed =
      static_cast<std::int64_t>(events.size()) - skip;
  std::printf("replayed %lld events in %.3fs (%.0f events/s): Omega now "
              "%lld entries, %lld checkpoints\n",
              static_cast<long long>(replayed), seconds,
              seconds > 0.0 ? static_cast<double>(replayed) / seconds : 0.0,
              static_cast<long long>(pipeline.tensor().nnz()),
              static_cast<long long>(pipeline.checkpoints_written()));
  if (!config.save_model.empty()) {
    SaveSnapshotV2(config.save_model, pipeline.model(),
                   /*with_centroids=*/true);
    std::printf("final model written to %s\n", config.save_model.c_str());
  }
  return 0;
}

// convert-model: rewrite a snapshot with IVF centroids embedded, so
// topk --topk-nprobe can probe it.
int RunConvertModel(const CliConfig& config) {
  if (config.load_model.empty()) {
    Fail("convert-model requires --load-model PATH");
  }
  if (config.save_model.empty()) {
    Fail("convert-model requires --save-model PATH");
  }
  const TuckerFactorization model = LoadSnapshot(config.load_model);
  SaveSnapshotV2(config.save_model, model, /*with_centroids=*/true);
  std::printf("model snapshot written to %s (format v2, IVF centroids)\n",
              config.save_model.c_str());
  return 0;
}

// decompose and solve: one front half (input or selftest tensor, warm
// start, hold-out split, rank defaulting, solver options) and one back
// half (test RMSE, model output, selftest gate). `solve` only swaps in
// DistributedPTuckerDecompose: a coordinator forks --workers processes,
// each solving its contiguous block of factor rows, and fixed-lane
// reductions make the result bit-identical to `decompose` on the same
// flags (docs/distributed.md).
int Run(const CliConfig& config) {
  const bool solve = config.subcommand == "solve";
  SparseTensor x;
  if (config.selftest) {
    Rng rng(7);
    x = UniformSparseTensor({50, 40, 30}, 3000, rng);
    std::printf("selftest: synthetic 50x40x30 tensor, 3000 nnz\n");
  } else {
    if (config.input.empty()) Fail("--input is required");
    x = ReadTns(config.input);
    x.BuildModeIndex();
  }

  // Warm start: resume from a checkpointed model instead of random init.
  TuckerFactorization warm_start;
  const bool has_warm_start = !config.load_model.empty();
  if (has_warm_start) {
    warm_start = LoadSnapshot(config.load_model);
    std::printf("warm start from %s (core nnz %lld)\n",
                config.load_model.c_str(),
                static_cast<long long>(warm_start.core.CountNonZeros()));
  }

  std::vector<std::int64_t> ranks = config.ranks;
  if (ranks.empty() && config.uniform_rank > 0) {
    ranks.assign(static_cast<std::size_t>(x.order()), config.uniform_rank);
  }
  if (ranks.empty() && has_warm_start) ranks = warm_start.core.dims();
  if (ranks.empty() && config.selftest) ranks = {4, 4, 4};
  if (ranks.empty()) Fail("--ranks (or --rank) is required");
  if (static_cast<std::int64_t>(ranks.size()) != x.order()) {
    Fail("--ranks has " + std::to_string(ranks.size()) + " values but the "
         "tensor has " + std::to_string(x.order()) + " modes");
  }

  std::printf("tensor: %s, %lld observed entries; ranks: %s; ",
              JoinInts(x.dims(), "x").c_str(),
              static_cast<long long>(x.nnz()), JoinInts(ranks, ",").c_str());
  if (solve) {
    std::printf("workers: %lld\n", static_cast<long long>(config.dist_workers));
  } else {
    std::printf("method: %s\n", config.method.c_str());
  }
  std::printf("kernels: %s\n", KernelIsaName());

  // Optional hold-out split.
  SparseTensor train = std::move(x);
  SparseTensor test;
  if (config.test_fraction > 0.0) {
    Rng rng(config.seed ^ 0xabcdULL);
    auto split = SplitObservedEntries(train, config.test_fraction, rng);
    train = std::move(split.train);
    test = std::move(split.test);
    std::printf("split: %lld train / %lld test entries\n",
                static_cast<long long>(train.nnz()),
                static_cast<long long>(test.nnz()));
  }

  PTuckerResult result;
  if (config.method == "ptucker") {
    PTuckerOptions options;
    options.core_dims = ranks;
    options.lambda = config.lambda;
    options.max_iterations = config.max_iters;
    options.tolerance = config.tolerance;
    options.truncation_rate = config.truncation_rate;
    options.sample_rate = config.sample_rate;
    options.seed = config.seed;
    options.update_core = config.update_core;
    options.delta_engine = DeltaEngineFromFlags(config);
    options.variant = config.variant == "approx" ? PTuckerVariant::kApprox
                                                 : PTuckerVariant::kMemory;
    if (has_warm_start) options.init_snapshot = &warm_start;
    if (solve) {
      DistOptions dist;
      dist.workers = config.dist_workers;
      DistributedPTuckerResult distributed =
          DistributedPTuckerDecompose(train, options, dist);
      result = std::move(distributed.result);
      std::printf("cluster: %lld workers, %d iterations, %lld bytes on the "
                  "wire\n",
                  static_cast<long long>(distributed.stats.workers),
                  distributed.stats.iterations_run,
                  static_cast<long long>(distributed.stats.total_comm_bytes));
    } else {
      result = PTuckerDecompose(train, options);
    }
  } else if (config.method == "cp") {
    CpOptions options;
    options.rank = ranks.front();
    options.lambda = config.lambda;
    options.max_iterations = config.max_iters;
    options.tolerance = config.tolerance;
    options.seed = config.seed;
    result = CpAlsDecompose(train, options);
  } else {
    HooiOptions hooi_options;
    hooi_options.core_dims = ranks;
    hooi_options.max_iterations = config.max_iters;
    hooi_options.tolerance = config.tolerance;
    hooi_options.seed = config.seed;
    if (config.method == "hooi") {
      result = HooiDecompose(train, hooi_options);
    } else if (config.method == "shot") {
      result = ShotDecompose(train, hooi_options);
    } else if (config.method == "csf") {
      result = TuckerCsfDecompose(train, hooi_options);
    } else {
      result = TuckerWoptDecompose(train, hooi_options);
    }
  }
  PrintTrace(result.iterations, config.quiet);

  std::printf("final reconstruction error (Eq. 5): %.6f\n",
              result.final_error);
  if (test.nnz() > 0) {
    std::printf("test RMSE on held-out entries:      %.6f\n",
                TestRmse(test, result.model.core, result.model.factors));
  }
  if (!config.output_dir.empty()) WriteModel(result.model, config.output_dir);
  if (!config.save_model.empty()) {
    // Checkpoints are written in the mmap-able v2 format with IVF
    // centroids, so the serving subcommands can load them zero-copy and
    // answer --topk-nprobe probes without a conversion step.
    SaveSnapshotV2(config.save_model, result.model, /*with_centroids=*/true);
    std::printf("model snapshot written to %s\n", config.save_model.c_str());
  }
  if (config.selftest) {
    // Sanity gates for the ctest integration run.
    if (!(result.final_error > 0.0) ||
        !(result.final_error < train.FrobeniusNorm())) {
      std::fprintf(stderr, "selftest FAILED: implausible error\n");
      return 1;
    }
    std::printf("selftest OK\n");
  }
  return 0;
}

int Dispatch(const CliConfig& config) {
  // --threads bounds the whole run: reading the .tns input and building
  // its mode index, every method (P-Tucker reads the count back), the
  // replay pipeline and solve's forked workers, which inherit it.
  if (config.threads > 0) omp_set_num_threads(config.threads);
  if (config.subcommand == "predict") return RunPredict(config);
  if (config.subcommand == "topk") return RunTopk(config);
  if (config.subcommand == "convert-model") return RunConvertModel(config);
  if (config.subcommand == "serve") return RunServe(config);
  if (config.subcommand == "stats") return RunStats(config);
  if (config.subcommand == "gen-stream") return RunGenStream(config);
  if (config.subcommand == "replay") return RunReplay(config);
  return Run(config);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliConfig config = ParseArgs(argc, argv);
    // --trace-out turns the global tracer on for the whole run and
    // flushes the merged spans (all ranks, in a distributed solve) as
    // Chrome trace-event JSON on the way out.
    if (!config.trace_out.empty()) obs::Tracer::Global().Enable();
    const int rc = Dispatch(config);
    if (!config.trace_out.empty()) {
      std::string error;
      if (!obs::Tracer::Global().WriteChromeTrace(config.trace_out, &error)) {
        std::fprintf(stderr, "ptucker_cli: cannot write trace: %s\n",
                     error.c_str());
        return 1;
      }
      std::printf("trace written to %s\n", config.trace_out.c_str());
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ptucker_cli: error: %s\n", e.what());
    return 1;
  }
}

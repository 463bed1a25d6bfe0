// ptucker_cli — command-line driver for the library.
//
// Subcommands (first argument; `decompose` is assumed when omitted):
//   decompose      factorize --input and optionally checkpoint the model
//   solve          factorize --input across --workers forked processes
//                  (bit-identical to decompose; see docs/distributed.md)
//   predict        batch x-hat predictions from a saved model snapshot
//   topk           top-K completions along one mode from a saved snapshot
//   convert-model  rewrite a snapshot as format v2 with IVF centroids
//   serve          serve a snapshot over TCP (epoll + batch coalescing)
//   stats          fetch live telemetry from a running serve (host:port)
//   gen-stream     write a simulated tensor + timestamped event stream
//   replay         stream an event log through the ingest pipeline
//
// Typical usage:
//   ptucker_cli --input ratings.tns --ranks 10,10,5 --output-dir model/
//               --variant cache --max-iters 20 --test-fraction 0.1
//               --save-model model.ptks
//
//   ptucker_cli predict --load-model model.ptks --queries coords.tns
//   ptucker_cli topk --load-model model.ptks --mode 2 --index 7,1,3 --k 5
//
//   ptucker_cli --selftest       # end-to-end smoke run on synthetic data
//
// Flags:
//   --input PATH          input tensor (.tns, 1-based indices)
//   --ranks J1,J2,...     core dimensionality per mode (or --rank J)
//   --method NAME         ptucker (default) | hooi | shot | csf | wopt | cp
//   --variant NAME        memory (default) | cache | approx  (ptucker only;
//                         cache = --delta-engine cache)
//   --delta-engine NAME   δ-computation engine (default contraction); the
//                         accepted names and their one-line summaries come
//                         from DeltaEngineCatalog() (core/delta_engine.h)
//                         and are printed by --help — parser and help
//                         share that one table so they cannot drift
//   --lambda X            L2 regularization (default 0.01)
//   --max-iters N         maximum ALS iterations (default 20)
//   --tolerance X         relative-error convergence (default 1e-4)
//   --truncation-rate P   approx variant's p (default 0.2)
//   --sample-rate P       entry-sampling extension, (0,1] (default 1.0)
//   --threads T           OpenMP threads (default: all)
//   --seed S              RNG seed (default 0x5eed)
//   --test-fraction F     hold out F of the entries; report test RMSE
//   --output-dir DIR      write factor_<n>.txt + core.tns there
//   --update-core         enable the core-update extension
//   --quiet               suppress per-iteration output
//   --save-model PATH     write a binary model snapshot after decomposing
//   --load-model PATH     decompose/solve: warm-start from this snapshot
//                         (--ranks defaults to the snapshot's ranks);
//                         predict/topk: the model to serve
//   --queries PATH        predict: .tns file of query coordinates
//                         (values are ignored)
//   --mode M              topk: 1-based mode to rank candidates along
//   --index i1,i2,...     topk: 1-based query coordinates (the --mode
//                         slot is a placeholder and is ignored)
//   --k K                 topk: number of results (default 10)
//   --topk-nprobe N|all   topk: IVF clusters to probe ('all' = exact scan,
//                         the default; 0 = auto ≈ a tenth of the lists;
//                         N >= 0 requires a snapshot written with
//                         centroids — see convert-model)
//   --port P              serve: TCP port in [0, 65535]; 0 = ephemeral
//   --listen-threads N    serve: epoll loops / SO_REUSEPORT shards, [1, 64]
//   --worker-threads N    serve: coalescer batch executors, [1, 64]
//   --max-batch B         serve: coalesced batch cap, [1, 4096]
//   --batch-window-us U   serve: batch fill window, [0, 1000000] us
//   --queue-capacity Q    serve: bounded request queue, >= --max-batch
//   --serve-seconds S     serve: stop after S seconds (0 = run forever,
//                         the default; [0, 86400])
//   --overload-timeout-ms D  serve: shed a request parked on a full queue
//                         after D ms with an OVERLOADED reply; -1 (the
//                         default) parks forever behind TCP backpressure,
//                         0 sheds immediately ([-1, 3600000])
//   --output-tensor PATH  gen-stream: the initial tensor (.tns)
//   --events PATH         gen-stream: event log to write;
//                         replay: event log to play back
//   --num-events N        gen-stream: mutations after the initial load
//   --update-fraction F   gen-stream: P(event re-rates a live entry)
//   --delete-fraction F   gen-stream: P(event deletes a live entry)
//   --max-timestamp-step N  gen-stream: max timestamp gap between events
//   --flush-every N       replay: buffered mutations per flush (>= 1)
//   --checkpoint-every N  replay: applied mutations between automatic
//                         checkpoints (0 = only the final one)
//   --checkpoint-dir DIR  replay: durable ckpt-<seq>.ptks + MANIFEST
//                         directory; an existing MANIFEST there resumes
//                         the replay from its checkpoint
//   --workers N           solve: worker processes, [1, 64] (default 2)
//   --trace-out PATH      record phase spans and write them as Chrome
//                         trace-event JSON on exit (chrome://tracing;
//                         docs/observability.md)
//   --metrics-log-ms N    serve: log one compact metrics line every N ms
//                         (0 = off, the default; [0, 3600000])
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
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
#include "util/format.h"
#include "util/random.h"

namespace {

using namespace ptucker;

// One row of the subcommand table. The dispatcher and the --help text
// both read this one table (the DeltaEngineCatalog() pattern), so the
// accepted subcommands and their documentation cannot drift apart.
struct SubcommandDescriptor {
  const char* name;
  const char* summary;
};

constexpr SubcommandDescriptor kSubcommands[] = {
    {"decompose", "factorize --input (the default when no subcommand given)"},
    {"solve",
     "factorize --input across --workers forked processes, bit-identical "
     "to decompose (docs/distributed.md)"},
    {"predict", "batch x-hat predictions from --load-model at --queries"},
    {"topk", "top-K completions along --mode from --load-model at --index"},
    {"convert-model",
     "rewrite --load-model as a v2 snapshot (+IVF centroids) at --save-model"},
    {"serve",
     "serve --load-model over TCP: epoll loops + cross-client batch "
     "coalescing (docs/serving.md)"},
    {"stats",
     "fetch live telemetry from a running serve: `stats host:port` prints "
     "the METRICS exposition text (docs/observability.md)"},
    {"gen-stream",
     "simulate a tensor (--output-tensor) + timestamped event stream "
     "(--events)"},
    {"replay",
     "stream --events through the ingest pipeline over --input + "
     "--load-model (docs/streaming.md)"},
};

std::string SubcommandNames() {
  std::string names;
  for (const SubcommandDescriptor& sub : kSubcommands) {
    if (!names.empty()) names += ", ";
    names += sub.name;
  }
  return names;
}

struct CliConfig {
  std::string subcommand = "decompose";
  std::string input;
  std::string output_dir;
  std::string method = "ptucker";
  std::string variant = "memory";
  std::optional<std::string> delta_engine;  // unset = contraction
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
  std::int64_t topk_nprobe = -1;  // -1 = 'all' (exact scan)
  std::int64_t serve_port = 0;    // 0 = ephemeral, printed at startup
  std::int64_t serve_listen_threads = 1;
  std::int64_t serve_worker_threads = 2;
  std::int64_t serve_max_batch = 64;
  std::int64_t serve_batch_window_us = 100;
  std::int64_t serve_queue_capacity = 8192;
  std::int64_t serve_seconds = 0;  // 0 = run until killed
  std::int64_t serve_overload_timeout_ms = -1;  // -1 = park forever
  std::string output_tensor;                    // gen-stream
  std::string events;                           // gen-stream + replay
  std::int64_t stream_num_events = 5000;
  double stream_update_fraction = 0.2;
  double stream_delete_fraction = 0.1;
  std::int64_t stream_max_timestamp_step = 1000;
  std::int64_t flush_every = 64;       // replay
  std::int64_t checkpoint_every = 0;   // replay; 0 = final only
  std::string checkpoint_dir;          // replay
  std::int64_t dist_workers = 2;       // solve
  std::string stats_target;            // stats: the host:port positional
  std::string trace_out;               // --trace-out; empty = tracing off
  std::int64_t metrics_log_ms = 0;     // serve; 0 = no periodic log line
};

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "ptucker_cli: %s\n", message.c_str());
  std::fprintf(stderr, "run with --help for usage\n");
  std::exit(2);
}

void PrintUsageAndExit() {
  std::printf(
      "usage: ptucker_cli [subcommand] --input X.tns --ranks J1,J2,... "
      "[options]\n"
      "       ptucker_cli solve --input X.tns --ranks J1,J2,... "
      "[--workers N]\n"
      "       ptucker_cli predict --load-model M.ptks --queries Q.tns\n"
      "       ptucker_cli topk --load-model M.ptks --mode M --index "
      "i1,i2,... [--k K] [--topk-nprobe N|all]\n"
      "       ptucker_cli convert-model --load-model M.ptks --save-model "
      "M2.ptks\n"
      "       ptucker_cli serve --load-model M.ptks [--port P] "
      "[--listen-threads N]\n"
      "                  [--worker-threads N] [--max-batch B] "
      "[--batch-window-us U]\n"
      "                  [--queue-capacity Q] [--serve-seconds S]\n"
      "                  [--overload-timeout-ms D] [--metrics-log-ms N]\n"
      "       ptucker_cli stats HOST:PORT\n"
      "       ptucker_cli gen-stream --output-tensor X.tns --events E.log\n"
      "                  [--num-events N] [--update-fraction F]\n"
      "                  [--delete-fraction F] [--max-timestamp-step N]\n"
      "       ptucker_cli replay --input X.tns --load-model M.ptks "
      "--events E.log\n"
      "                  [--flush-every N] [--checkpoint-every N]\n"
      "                  [--checkpoint-dir DIR] [--save-model OUT.ptks]\n"
      "       ptucker_cli --selftest\n\n");
  // Subcommand list generated from the same table the dispatcher uses.
  std::printf("subcommands (first argument; default decompose):\n");
  for (const SubcommandDescriptor& sub : kSubcommands) {
    std::printf("  %-18s %s\n", sub.name, sub.summary);
  }
  std::printf(
      "\nmethods:  ptucker (default) hooi shot csf wopt cp\n"
      "variants: memory (default) cache approx (cache = --delta-engine "
      "cache)\n");
  // The engine list is generated from DeltaEngineCatalog() — the same
  // table the parser consults — so help and parser cannot drift.
  std::printf("engines (--delta-engine NAME; default contraction):\n");
  for (const DeltaEngineDescriptor& engine : DeltaEngineCatalog()) {
    std::printf("  %-18s %s\n", engine.name, engine.summary);
  }
  std::printf(
      "options:  --lambda --max-iters --tolerance --truncation-rate\n"
      "          --sample-rate --threads --seed --test-fraction\n"
      "          --output-dir --update-core --quiet\n"
      "model:    --save-model PATH (checkpoint after decompose, format v2)\n"
      "          --load-model PATH (decompose/solve: warm start; predict/\n"
      "          topk/serve: the served model) --queries PATH --mode M\n"
      "          --index i1,... --k K --topk-nprobe N|all\n"
      "serving:  --port --listen-threads --worker-threads --max-batch\n"
      "          --batch-window-us --queue-capacity --serve-seconds\n"
      "          --overload-timeout-ms --metrics-log-ms\n"
      "          (wire protocol and semantics: docs/serving.md)\n"
      "observability: --trace-out PATH (Chrome trace-event JSON of phase\n"
      "          spans, written on exit; docs/observability.md)\n"
      "stream:   --output-tensor --events --num-events --update-fraction\n"
      "          --delete-fraction --max-timestamp-step --flush-every\n"
      "          --checkpoint-every --checkpoint-dir\n"
      "          (ingest pipeline and replay format: docs/streaming.md)\n"
      "solve:    --workers N (worker processes, [1, 64])\n"
      "          (protocol and determinism contract: docs/distributed.md)\n"
      "flags accept both '--flag value' and '--flag=value'\n");
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
                                       const char* flag) {
  std::vector<std::int64_t> values;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string token =
        spec.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (token.empty()) {
      Fail(std::string("bad ") + flag + " value: '" + spec + "'");
    }
    values.push_back(ParseInteger<std::int64_t>(token, flag, 1));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return values;
}

CliConfig ParseArgs(int argc, char** argv) {
  CliConfig config;
  // An optional subcommand leads the argument list; every later
  // positional argument is an error, and an unrecognized subcommand is
  // rejected against the catalog instead of silently falling back to
  // decompose.
  int first_flag = 1;
  if (argc > 1 && argv[1][0] != '-') {
    const std::string token = argv[1];
    bool known = false;
    for (const SubcommandDescriptor& sub : kSubcommands) {
      known |= token == sub.name;
    }
    if (!known) {
      Fail("unknown subcommand '" + token + "'; expected one of: " +
           SubcommandNames());
    }
    config.subcommand = token;
    first_flag = 2;
  }
  // `--flag=value` is split into flag + inline value; `--flag value` reads
  // the next argv slot.
  std::string inline_value;
  bool has_inline_value = false;
  auto need_value = [&](int& i) -> std::string {
    if (has_inline_value) {
      has_inline_value = false;
      return inline_value;
    }
    if (i + 1 >= argc) Fail(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  std::string arg;
  // The value of flag `arg` as an int64 or a finite double (exit 2 if not).
  const auto integer = [&](int& i) {
    return ParseInteger<std::int64_t>(need_value(i), arg);
  };
  const auto number = [&](int& i) { return ParseDouble(need_value(i), arg); };
  for (int i = first_flag; i < argc; ++i) {
    arg = argv[i];
    has_inline_value = false;
    if (arg.empty() || arg[0] != '-') {
      // `stats` is the one subcommand with a positional operand: the
      // host:port of the serve to query.
      if (config.subcommand == "stats" && config.stats_target.empty()) {
        config.stats_target = arg;
        continue;
      }
      Fail("unexpected positional argument '" + arg +
           "' (only one leading subcommand is accepted; subcommands: " +
           SubcommandNames() + ")");
    }
    if (arg.rfind("--", 0) == 0) {
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg = arg.substr(0, eq);
        has_inline_value = true;
      }
    }
    if (arg == "--help" || arg == "-h") PrintUsageAndExit();
    else if (arg == "--input") config.input = need_value(i);
    else if (arg == "--output-dir") config.output_dir = need_value(i);
    else if (arg == "--method") config.method = need_value(i);
    else if (arg == "--variant") config.variant = need_value(i);
    else if (arg == "--delta-engine") config.delta_engine = need_value(i);
    else if (arg == "--ranks")
      config.ranks = ParseIntList(need_value(i), "--ranks");
    else if (arg == "--rank") config.uniform_rank = integer(i);
    else if (arg == "--lambda") config.lambda = number(i);
    else if (arg == "--max-iters")
      config.max_iters = ParseInteger<int>(need_value(i), arg);
    else if (arg == "--tolerance") config.tolerance = number(i);
    else if (arg == "--truncation-rate")
      config.truncation_rate = number(i);
    else if (arg == "--sample-rate")
      config.sample_rate = number(i);
    else if (arg == "--threads")
      config.threads = ParseInteger<int>(need_value(i), arg);
    else if (arg == "--seed")
      config.seed = ParseInteger<std::uint64_t>(need_value(i), arg);
    else if (arg == "--test-fraction")
      config.test_fraction = number(i);
    else if (arg == "--update-core") config.update_core = true;
    else if (arg == "--quiet") config.quiet = true;
    else if (arg == "--selftest") config.selftest = true;
    else if (arg == "--save-model") config.save_model = need_value(i);
    else if (arg == "--load-model") config.load_model = need_value(i);
    else if (arg == "--queries") config.queries = need_value(i);
    else if (arg == "--mode") config.topk_mode = integer(i);
    else if (arg == "--index")
      config.topk_index = ParseIntList(need_value(i), "--index");
    else if (arg == "--k") config.topk_k = integer(i);
    else if (arg == "--topk-nprobe") {
      const std::string value = need_value(i);
      config.topk_nprobe =
          value == "all" ? -1 : ParseInteger<std::int64_t>(value, arg, 0);
    }
    else if (arg == "--port") config.serve_port = integer(i);
    else if (arg == "--listen-threads")
      config.serve_listen_threads = integer(i);
    else if (arg == "--worker-threads")
      config.serve_worker_threads = integer(i);
    else if (arg == "--max-batch")
      config.serve_max_batch = integer(i);
    else if (arg == "--batch-window-us")
      config.serve_batch_window_us = integer(i);
    else if (arg == "--queue-capacity")
      config.serve_queue_capacity = integer(i);
    else if (arg == "--serve-seconds")
      config.serve_seconds = integer(i);
    else if (arg == "--overload-timeout-ms")
      config.serve_overload_timeout_ms = integer(i);
    else if (arg == "--output-tensor") config.output_tensor = need_value(i);
    else if (arg == "--events") config.events = need_value(i);
    else if (arg == "--num-events")
      config.stream_num_events = integer(i);
    else if (arg == "--update-fraction")
      config.stream_update_fraction = number(i);
    else if (arg == "--delete-fraction")
      config.stream_delete_fraction = number(i);
    else if (arg == "--max-timestamp-step")
      config.stream_max_timestamp_step = integer(i);
    else if (arg == "--flush-every")
      config.flush_every = integer(i);
    else if (arg == "--checkpoint-every")
      config.checkpoint_every = integer(i);
    else if (arg == "--checkpoint-dir")
      config.checkpoint_dir = need_value(i);
    else if (arg == "--workers")
      config.dist_workers = integer(i);
    else if (arg == "--trace-out") config.trace_out = need_value(i);
    else if (arg == "--metrics-log-ms")
      config.metrics_log_ms = integer(i);
    else Fail("unknown flag: " + arg);
    if (has_inline_value) Fail("flag does not take a value: " + arg);
  }
  // Serving knobs are validated here, at the boundary — same ranges
  // NetServer's constructor enforces for library users, but with exit
  // code 2 and the flag named so a typo'd systemd unit fails its start
  // instead of half-working.
  if (config.serve_port < 0 || config.serve_port > 65535) {
    Fail("--port must be in [0, 65535], got " +
         std::to_string(config.serve_port));
  }
  if (config.serve_listen_threads < 1 || config.serve_listen_threads > 64) {
    Fail("--listen-threads must be in [1, 64], got " +
         std::to_string(config.serve_listen_threads));
  }
  if (config.serve_worker_threads < 1 || config.serve_worker_threads > 64) {
    Fail("--worker-threads must be in [1, 64], got " +
         std::to_string(config.serve_worker_threads));
  }
  if (config.serve_max_batch < 1 || config.serve_max_batch > 4096) {
    Fail("--max-batch must be in [1, 4096], got " +
         std::to_string(config.serve_max_batch));
  }
  if (config.serve_batch_window_us < 0 ||
      config.serve_batch_window_us > 1000000) {
    Fail("--batch-window-us must be in [0, 1000000], got " +
         std::to_string(config.serve_batch_window_us));
  }
  if (config.serve_queue_capacity < config.serve_max_batch) {
    Fail("--queue-capacity must be >= --max-batch (" +
         std::to_string(config.serve_max_batch) + "), got " +
         std::to_string(config.serve_queue_capacity));
  }
  if (config.serve_seconds < 0 || config.serve_seconds > 86400) {
    Fail("--serve-seconds must be in [0, 86400], got " +
         std::to_string(config.serve_seconds));
  }
  if (config.serve_overload_timeout_ms < -1 ||
      config.serve_overload_timeout_ms > 3600000) {
    Fail("--overload-timeout-ms must be in [-1, 3600000], got " +
         std::to_string(config.serve_overload_timeout_ms));
  }
  // Stream knobs: same boundary-validation discipline as the serving
  // flags above — the library would throw, the CLI names the flag.
  if (config.stream_num_events < 0) {
    Fail("--num-events must be >= 0, got " +
         std::to_string(config.stream_num_events));
  }
  if (config.stream_update_fraction < 0.0 ||
      config.stream_delete_fraction < 0.0 ||
      config.stream_update_fraction + config.stream_delete_fraction > 1.0) {
    Fail("--update-fraction and --delete-fraction must be >= 0 and sum "
         "to <= 1");
  }
  if (config.stream_max_timestamp_step < 0) {
    Fail("--max-timestamp-step must be >= 0, got " +
         std::to_string(config.stream_max_timestamp_step));
  }
  if (config.flush_every < 1) {
    Fail("--flush-every must be >= 1, got " +
         std::to_string(config.flush_every));
  }
  if (config.checkpoint_every < 0) {
    Fail("--checkpoint-every must be >= 0, got " +
         std::to_string(config.checkpoint_every));
  }
  // Distributed knobs: same boundary discipline — the [1, 64] ceiling is
  // the fixed 64-lane reduction partition (docs/distributed.md).
  if (config.dist_workers < 1 || config.dist_workers > 64) {
    Fail("--workers must be in [1, 64], got " +
         std::to_string(config.dist_workers));
  }
  if (config.metrics_log_ms < 0 || config.metrics_log_ms > 3600000) {
    Fail("--metrics-log-ms must be in [0, 3600000], got " +
         std::to_string(config.metrics_log_ms));
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
  if (config.topk_k < 1) Fail("--k must be >= 1");
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
      mode, index, config.topk_k, /*exclude=*/nullptr, config.topk_nprobe);
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
// same catalog --help prints.
DeltaEngineChoice DeltaEngineFromFlags(const CliConfig& config) {
  if (config.variant != "memory" && config.variant != "cache" &&
      config.variant != "approx") {
    Fail("unknown --variant: " + config.variant);
  }
  const bool cache = config.variant == "cache";
  const std::string name = config.delta_engine.value_or(
      cache ? "cache" : DeltaEngineChoiceName(PTuckerOptions().delta_engine));
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

  IngestOptions options;
  options.lambda = config.lambda;
  options.delta_engine = DeltaEngineFromFlags(config);
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
  if (solve && config.method != "ptucker") {
    Fail("solve supports --method ptucker only");
  }
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
    if (config.method != "ptucker") {
      Fail("--load-model warm start requires --method ptucker");
    }
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
    options.num_threads = config.threads;
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
    } else if (config.method == "wopt") {
      result = TuckerWoptDecompose(train, hooi_options);
    } else {
      Fail("unknown --method: " + config.method);
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

}  // namespace

namespace {

int Dispatch(const CliConfig& config) {
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

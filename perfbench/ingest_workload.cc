// stream-ingest: a simulated MovieLens event log replayed through an
// IngestPipeline (flush every 64 events, checkpoint every 256) that
// writes snapshot-v2 checkpoints and hot-swaps them into a live
// PredictionService. Each pass starts from the files on disk and applies
// the whole log, so every pass does the same work.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/ptucker.h"
#include "data/movielens_sim.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/snapshot_v2.h"
#include "stream/event_log.h"
#include "stream/ingest_pipeline.h"
#include "tensor/index.h"
#include "tensor/io.h"

namespace perfbench {

using namespace ptucker;

namespace {

constexpr std::int64_t kFlushEvery = 64;
constexpr std::int64_t kCheckpointEvery = 256;
constexpr std::int64_t kEvents = 2048;  // per pass; a multiple of 256
constexpr std::int64_t kProbeQueries = 1024;

// Ω as (linearized coordinate, value) pairs in coordinate order, so two
// tensors with the same entries compare equal whatever their entry order.
std::vector<std::pair<std::int64_t, double>> Canonical(const SparseTensor& x) {
  const std::vector<std::int64_t> strides = ComputeStrides(x.dims());
  std::vector<std::pair<std::int64_t, double>> out;
  out.reserve(static_cast<std::size_t>(x.nnz()));
  for (std::int64_t e = 0; e < x.nnz(); ++e) {
    out.emplace_back(Linearize(x.index(e), strides, x.order()), x.value(e));
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool SameOmega(const std::vector<std::pair<std::int64_t, double>>& a,
               const std::vector<std::pair<std::int64_t, double>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first ||
        std::memcmp(&a[i].second, &b[i].second, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

std::vector<double> PredictAll(const PredictionService& service,
                               const std::vector<const std::int64_t*>& probes) {
  std::vector<double> out(probes.size());
  service.PredictBatch(static_cast<std::int64_t>(probes.size()), probes.data(),
                       out.data());
  return out;
}

// Everything one pass needs, loaded from the input files (the set-up).
struct PassState {
  std::vector<StreamEvent> events;
  std::unique_ptr<PredictionService> service;
  std::unique_ptr<IngestPipeline> pipeline;
};

PassState SetUp(const RunContext& ctx, const std::vector<std::int64_t>& dims,
                const std::string& ckpt_dir, bool explicit_cadence) {
  PassState state;
  SparseTensor initial;
  {
    ScopedSpan span(ctx.spans, "tensor.read_tns");
    initial = ReadTns(ctx.dir + "/initial.tns", dims);
  }
  {
    ScopedSpan span(ctx.spans, "event_log.parse");
    std::int64_t order = 0;
    state.events = ReadEventLog(ctx.dir + "/events.log", &order);
    if (order != static_cast<std::int64_t>(dims.size())) {
      throw std::runtime_error("event log order does not match the tensor");
    }
  }
  TuckerFactorization model;
  {
    ScopedSpan span(ctx.spans, "snapshot_v2.open");
    const std::string path = ctx.dir + "/initial.ptks";
    state.service = std::make_unique<PredictionService>(
        ModelSnapshot::CreateFromFile(path, kDefaultTileWidth, nullptr, true));
    model = LoadSnapshot(path);
  }
  IngestOptions options;
  options.num_threads = ctx.threads;
  // The traced run drives the same cadence by explicit Flush/Checkpoint
  // calls so each can be timed from outside.
  options.flush_every = explicit_cadence ? kEvents + 1 : kFlushEvery;
  options.checkpoint_every = explicit_cadence ? 0 : kCheckpointEvery;
  options.checkpoint_dir = ckpt_dir;
  options.service = state.service.get();
  {
    ScopedSpan span(ctx.spans, "ingest.construct");
    state.pipeline = std::make_unique<IngestPipeline>(std::move(initial),
                                                      std::move(model), options);
  }
  return state;
}

}  // namespace

void GenIngest(const std::string& dir, std::uint64_t seed) {
  MovieLensStreamConfig config;
  config.base.num_users = 2000;
  config.base.num_movies = 800;
  config.base.num_years = 21;
  config.base.num_hours = 24;
  config.base.nnz = 40000;
  config.base.seed = seed;
  config.num_events = kEvents;
  config.update_fraction = 0.2;
  config.delete_fraction = 0.1;
  config.seed = seed ^ 0x57e4a11ULL;
  const MovieLensStream stream = SimulateMovieLensStream(config);
  const SparseTensor& initial = stream.initial.tensor;

  PTuckerOptions options;
  options.core_dims = {4, 4, 4, 4};
  options.max_iterations = 10;
  options.tolerance = 0.0;
  options.num_threads = 2;
  const PTuckerResult fit = PTuckerDecompose(initial, options);
  SaveSnapshotV2(dir + "/initial.ptks", fit.model, /*with_centroids=*/false);
  WriteTns(dir + "/initial.tns", initial);
  WriteEventLog(dir + "/events.log", stream.events, initial.order());
  WriteMeta(dir + "/meta.txt", {{"dims", FormatDims(initial.dims())}});
}

void RunIngest(const RunContext& ctx, Report* report) {
  const Meta meta = ReadMeta(ctx.dir + "/meta.txt");
  const std::vector<std::int64_t> dims = ParseDims(meta.at("dims"));
  const std::string ckpt_dir = ctx.dir + "/checkpoints";

  // References for the checks: Ω after the whole log, and probe
  // coordinates for comparing served predictions.
  const SparseTensor initial = ReadTns(ctx.dir + "/initial.tns", dims);
  std::int64_t order = 0;
  const std::vector<StreamEvent> log = ReadEventLog(ctx.dir + "/events.log", &order);
  if (static_cast<std::int64_t>(log.size()) != kEvents) {
    throw std::runtime_error("event log has " + std::to_string(log.size()) +
                             " events, expected " + std::to_string(kEvents));
  }
  const auto final_omega =
      Canonical(ReplayOmega(initial, log, static_cast<std::int64_t>(log.size())));
  std::vector<const std::int64_t*> probes;
  for (std::int64_t q = 0; q < kProbeQueries; ++q) {
    probes.push_back(initial.index((q * 7919) % initial.nnz()));
  }

  // Each measured pass is bracketed by reference sweeps (Calibration) over
  // the initial tensor's coordinates at the model's rank.
  const Calibration calibration(initial, 4);
  std::vector<double> setup_seconds, pass_seconds, sweeps;
  if (!ctx.traced) sweeps.push_back(calibration.Sweep());
  std::vector<std::vector<double>> staleness;  // per pass, per window
  std::vector<double> touched_entries, structural;
  std::int64_t failed_passes = 0;
  const std::int64_t begin = NowNs();
  while (pass_seconds.size() < 2 ||
         SecondsSince(begin) + pass_seconds.back() + setup_seconds.back() +
                 (sweeps.empty() ? 0.0 : sweeps.back()) <=
             ctx.seconds) {
    std::filesystem::remove_all(ckpt_dir);
    std::int64_t start = NowNs();
    PassState state = SetUp(ctx, dims, ckpt_dir, ctx.traced);
    setup_seconds.push_back(SecondsSince(start));
    IngestPipeline& pipeline = *state.pipeline;
    PredictionService& service = *state.service;
    bool published_each_window = true;
    staleness.emplace_back();

    start = NowNs();
    for (std::size_t i = 0; i < state.events.size(); ++i) {
      const std::int64_t n = static_cast<std::int64_t>(i) + 1;
      if (!ctx.traced) {
        const std::shared_ptr<const ModelSnapshot> before = service.snapshot();
        const std::int64_t submit = NowNs();
        pipeline.Apply(state.events[i]);
        if (n % kCheckpointEvery == 0) {
          published_each_window &= service.snapshot() != before;
          staleness.back().push_back(SecondsSince(submit));
        }
        continue;
      }
      pipeline.Apply(state.events[i]);
      if (n % kFlushEvery == 0) {
        std::vector<std::vector<std::int64_t>> rows(dims.size());
        bool window_structural = false;
        for (std::int64_t k = n - kFlushEvery; k < n; ++k) {
          const StreamEvent& event = state.events[static_cast<std::size_t>(k)];
          window_structural |= event.op != StreamOp::kUpdate;
          for (std::size_t m = 0; m < dims.size(); ++m) {
            rows[m].push_back(event.index[m]);
          }
        }
        {
          ScopedSpan span(ctx.spans, "ingest.flush");
          pipeline.Flush();
        }
        double entries = 0.0;
        for (std::size_t m = 0; m < dims.size(); ++m) {
          std::sort(rows[m].begin(), rows[m].end());
          rows[m].erase(std::unique(rows[m].begin(), rows[m].end()), rows[m].end());
          for (const std::int64_t row : rows[m]) {
            entries += static_cast<double>(
                pipeline.tensor().SliceSize(static_cast<std::int64_t>(m), row));
          }
        }
        touched_entries.push_back(entries);
        structural.push_back(window_structural ? 1.0 : 0.0);
      }
      if (n % kCheckpointEvery == 0) {
        {
          ScopedSpan span(ctx.spans, "ingest.checkpoint");
          pipeline.Checkpoint();
        }
        // The checkpoint's two halves again, outside it: serializing the
        // model, and opening the written file into a service.
        {
          ScopedSpan span(ctx.spans, "snapshot_v2.serialize");
          SerializeSnapshotV2(pipeline.model(), nullptr);
        }
        CheckpointInfo latest;
        LatestCheckpoint(ckpt_dir, &latest);
        PredictionService scratch(service.snapshot());
        ScopedSpan span(ctx.spans, "service.reload");
        scratch.ReloadSnapshot(ModelSnapshot::CreateFromFile(latest.path));
      }
    }
    pass_seconds.push_back(SecondsSince(start));
    if (!ctx.traced) sweeps.push_back(calibration.Sweep());
    report->Attempt();

    // Checks: Ω, the last checkpoint, and what the service serves.
    bool ok = published_each_window && pipeline.pending() == 0;
    const bool omega_ok = SameOmega(Canonical(pipeline.tensor()), final_omega);
    CheckpointInfo latest;
    const bool have_ckpt = LatestCheckpoint(ckpt_dir, &latest);
    const bool ckpt_ok = have_ckpt && latest.ops_applied == kEvents &&
                         BitEqual(LoadSnapshot(latest.path), pipeline.model());
    bool served_ok = false;
    if (have_ckpt) {
      const PredictionService fresh(ModelSnapshot::CreateFromFile(latest.path));
      const std::vector<double> a = PredictAll(service, probes);
      const std::vector<double> b = PredictAll(fresh, probes);
      served_ok = std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0;
    }
    ok = ok && omega_ok && ckpt_ok && served_ok;
    if (!ok) {
      ++failed_passes;
      report->Fail();
      report->Note("pass " + std::to_string(pass_seconds.size()) +
                   ": published=" + std::to_string(published_each_window) +
                   " omega=" + std::to_string(omega_ok) +
                   " checkpoint=" + std::to_string(ckpt_ok) +
                   " served=" + std::to_string(served_ok));
    }
  }
  std::filesystem::remove_all(ckpt_dir);
  report->Check("final_omega_equals_replay_and_service_serves_last_checkpoint",
                failed_passes == 0,
                std::to_string(failed_passes) + " of " +
                    std::to_string(pass_seconds.size()) + " passes failed",
                /*counts=*/false);

  const auto passes = static_cast<std::int64_t>(pass_seconds.size());
  report->Metric("setup_s", Median(setup_seconds), "s", passes);
  if (!ctx.traced) {
    // Each pass and its windows rescaled by the sweeps around it.
    std::vector<double> calibrated_passes;
    for (std::size_t p = 0; p < pass_seconds.size(); ++p) {
      calibrated_passes.push_back(
          calibration.Calibrated(pass_seconds[p], sweeps[p], sweeps[p + 1]));
      for (double& s : staleness[p]) {
        s = calibration.Calibrated(s, sweeps[p], sweeps[p + 1]);
      }
    }
    // Window w does the same work in every pass, so the percentiles are
    // taken over the log's windows, each at its median over the passes.
    const std::vector<double> windows_median = MedianPerUnit(staleness);
    report->Metric("time_to_target_s", Median(calibrated_passes), "s", passes);
    report->Metric("throughput_per_s",
                   static_cast<double>(kEvents) / Median(calibrated_passes),
                   "1/s", passes);
    const std::int64_t windows = passes * (kEvents / kCheckpointEvery);
    report->Metric("p50_ms", Percentile(windows_median, 50) * 1e3, "ms",
                   windows);
    report->Metric("p90_ms", Percentile(windows_median, 90) * 1e3, "ms",
                   windows);
    report->Metric("wall_time_to_target_s", Median(pass_seconds), "s", passes);
    report->Metric("reference_sweep_ms", Median(sweeps) * 1e3, "ms",
                   static_cast<std::int64_t>(sweeps.size()));
    return;
  }
  SpanRecorder& spans = *ctx.spans;
  const auto metric = [&](const char* metric_name, const char* span_name) {
    const std::vector<double> d = spans.DurationsOf(span_name);
    report->Metric(metric_name, Median(d) * 1e3, "ms",
                   static_cast<std::int64_t>(d.size()));
  };
  metric("tensor.read_tns_ms", "tensor.read_tns");
  metric("event_log.parse_ms", "event_log.parse");
  metric("snapshot_v2.open_ms", "snapshot_v2.open");
  metric("ingest.construct_ms", "ingest.construct");
  metric("ingest.flush_ms", "ingest.flush");
  metric("ingest.checkpoint_ms", "ingest.checkpoint");
  metric("snapshot_v2.serialize_ms", "snapshot_v2.serialize");
  metric("service.reload_ms", "service.reload");
  const auto flushes = static_cast<std::int64_t>(touched_entries.size());
  report->Metric("ingest.touched_entries_per_flush",
                 Sum(touched_entries) / static_cast<double>(flushes), "count",
                 flushes);
  report->Metric("ingest.structural_flush_share",
                 Sum(structural) / static_cast<double>(flushes), "ratio",
                 flushes);
}

}  // namespace perfbench

// The streaming ingest pipeline (stream/ingest_pipeline.h). The
// property layer drives random append/update/delete interleavings
// through every δ-engine and pins the determinism contract: final
// factors are bit-identical across thread counts {1, 4, 13}, close
// across engines, and bit-identical across a restart from any flush
// boundary — the live Ω always equals a structural replay of the event
// prefix. The fault-injection layer
// crashes the pipeline in the window between checkpoint durability and
// publish and proves recovery (last MANIFEST + tail replay) lands on
// factors bit-identical to the uninterrupted run. Hot-swap publication
// into a PredictionService, the strict mutation semantics, Ω at every
// batch length and the flush's child spans are pinned here too.
#include "stream/ingest_pipeline.h"

#include <cmath>
#include <filesystem>
#include <functional>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>
#include <omp.h>

#include "core/delta_engine.h"
#include "data/synthetic.h"
#include "obs/trace.h"
#include "serve/snapshot.h"
#include "serve/service.h"
#include "tensor/dense_tensor.h"
#include "tensor/index.h"
#include "util/random.h"

namespace ptucker {
namespace {

class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int threads) : saved_(omp_get_max_threads()) {
    omp_set_num_threads(threads);
  }
  ~ThreadCountGuard() { omp_set_num_threads(saved_); }

 private:
  int saved_;
};

SparseTensor MakeInitial(std::uint64_t seed) {
  Rng rng(seed);
  SparseTensor x = UniformSparseTensor({12, 9, 7}, 120, rng);
  x.BuildModeIndex();
  return x;
}

TuckerFactorization MakeModel(const SparseTensor& x, std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<std::int64_t> ranks = {3, 3, 2};
  TuckerFactorization model;
  for (std::int64_t n = 0; n < x.order(); ++n) {
    Matrix factor(x.dim(n), ranks[static_cast<std::size_t>(n)]);
    factor.FillUniform(rng);
    model.factors.push_back(std::move(factor));
  }
  model.core = DenseTensor(ranks);
  model.core.FillUniform(rng);
  return model;
}

// A random but valid interleaving: updates and deletes target live
// coordinates, appends target unobserved ones; ~35% update, ~20%
// delete, the rest appends (deleted coordinates may be re-appended).
std::vector<StreamEvent> RandomEvents(const SparseTensor& initial,
                                      std::int64_t count,
                                      std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<std::int64_t> dims = initial.dims();
  const std::vector<std::int64_t> strides = ComputeStrides(dims);
  std::vector<std::vector<std::int64_t>> live;
  std::unordered_set<std::int64_t> keys;
  for (std::int64_t e = 0; e < initial.nnz(); ++e) {
    std::vector<std::int64_t> index;
    for (std::int64_t n = 0; n < initial.order(); ++n) {
      index.push_back(initial.index(e, n));
    }
    keys.insert(Linearize(index.data(), strides, initial.order()));
    live.push_back(std::move(index));
  }
  std::vector<StreamEvent> events;
  std::int64_t timestamp = 0;
  for (std::int64_t c = 0; c < count; ++c) {
    StreamEvent event;
    event.timestamp = timestamp;
    timestamp += static_cast<std::int64_t>(rng.UniformInt(5));
    const double kind = rng.Uniform();
    if (kind < 0.35 && !live.empty()) {
      event.op = StreamOp::kUpdate;
      event.index = live[rng.UniformInt(live.size())];
      event.value = rng.Uniform();
    } else if (kind < 0.55 && !live.empty()) {
      event.op = StreamOp::kDelete;
      const std::size_t pos = rng.UniformInt(live.size());
      event.index = live[pos];
      keys.erase(Linearize(event.index.data(), strides, initial.order()));
      live[pos] = std::move(live.back());
      live.pop_back();
    } else {
      event.op = StreamOp::kAppend;
      std::vector<std::int64_t> index(dims.size());
      while (true) {
        for (std::size_t n = 0; n < dims.size(); ++n) {
          index[n] = static_cast<std::int64_t>(
              rng.UniformInt(static_cast<std::uint64_t>(dims[n])));
        }
        const std::int64_t key =
            Linearize(index.data(), strides, initial.order());
        if (keys.insert(key).second) break;
      }
      event.index = index;
      event.value = rng.Uniform();
      live.push_back(std::move(index));
    }
    events.push_back(std::move(event));
  }
  return events;
}

struct RunResult {
  SparseTensor omega;
  TuckerFactorization model;
};

RunResult RunPipeline(const SparseTensor& initial,
                      const TuckerFactorization& model,
                      const std::vector<StreamEvent>& events,
                      DeltaEngineChoice engine, int threads,
                      std::int64_t flush_every = 8) {
  IngestOptions options;
  options.delta_engine = engine;
  options.num_threads = threads;
  options.flush_every = flush_every;
  IngestPipeline pipeline(initial, model, options);
  for (const StreamEvent& event : events) pipeline.Apply(event);
  pipeline.Flush();
  RunResult result;
  result.omega = pipeline.tensor();
  result.model.core = DenseTensor(pipeline.model().core);
  result.model.factors = pipeline.model().factors;
  return result;
}

void ExpectSameFactors(const std::vector<Matrix>& a,
                       const std::vector<Matrix>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t n = 0; n < a.size(); ++n) {
    ASSERT_EQ(a[n].rows(), b[n].rows());
    ASSERT_EQ(a[n].cols(), b[n].cols());
    for (std::int64_t i = 0; i < a[n].size(); ++i) {
      ASSERT_EQ(a[n].data()[i], b[n].data()[i])
          << what << ": mode " << n << " flat index " << i;
    }
  }
}

void ExpectNearFactors(const std::vector<Matrix>& a,
                       const std::vector<Matrix>& b, double tolerance,
                       const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t n = 0; n < a.size(); ++n) {
    for (std::int64_t i = 0; i < a[n].size(); ++i) {
      ASSERT_NEAR(a[n].data()[i], b[n].data()[i], tolerance)
          << what << ": mode " << n << " flat index " << i;
    }
  }
}

void ExpectSameTensor(const SparseTensor& a, const SparseTensor& b) {
  ASSERT_EQ(a.dims(), b.dims());
  ASSERT_EQ(a.nnz(), b.nnz());
  for (std::int64_t e = 0; e < a.nnz(); ++e) {
    for (std::int64_t n = 0; n < a.order(); ++n) {
      ASSERT_EQ(a.index(e, n), b.index(e, n)) << "entry " << e;
    }
    ASSERT_EQ(a.value(e), b.value(e)) << "entry " << e;
  }
}

// ---------------------------------------------------------------------------
// Property layer
// ---------------------------------------------------------------------------

TEST(IngestPipelineProperty, DeterministicAcrossThreadCountsAndEngines) {
  const SparseTensor initial = MakeInitial(21);
  const TuckerFactorization model = MakeModel(initial, 22);
  for (const std::uint64_t stream_seed : {901ULL, 902ULL, 903ULL}) {
    const std::vector<StreamEvent> events =
        RandomEvents(initial, 96, stream_seed);
    // Ω evolution is pure structure: every engine and thread count must
    // land on the replayed tensor exactly.
    const SparseTensor replayed = ReplayOmega(
        initial, events, static_cast<std::int64_t>(events.size()));

    RunResult reference;  // mode-major, 1 thread
    for (const DeltaEngineChoice engine :
         {DeltaEngineChoice::kModeMajor, DeltaEngineChoice::kNaive,
          DeltaEngineChoice::kCached, DeltaEngineChoice::kContraction}) {
      RunResult per_engine_reference;
      for (const int threads : {1, 4, 13}) {
        ThreadCountGuard ambient(threads);
        RunResult run =
            RunPipeline(initial, model, events, engine, threads);
        ExpectSameTensor(run.omega, replayed);
        if (threads == 1) {
          per_engine_reference = run;
          if (engine == DeltaEngineChoice::kModeMajor) {
            reference = std::move(run);
          }
        } else {
          // Lemma 1 row independence: the trajectory may not depend on
          // the thread count, bit for bit.
          ExpectSameFactors(run.model.factors,
                            per_engine_reference.model.factors,
                            "thread count");
        }
      }
      if (engine != DeltaEngineChoice::kModeMajor) {
        // Naive sums in entry order, the cached engine maintains its
        // Pres table multiplicatively and the contraction engine sums
        // along its core trees — same math, different rounding.
        ExpectNearFactors(per_engine_reference.model.factors,
                          reference.model.factors, 1e-7, "engine");
      }
    }
  }
}

TEST(IngestPipelineProperty, RestartFromAnyFlushBoundaryIsBitExact) {
  // A pipeline rebuilt from (replayed Ω prefix, mid-run model) continues
  // exactly like the uninterrupted run — the invariant crash recovery
  // rides on, checked at a flush boundary mid-stream.
  const SparseTensor initial = MakeInitial(31);
  const TuckerFactorization model = MakeModel(initial, 32);
  const std::vector<StreamEvent> events = RandomEvents(initial, 96, 904);
  const std::int64_t cut = 48;  // multiple of flush_every below

  IngestOptions options;
  options.flush_every = 8;
  IngestPipeline full(initial, model, options);
  for (const StreamEvent& event : events) full.Apply(event);
  full.Flush();

  IngestPipeline head(initial, model, options);
  for (std::int64_t e = 0; e < cut; ++e) {
    head.Apply(events[static_cast<std::size_t>(e)]);
  }
  head.Flush();

  TuckerFactorization mid;
  mid.core = DenseTensor(head.model().core);
  mid.factors = head.model().factors;
  IngestOptions resumed_options = options;
  resumed_options.ops_already_applied = cut;
  IngestPipeline resumed(ReplayOmega(initial, events, cut), std::move(mid),
                         resumed_options);
  for (std::size_t e = static_cast<std::size_t>(cut); e < events.size();
       ++e) {
    resumed.Apply(events[e]);
  }
  resumed.Flush();

  EXPECT_EQ(resumed.ops_applied(), full.ops_applied());
  ExpectSameTensor(resumed.tensor(), full.tensor());
  ExpectSameFactors(resumed.model().factors, full.model().factors,
                    "restart");
}

TEST(IngestPipelineTest, StrictMutationSemantics) {
  const SparseTensor initial = MakeInitial(41);
  const TuckerFactorization model = MakeModel(initial, 42);
  IngestOptions options;
  options.flush_every = 100;  // keep everything buffered
  IngestPipeline pipeline(initial, model, options);

  std::vector<std::int64_t> live = {initial.index(0, 0), initial.index(0, 1),
                                    initial.index(0, 2)};
  EXPECT_THROW(pipeline.Append(live, 0.5), std::invalid_argument);
  const std::vector<std::int64_t> out_of_bounds = {12, 0, 0};
  EXPECT_THROW(pipeline.Update(out_of_bounds, 0.5), std::invalid_argument);

  // NaN and Inf are refused before anything is buffered, naming the
  // coordinate.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(pipeline.Update(live, nan), std::invalid_argument);
  EXPECT_THROW(pipeline.Update(live, inf), std::invalid_argument);
  EXPECT_EQ(pipeline.pending(), 0);

  // Validation covers buffered (not yet flushed) state: delete frees the
  // coordinate for re-append within the same batch, and the re-appended
  // key rejects a second append.
  pipeline.Delete(live);
  EXPECT_THROW(pipeline.Update(live, 0.5), std::invalid_argument);
  try {
    pipeline.Append(live, nan);
    ADD_FAILURE() << "Append accepted NaN";
  } catch (const std::invalid_argument& error) {
    const std::string coordinate = "(" + std::to_string(live[0]) + ", " +
                                   std::to_string(live[1]) + ", " +
                                   std::to_string(live[2]) + ")";
    EXPECT_NE(std::string(error.what()).find(coordinate), std::string::npos)
        << error.what();
  }
  EXPECT_THROW(pipeline.Append(live, inf), std::invalid_argument);
  EXPECT_EQ(pipeline.pending(), 1);
  pipeline.Append(live, 0.25);
  EXPECT_THROW(pipeline.Append(live, 0.5), std::invalid_argument);
  EXPECT_EQ(pipeline.pending(), 2);
  pipeline.Flush();
  EXPECT_EQ(pipeline.pending(), 0);
  EXPECT_EQ(pipeline.ops_applied(), 2);
  EXPECT_EQ(pipeline.tensor().nnz(), initial.nnz());

  // The constructor refuses an Ω that already holds a coordinate twice.
  SparseTensor duplicated = initial;
  duplicated.AddEntry(live, 0.75);
  EXPECT_THROW(IngestPipeline(duplicated, model, options),
               std::invalid_argument);
}

TEST(IngestPipelineTest, RejectsNegativeOrNonFiniteLambda) {
  const SparseTensor initial = MakeInitial(43);
  const TuckerFactorization model = MakeModel(initial, 44);
  for (const double lambda : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity()}) {
    IngestOptions options;
    options.lambda = lambda;
    try {
      IngestPipeline pipeline(initial, model, options);
      ADD_FAILURE() << "accepted lambda " << lambda;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("lambda"), std::string::npos)
          << error.what();
    }
  }
}

TEST(IngestPipelineTest, RejectsNegativeThreadCount) {
  const SparseTensor initial = MakeInitial(45);
  const TuckerFactorization model = MakeModel(initial, 46);
  IngestOptions options;
  options.num_threads = -1;
  try {
    IngestPipeline pipeline(initial, model, options);
    ADD_FAILURE() << "accepted num_threads -1";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("num_threads"),
              std::string::npos)
        << error.what();
  }
}

TEST(IngestPipelineTest, OmegaMatchesReplayAtEveryBatchLength) {
  // Entry ids are found by handle rank, so Ω must come out the same
  // whether every delete compacts on its own (flush_every 1) or the whole
  // log is one batch: an update after an append, a delete of an entry
  // appended in the same batch, and a delete then re-append all resolve
  // to the right entry.
  const SparseTensor initial = MakeInitial(45);
  const TuckerFactorization model = MakeModel(initial, 46);
  std::vector<StreamEvent> events = RandomEvents(initial, 64, 905);

  const SparseTensor prefix = ReplayOmega(
      initial, events, static_cast<std::int64_t>(events.size()));
  const std::vector<std::int64_t> live = {prefix.index(0, 0),
                                          prefix.index(0, 1),
                                          prefix.index(0, 2)};
  std::unordered_set<std::int64_t> observed;
  const std::vector<std::int64_t> strides = ComputeStrides(prefix.dims());
  for (std::int64_t e = 0; e < prefix.nnz(); ++e) {
    observed.insert(Linearize(prefix.index(e), strides, prefix.order()));
  }
  std::int64_t fresh_key = 0;
  while (observed.count(fresh_key) != 0) ++fresh_key;
  std::vector<std::int64_t> fresh(3);
  Delinearize(fresh_key, prefix.dims(), fresh.data());
  const auto add = [&](StreamOp op, const std::vector<std::int64_t>& index,
                       double value) {
    StreamEvent event;
    event.op = op;
    event.index = index;
    event.value = value;
    events.push_back(std::move(event));
  };
  add(StreamOp::kAppend, fresh, 0.1);
  add(StreamOp::kUpdate, fresh, 0.2);
  add(StreamOp::kDelete, live, 0.0);
  add(StreamOp::kAppend, live, 0.3);
  add(StreamOp::kUpdate, live, 0.4);
  add(StreamOp::kDelete, fresh, 0.0);
  add(StreamOp::kAppend, fresh, 0.5);

  const std::int64_t count = static_cast<std::int64_t>(events.size());
  const SparseTensor replayed = ReplayOmega(initial, events, count);
  for (const std::int64_t flush_every : {std::int64_t{1}, count + 1}) {
    const RunResult run =
        RunPipeline(initial, model, events, DeltaEngineChoice::kContraction,
                    1, flush_every);
    ExpectSameTensor(run.omega, replayed);
  }
}

TEST(IngestPipelineTest, FlushTracesItsPhases) {
  // stream.flush holds three child spans: stream.apply and
  // stream.row_solve on every flush, stream.engine_rebuild only when Ω
  // changed structurally.
  const SparseTensor initial = MakeInitial(47);
  const TuckerFactorization model = MakeModel(initial, 48);
  IngestOptions options;
  options.flush_every = 100;
  options.num_threads = 1;
  IngestPipeline pipeline(initial, model, options);
  const std::vector<std::int64_t> first = {
      initial.index(0, 0), initial.index(0, 1), initial.index(0, 2)};
  const std::vector<std::int64_t> second = {
      initial.index(1, 0), initial.index(1, 1), initial.index(1, 2)};

  obs::Tracer& tracer = obs::Tracer::Global();
  const auto traced_flush = [&](const std::function<void()>& mutate) {
    tracer.Clear();
    tracer.Enable();
    mutate();
    pipeline.Flush();
    std::vector<obs::TraceEvent> spans = tracer.Snapshot();
    tracer.Disable();
    tracer.Clear();
    return spans;
  };
  const auto find = [](const std::vector<obs::TraceEvent>& spans,
                       const std::string& name) {
    const obs::TraceEvent* found = nullptr;
    for (const obs::TraceEvent& span : spans) {
      if (name == span.name) {
        EXPECT_EQ(found, nullptr) << "two " << name << " spans";
        found = &span;
      }
    }
    return found;
  };
  const auto expect_inside = [](const obs::TraceEvent* child,
                                const obs::TraceEvent& parent) {
    ASSERT_NE(child, nullptr);
    EXPECT_GE(child->ts_us, parent.ts_us) << child->name;
    EXPECT_LE(child->ts_us + child->dur_us, parent.ts_us + parent.dur_us)
        << child->name;
  };

  const std::vector<obs::TraceEvent> structural = traced_flush([&] {
    pipeline.Delete(first);
    pipeline.Append(first, 0.5);
  });
  const obs::TraceEvent* flush = find(structural, "stream.flush");
  ASSERT_NE(flush, nullptr);
  for (const char* child :
       {"stream.apply", "stream.engine_rebuild", "stream.row_solve"}) {
    expect_inside(find(structural, child), *flush);
  }

  const std::vector<obs::TraceEvent> values_only =
      traced_flush([&] { pipeline.Update(second, 0.25); });
  flush = find(values_only, "stream.flush");
  ASSERT_NE(flush, nullptr);
  expect_inside(find(values_only, "stream.apply"), *flush);
  expect_inside(find(values_only, "stream.row_solve"), *flush);
  EXPECT_EQ(find(values_only, "stream.engine_rebuild"), nullptr);
}

TEST(IngestPipelineTest, CheckpointPublishesHotSwappedSnapshot) {
  const SparseTensor initial = MakeInitial(51);
  const TuckerFactorization model = MakeModel(initial, 52);
  PredictionService service(ModelSnapshot::Create(model));
  const std::shared_ptr<const ModelSnapshot> before = service.snapshot();

  IngestOptions options;
  options.flush_every = 4;
  options.service = &service;  // in-memory publish, nothing durable
  IngestPipeline pipeline(initial, model, options);
  const std::vector<StreamEvent> events = RandomEvents(initial, 8, 905);
  for (const StreamEvent& event : events) pipeline.Apply(event);
  pipeline.Checkpoint();

  const std::shared_ptr<const ModelSnapshot> after = service.snapshot();
  ASSERT_NE(after, before);
  // The served snapshot is the pipeline's live model.
  const std::vector<std::int64_t> query = {0, 0, 0};
  const CoreEntryList list(pipeline.model().core);
  const ModeMajorDeltaEngine engine(list, pipeline.model().factors,
                                    nullptr);
  EXPECT_EQ(service.Predict(query), engine.Reconstruct(query.data()));
}

// ---------------------------------------------------------------------------
// Fault-injection layer
// ---------------------------------------------------------------------------

TEST(IngestPipelineFault, CrashBetweenCheckpointAndPublishRecovers) {
  const SparseTensor initial = MakeInitial(61);
  const TuckerFactorization model = MakeModel(initial, 62);
  const std::vector<StreamEvent> events = RandomEvents(initial, 96, 906);
  const std::string base =
      (std::filesystem::temp_directory_path() / "ingest_fault_test")
          .string();
  std::filesystem::remove_all(base);

  IngestOptions options;
  options.flush_every = 8;      // divides checkpoint_every: boundaries
  options.checkpoint_every = 32;  // land exactly on flushes

  // Uninterrupted run A.
  IngestOptions a_options = options;
  a_options.checkpoint_dir = base + "/a";
  IngestPipeline a(initial, model, a_options);
  for (const StreamEvent& event : events) a.Apply(event);
  a.Flush();
  EXPECT_EQ(a.checkpoints_written(), 3);

  // Run B crashes in the durability->publish window of checkpoint 2.
  IngestOptions b_options = options;
  b_options.checkpoint_dir = base + "/b";
  int fired = 0;
  b_options.fault_hook = [&fired] {
    if (++fired == 2) throw std::runtime_error("injected crash");
  };
  IngestPipeline b(initial, model, b_options);
  bool crashed = false;
  std::int64_t applied_before_crash = 0;
  try {
    for (const StreamEvent& event : events) {
      b.Apply(event);
      ++applied_before_crash;
    }
    b.Flush();
  } catch (const std::runtime_error&) {
    crashed = true;
  }
  ASSERT_TRUE(crashed);
  // The throw escaped from Apply of event #64 — the one whose flush
  // triggered checkpoint 2 — after the flush folded the batch in.
  EXPECT_EQ(applied_before_crash, 63);
  EXPECT_EQ(b.ops_applied(), 64);

  // Recovery: the checkpoint itself was durable before the crash, so
  // the MANIFEST names seq 2 at 64 ops. Restart from it and replay the
  // tail.
  CheckpointInfo info;
  ASSERT_TRUE(LatestCheckpoint(base + "/b", &info));
  EXPECT_EQ(info.seq, 2);
  EXPECT_EQ(info.ops_applied, 64);

  IngestOptions recovered_options = options;
  recovered_options.checkpoint_dir = base + "/b";
  recovered_options.ops_already_applied = info.ops_applied;
  IngestPipeline recovered(ReplayOmega(initial, events, info.ops_applied),
                           LoadSnapshot(info.path), recovered_options);
  for (std::size_t e = static_cast<std::size_t>(info.ops_applied);
       e < events.size(); ++e) {
    recovered.Apply(events[e]);
  }
  recovered.Flush();

  // Bit-identical to the run that never crashed, and the checkpoint
  // sequence continued (seq 3 written once, by the recovered run).
  ExpectSameTensor(recovered.tensor(), a.tensor());
  ExpectSameFactors(recovered.model().factors, a.model().factors,
                    "recovery");
  CheckpointInfo final_info;
  ASSERT_TRUE(LatestCheckpoint(base + "/b", &final_info));
  EXPECT_EQ(final_info.seq, 3);
  EXPECT_EQ(final_info.ops_applied, 96);

  std::filesystem::remove_all(base);
}

TEST(IngestPipelineTest, LatestCheckpointHandlesMissingAndMalformed) {
  const std::string base =
      (std::filesystem::temp_directory_path() / "ingest_manifest_test")
          .string();
  std::filesystem::remove_all(base);
  CheckpointInfo info;
  EXPECT_FALSE(LatestCheckpoint(base, &info));  // no directory

  std::filesystem::create_directories(base);
  EXPECT_FALSE(LatestCheckpoint(base, &info));  // no MANIFEST

  {
    std::ofstream out(base + "/MANIFEST");
    out << "not a manifest\n";
  }
  EXPECT_THROW(LatestCheckpoint(base, &info), std::runtime_error);
  std::filesystem::remove_all(base);
}

}  // namespace
}  // namespace ptucker

#include "distributed/proc/dist_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/core_update.h"
#include "core/delta.h"
#include "core/delta_engine.h"
#include "core/orthogonalize.h"
#include "core/ptucker.h"
#include "core/reconstruction.h"
#include "core/row_update.h"
#include "distributed/partition.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/random.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"

namespace ptucker {

namespace {

// First lane owned by `rank` in the fixed 64-lane partition — the same
// balanced boundary formula as PartitionRowsBlock, over lanes instead of
// rows. Worker r owns [WorkerLaneBegin(r), WorkerLaneBegin(r+1)).
std::int64_t WorkerLaneBegin(std::int64_t rank, std::int64_t workers) {
  return kReductionLanes * rank / workers;
}

void ValidateDistributed(const SparseTensor& x, const PTuckerOptions& options,
                         const DistOptions& dist) {
  if (dist.workers < 1 || dist.workers > kReductionLanes) {
    throw std::invalid_argument(
        "distributed P-Tucker: workers must be in [1, " +
        std::to_string(kReductionLanes) +
        "] (each worker owns a contiguous reduction-lane subrange)");
  }
  if (options.variant != PTuckerVariant::kMemory) {
    throw std::invalid_argument(
        "distributed P-Tucker: only the kMemory variant is supported (the "
        "cache table is node-local and approx re-plans |G| mid-flight)");
  }
  if (options.tracker != nullptr) {
    throw std::invalid_argument(
        "distributed P-Tucker: the memory tracker is process-local and "
        "cannot account a multi-process solve");
  }
  if (x.nnz() == 0) {
    throw std::invalid_argument(
        "distributed P-Tucker: tensor has no observed entries");
  }
  if (!x.has_mode_index()) {
    throw std::invalid_argument(
        "distributed P-Tucker: call SparseTensor::BuildModeIndex() before "
        "decomposing");
  }
  if (static_cast<std::int64_t>(options.core_dims.size()) != x.order()) {
    throw std::invalid_argument(
        "distributed P-Tucker: core_dims order does not match tensor order");
  }
  for (std::int64_t n = 0; n < x.order(); ++n) {
    const std::int64_t rank = options.core_dims[static_cast<std::size_t>(n)];
    if (rank < 1) {
      throw std::invalid_argument(
          "distributed P-Tucker: core dimensionality must be >= 1");
    }
    if (options.orthogonalize_output && rank > x.dim(n)) {
      throw std::invalid_argument(
          "distributed P-Tucker: Jn > In is incompatible with QR "
          "orthogonalization");
    }
  }
  if (options.lambda < 0.0) {
    throw std::invalid_argument(
        "distributed P-Tucker: lambda must be non-negative");
  }
  if (options.max_iterations < 1) {
    throw std::invalid_argument(
        "distributed P-Tucker: max_iterations must be >= 1");
  }
  if (options.sample_rate <= 0.0 || options.sample_rate > 1.0) {
    throw std::invalid_argument(
        "distributed P-Tucker: sample_rate must be in (0, 1]");
  }
}

// Replicates the single-process initialization (Algorithm 2 line 1)
// exactly: coordinator and every worker draw the same factors and core
// from the same seed (or copy the same warm-start snapshot), so all
// N + 1 model replicas start bit-identical.
DenseTensor InitModel(const SparseTensor& x, const PTuckerOptions& options,
                      std::vector<Matrix>* factors) {
  Rng rng(options.seed);
  factors->clear();
  factors->reserve(static_cast<std::size_t>(x.order()));
  for (std::int64_t n = 0; n < x.order(); ++n) {
    const std::int64_t rank = options.core_dims[static_cast<std::size_t>(n)];
    if (options.init_snapshot != nullptr) {
      factors->push_back(
          options.init_snapshot->factors[static_cast<std::size_t>(n)]);
    } else {
      Matrix factor(x.dim(n), rank);
      factor.FillUniform(rng);
      factors->push_back(std::move(factor));
    }
  }
  DenseTensor core(options.core_dims);
  if (options.init_snapshot != nullptr) {
    core = options.init_snapshot->core;
  } else {
    core.FillUniform(rng);
  }
  return core;
}

// Receives one frame from `rank`, converting every failure into a
// DistError that names the worker: transport errors get a "worker r:"
// prefix, kAbort frames carry the worker's own message, and an opcode or
// iteration-tag mismatch is a protocol violation in its own right.
DistFrame ExpectFrame(FrameChannel& channel, std::int64_t rank,
                      DistOpcode want, std::uint64_t tag) {
  DistFrame frame;
  try {
    frame = channel.RecvFrame();
  } catch (const DistError& e) {
    throw DistError("worker " + std::to_string(rank) + ": " + e.what());
  }
  if (frame.opcode == DistOpcode::kAbort) {
    throw DistError("worker " + std::to_string(rank) + " aborted: " +
                    std::string(frame.payload.begin(), frame.payload.end()));
  }
  if (frame.opcode != want) {
    throw DistError("worker " + std::to_string(rank) + " sent opcode " +
                    std::to_string(static_cast<unsigned>(frame.opcode)) +
                    " where " + std::to_string(static_cast<unsigned>(want)) +
                    " was expected");
  }
  if (frame.tag != tag) {
    throw DistError("worker " + std::to_string(rank) + " replied with tag " +
                    std::to_string(frame.tag) + ", want " +
                    std::to_string(tag));
  }
  return frame;
}

// CoreCgMatVec over the cluster: broadcasts the input vector, gathers
// every worker's raw per-lane partials into the full 64-lane buffer, and
// folds all lanes in lane order — the same fold LocalCoreMatVec runs on
// its own lane buffer, so CG sees bit-identical vectors either way.
class RemoteCoreMatVec : public CoreCgMatVec {
 public:
  RemoteCoreMatVec(ClusterTransport* transport, std::size_t width,
                   std::uint64_t tag)
      : transport_(transport),
        width_(width),
        tag_(tag),
        lane_sums_(static_cast<std::size_t>(kReductionLanes) * width) {}

  void ResidualBase(const std::vector<double>& g,
                    std::vector<double>* z) override {
    Product(DistOpcode::kCoreResidual, g, z);
  }

  void NormalProduct(const std::vector<double>& d,
                     std::vector<double>* z) override {
    Product(DistOpcode::kCoreMatVec, d, z);
  }

 private:
  void Product(DistOpcode opcode, const std::vector<double>& input,
               std::vector<double>* z) {
    const std::vector<std::uint8_t> payload = EncodeDoubleVector(input);
    const std::int64_t workers = transport_->workers();
    for (std::int64_t r = 0; r < workers; ++r) {
      transport_->Channel(r).SendFrame(opcode, tag_, payload);
    }
    std::fill(lane_sums_.begin(), lane_sums_.end(), 0.0);
    for (std::int64_t r = 0; r < workers; ++r) {
      const DistFrame frame = ExpectFrame(transport_->Channel(r), r,
                                          DistOpcode::kCorePartials, tag_);
      DistLaneBlock block;
      std::string error;
      if (!ParseLaneBlock(frame.payload, &block, &error)) {
        throw DistError("worker " + std::to_string(r) +
                        " sent a malformed lane block: " + error);
      }
      if (block.first_lane != WorkerLaneBegin(r, workers) ||
          block.lane_count !=
              WorkerLaneBegin(r + 1, workers) - WorkerLaneBegin(r, workers) ||
          block.width != static_cast<std::int64_t>(width_)) {
        throw DistError("worker " + std::to_string(r) +
                        " sent lane range [" +
                        std::to_string(block.first_lane) + ", +" +
                        std::to_string(block.lane_count) + ") x " +
                        std::to_string(block.width) +
                        " that does not match its lane ownership");
      }
      std::copy(block.values.begin(), block.values.end(),
                lane_sums_.begin() +
                    static_cast<std::size_t>(block.first_lane) * width_);
    }
    z->resize(width_);
    FoldVectorLaneSums(lane_sums_.data(), kReductionLanes, width_, z->data());
  }

  ClusterTransport* transport_;
  std::size_t width_;
  std::uint64_t tag_;
  std::vector<double> lane_sums_;
};

// The worker body: replicate the model, build the engine, then obey
// coordinator commands until kShutdown. Throws DistError to exit (the
// transport's worker wrapper swallows it and EOFs the channel).
void RunDistWorker(const SparseTensor& x, const PTuckerOptions& options,
                   const DistOptions& dist, std::int64_t rank,
                   FrameChannel& channel) {
  // One OpenMP thread per worker: the fixed reduction lanes make every
  // result thread-count invariant anyway, and a forked child must not
  // re-enter the parent's OpenMP runtime with a stale thread pool.
  OmpEnvironmentGuard omp_guard(1, options.scheduling);
  const std::int64_t order = x.order();
  const std::int64_t workers = dist.workers;

  // A forked worker inherits the parent tracer's rings; drop them so
  // the kBye payload carries only this rank's spans. In-process workers
  // share the coordinator's live tracer and must leave it alone.
  if (dist.transport != DistTransport::kInProcess &&
      obs::Tracer::Global().enabled()) {
    obs::Tracer::Global().Clear();
  }

  std::vector<Matrix> factors;
  DenseTensor core = InitModel(x, options, &factors);
  CoreEntryList core_list(core);
  const std::unique_ptr<DeltaEngine> engine = MakeDeltaEngine(
      ResolveDeltaEngineChoice(options), x, core_list, factors,
      /*tracker=*/nullptr, options.adaptive_epsilon, options.tile_width);

  // Row ownership per mode (every worker derives the same partition) and
  // this rank's contiguous reduction-lane subrange.
  std::vector<std::vector<std::int64_t>> own_rows(
      static_cast<std::size_t>(order));
  for (std::int64_t mode = 0; mode < order; ++mode) {
    own_rows[static_cast<std::size_t>(mode)] = std::move(
        PartitionRowsBlock(x, mode, workers)
            .rows_per_worker[static_cast<std::size_t>(rank)]);
  }
  const std::int64_t lane_begin = WorkerLaneBegin(rank, workers);
  const std::int64_t lane_end = WorkerLaneBegin(rank + 1, workers);
  const std::int64_t lane_count = lane_end - lane_begin;

  Matrix pending_old;
  std::vector<double> lane_buffer;
  for (;;) {
    const DistFrame frame = channel.RecvFrame();
    try {
      switch (frame.opcode) {
        case DistOpcode::kSolveMode: {
          std::int64_t mode = 0;
          std::string error;
          if (!ParseSolveMode(frame.payload, &mode, &error)) {
            throw std::runtime_error(error);
          }
          if (mode < 0 || mode >= order) {
            throw std::runtime_error("solve-mode " + std::to_string(mode) +
                                     " out of range");
          }
          const auto& rows = own_rows[static_cast<std::size_t>(mode)];
          const DistFaultInjection& fault = dist.fault;
          if (fault.kind != DistFaultInjection::Kind::kNone &&
              fault.rank == rank &&
              fault.iteration == static_cast<int>(frame.tag) &&
              fault.mode == mode) {
            if (fault.kind == DistFaultInjection::Kind::kKillWorker) {
              // Die silently: the coordinator sees a clean EOF where a
              // kRows frame was due.
              throw DistError("fault injection: worker killed");
            }
            if (fault.kind == DistFaultInjection::Kind::kCorruptFrame) {
              std::vector<std::uint8_t> bytes =
                  EncodeDistFrame(DistOpcode::kRows, frame.tag, {});
              bytes[0] = 0x58;  // 'X' where 'P' belongs
              channel.SendRaw(bytes.data(), bytes.size());
              continue;  // sit silent; the coordinator will abort us
            }
            // kTruncatedFrame: half a legitimate frame, then EOF.
            const std::vector<std::uint8_t> bytes = EncodeDistFrame(
                DistOpcode::kRows, frame.tag,
                EncodeRowBlock(mode, factors[static_cast<std::size_t>(mode)],
                               rows.empty() ? 0 : rows.front(),
                               static_cast<std::int64_t>(rows.size())));
            channel.SendRaw(bytes.data(), bytes.size() / 2);
            throw DistError("fault injection: frame truncated");
          }
          PTUCKER_TRACE_SPAN("dist.row_solve");
          pending_old = Matrix();
          if (engine->WantsFactorSnapshot()) {
            pending_old = factors[static_cast<std::size_t>(mode)];
          }
          if (!rows.empty()) {
            RowUpdateOptions row_options;
            row_options.lambda = options.lambda;
            row_options.sample_rate = options.sample_rate;
            row_options.seed = options.seed;
            row_options.iteration = static_cast<int>(frame.tag);
            UpdateFactorRows(x, mode, rows.data(),
                             static_cast<std::int64_t>(rows.size()), *engine,
                             &factors[static_cast<std::size_t>(mode)],
                             row_options);
          }
          channel.SendFrame(
              DistOpcode::kRows, frame.tag,
              EncodeRowBlock(mode, factors[static_cast<std::size_t>(mode)],
                             rows.empty() ? 0 : rows.front(),
                             static_cast<std::int64_t>(rows.size())));
          break;
        }
        case DistOpcode::kFactor: {
          PTUCKER_TRACE_SPAN("dist.row_exchange");
          DistRowBlock block;
          std::string error;
          if (!ParseRowBlock(frame.payload, &block, &error)) {
            throw std::runtime_error(error);
          }
          if (block.mode < 0 || block.mode >= order) {
            throw std::runtime_error("factor mode out of range");
          }
          Matrix& factor = factors[static_cast<std::size_t>(block.mode)];
          if (block.row_begin != 0 || block.row_count != factor.rows() ||
              block.cols != factor.cols()) {
            throw std::runtime_error("factor broadcast shape mismatch");
          }
          // In-place copy: engines hold views into this storage, so the
          // buffer must never reallocate.
          std::copy(block.values.begin(), block.values.end(), factor.data());
          engine->OnFactorUpdated(block.mode, pending_old);
          break;
        }
        case DistOpcode::kCoreResidual:
        case DistOpcode::kCoreMatVec: {
          PTUCKER_TRACE_SPAN("dist.reduction");
          std::vector<double> input;
          std::string error;
          if (!ParseDoubleVector(frame.payload, &input, &error)) {
            throw std::runtime_error(error);
          }
          if (static_cast<std::int64_t>(input.size()) != core_list.size()) {
            throw std::runtime_error("core vector length mismatch");
          }
          lane_buffer.assign(
              static_cast<std::size_t>(lane_count) * input.size(), 0.0);
          DesignLanePartials(
              x, *engine,
              /*residual_from_x=*/frame.opcode == DistOpcode::kCoreResidual,
              input, lane_begin, lane_end, lane_buffer.data());
          channel.SendFrame(
              DistOpcode::kCorePartials, frame.tag,
              EncodeLaneBlock(lane_begin, lane_count,
                              static_cast<std::int64_t>(input.size()),
                              lane_buffer.data()));
          break;
        }
        case DistOpcode::kCoreWrite: {
          std::vector<double> g;
          std::string error;
          if (!ParseDoubleVector(frame.payload, &g, &error)) {
            throw std::runtime_error(error);
          }
          if (static_cast<std::int64_t>(g.size()) != core_list.size()) {
            throw std::runtime_error("core write length mismatch");
          }
          StoreCoreValues(g, &core, &core_list);
          engine->OnCoreValuesChanged();
          channel.SendFrame(DistOpcode::kAck, frame.tag, {});
          break;
        }
        case DistOpcode::kErrorSums: {
          PTUCKER_TRACE_SPAN("dist.reduction");
          lane_buffer.assign(static_cast<std::size_t>(lane_count), 0.0);
          SquaredResidualLaneSums(x, *engine, lane_begin, lane_end,
                                  lane_buffer.data());
          channel.SendFrame(
              DistOpcode::kErrorSums, frame.tag,
              EncodeLaneBlock(lane_begin, lane_count, 1, lane_buffer.data()));
          break;
        }
        case DistOpcode::kShutdown: {
          // When tracing is on, the farewell carries this worker's span
          // ring so the coordinator can merge all ranks into one Chrome
          // trace. In-process workers already share the coordinator's
          // tracer, so shipping the ring back would double every span.
          std::vector<std::uint8_t> bye;
          obs::Tracer& tracer = obs::Tracer::Global();
          if (tracer.enabled() &&
              dist.transport != DistTransport::kInProcess) {
            bye = tracer.SerializeEvents();
          }
          channel.SendFrame(DistOpcode::kBye, frame.tag, bye);
          return;
        }
        default:
          throw std::runtime_error(
              "unexpected opcode " +
              std::to_string(static_cast<unsigned>(frame.opcode)) +
              " from coordinator");
      }
    } catch (const DistError&) {
      throw;  // deliberate exit (fault injection or dead coordinator)
    } catch (const std::exception& e) {
      // Convict ourselves loudly before going away, so the coordinator's
      // error names the cause instead of just "connection closed".
      const std::string message = e.what();
      channel.SendFrame(
          DistOpcode::kAbort, frame.tag,
          std::vector<std::uint8_t>(message.begin(), message.end()));
      throw DistError("worker aborted: " + message);
    }
  }
}

}  // namespace

DistributedPTuckerResult DistributedPTuckerDecompose(
    const SparseTensor& x, const PTuckerOptions& options,
    const DistOptions& dist) {
  ValidateDistributed(x, options, dist);
  const std::int64_t order = x.order();
  const std::int64_t workers = dist.workers;
  Stopwatch total_clock;

  const WorkerMain worker_main = [&x, &options, &dist](std::int64_t rank,
                                                       FrameChannel& channel) {
    RunDistWorker(x, options, dist, rank, channel);
  };
  const std::unique_ptr<ClusterTransport> transport = LaunchCluster(
      dist.transport, workers, worker_main, dist.recv_timeout_ms);

  DistributedPTuckerResult out;
  out.stats.workers = workers;
  try {
    // The coordinator's own model replica (no engine: all Ω-dependent
    // compute runs on the workers; the wrap-up phases below reuse the
    // single-process code paths).
    std::vector<Matrix> factors;
    DenseTensor core = InitModel(x, options, &factors);
    CoreEntryList core_list(core);

    // Row ownership (the same blocks every worker derives) plus the cost
    // model DistributedStats reports: per-iteration serial work and
    // makespan under RowUpdateCost. The partition is fixed, so both are
    // constant across iterations.
    std::vector<RowPartition> partitions;
    partitions.reserve(static_cast<std::size_t>(order));
    std::int64_t total_cost = 0;
    std::int64_t makespan = 0;
    for (std::int64_t mode = 0; mode < order; ++mode) {
      partitions.push_back(PartitionRowsBlock(x, mode, workers));
      std::int64_t max_load = 0;
      for (std::int64_t r = 0; r < workers; ++r) {
        std::int64_t load = 0;
        for (const std::int64_t row :
             partitions.back().rows_per_worker[static_cast<std::size_t>(r)]) {
          load += RowUpdateCost(x, mode, row);
        }
        total_cost += load;
        max_load = std::max(max_load, load);
      }
      makespan += max_load;
    }

    PTuckerResult& result = out.result;
    double previous_error = std::numeric_limits<double>::infinity();

    for (int iteration = 1; iteration <= options.max_iterations;
         ++iteration) {
      Stopwatch iteration_clock;
      const std::uint64_t tag = static_cast<std::uint64_t>(iteration);

      // --- Factor updates: one lock-step exchange per mode. ---
      for (std::int64_t mode = 0; mode < order; ++mode) {
        const std::vector<std::uint8_t> solve = EncodeSolveMode(mode);
        for (std::int64_t r = 0; r < workers; ++r) {
          transport->Channel(r).SendFrame(DistOpcode::kSolveMode, tag, solve);
        }
        Matrix& factor = factors[static_cast<std::size_t>(mode)];
        const RowPartition& partition =
            partitions[static_cast<std::size_t>(mode)];
        for (std::int64_t r = 0; r < workers; ++r) {
          const DistFrame frame = ExpectFrame(transport->Channel(r), r,
                                              DistOpcode::kRows, tag);
          DistRowBlock block;
          std::string error;
          if (!ParseRowBlock(frame.payload, &block, &error)) {
            throw DistError("worker " + std::to_string(r) +
                            " sent a malformed row block: " + error);
          }
          const auto& owned =
              partition.rows_per_worker[static_cast<std::size_t>(r)];
          const std::int64_t want_begin = owned.empty() ? 0 : owned.front();
          if (block.mode != mode || block.cols != factor.cols() ||
              block.row_begin != want_begin ||
              block.row_count != static_cast<std::int64_t>(owned.size())) {
            throw DistError("worker " + std::to_string(r) +
                            " sent rows [" + std::to_string(block.row_begin) +
                            ", +" + std::to_string(block.row_count) +
                            ") of mode " + std::to_string(block.mode) +
                            " that do not match its row ownership");
          }
          if (block.row_count > 0) {
            std::copy(block.values.begin(), block.values.end(),
                      factor.Row(block.row_begin));
          }
        }
        const std::vector<std::uint8_t> merged =
            EncodeRowBlock(mode, factor, 0, factor.rows());
        for (std::int64_t r = 0; r < workers; ++r) {
          transport->Channel(r).SendFrame(DistOpcode::kFactor, tag, merged);
        }
      }

      // --- Optional core re-fit: coordinator runs the CG control flow,
      // workers compute the design products as lane partials. ---
      if (options.update_core && core_list.size() > 0 &&
          options.core_update_cg_iterations > 0) {
        std::vector<double> g(static_cast<std::size_t>(core_list.size()));
        for (std::int64_t b = 0; b < core_list.size(); ++b) {
          g[static_cast<std::size_t>(b)] = core_list.value(b);
        }
        RemoteCoreMatVec matvec(transport.get(), g.size(), tag);
        RunCoreCg(&matvec, options.lambda,
                  options.core_update_cg_iterations, &g);
        StoreCoreValues(g, &core, &core_list);
        const std::vector<std::uint8_t> payload = EncodeDoubleVector(g);
        for (std::int64_t r = 0; r < workers; ++r) {
          transport->Channel(r).SendFrame(DistOpcode::kCoreWrite, tag,
                                          payload);
        }
        for (std::int64_t r = 0; r < workers; ++r) {
          ExpectFrame(transport->Channel(r), r, DistOpcode::kAck, tag);
        }
      }

      // --- Reconstruction error: gather all 64 lane partials, fold in
      // lane order, exactly like the single-process blocked sum. ---
      for (std::int64_t r = 0; r < workers; ++r) {
        transport->Channel(r).SendFrame(DistOpcode::kErrorSums, tag, {});
      }
      double lane_sums[kReductionLanes] = {0.0};
      for (std::int64_t r = 0; r < workers; ++r) {
        const DistFrame frame = ExpectFrame(transport->Channel(r), r,
                                            DistOpcode::kErrorSums, tag);
        DistLaneBlock block;
        std::string error;
        if (!ParseLaneBlock(frame.payload, &block, &error)) {
          throw DistError("worker " + std::to_string(r) +
                          " sent a malformed lane block: " + error);
        }
        if (block.first_lane != WorkerLaneBegin(r, workers) ||
            block.lane_count != WorkerLaneBegin(r + 1, workers) -
                                    WorkerLaneBegin(r, workers) ||
            block.width != 1) {
          throw DistError("worker " + std::to_string(r) +
                          " sent an error-sum lane range that does not "
                          "match its lane ownership");
        }
        std::copy(block.values.begin(), block.values.end(),
                  lane_sums + block.first_lane);
      }
      const double error = std::sqrt(FoldLaneSums(lane_sums, kReductionLanes));

      IterationStats stats;
      stats.iteration = iteration;
      stats.error = error;
      stats.core_nnz = core_list.size();
      stats.peak_intermediate_bytes = 0;
      const double change =
          std::fabs(previous_error - error) / std::max(previous_error, 1e-12);
      previous_error = error;
      stats.seconds = iteration_clock.ElapsedSeconds();
      result.iterations.push_back(stats);
      out.stats.makespan_per_iteration.push_back(makespan);
      out.stats.total_cost_per_iteration.push_back(total_cost);
      if (options.verbose) {
        PTUCKER_LOG(kInfo) << "distributed iteration " << iteration
                           << ": error=" << error << " (" << stats.seconds
                           << "s, " << workers << " workers)";
      }
      if (change < options.tolerance) {
        result.converged = true;
        break;
      }
    }

    // --- Clean shutdown, then the single-process wrap-up phases. ---
    for (std::int64_t r = 0; r < workers; ++r) {
      transport->Channel(r).SendFrame(DistOpcode::kShutdown, 0, {});
    }
    for (std::int64_t r = 0; r < workers; ++r) {
      const DistFrame bye =
          ExpectFrame(transport->Channel(r), r, DistOpcode::kBye, 0);
      // Merge the worker's spans (pid r+1; the coordinator is pid 0).
      // Telemetry never fails a finished solve: a malformed payload is
      // logged and dropped.
      if (!bye.payload.empty() && obs::Tracer::Global().enabled()) {
        std::string error;
        if (!obs::Tracer::Global().ImportSerialized(
                bye.payload, static_cast<int>(r) + 1, &error)) {
          PTUCKER_LOG(kWarning) << "worker " << r
                                << ": undecodable trace payload: " << error;
        }
      }
    }
    out.stats.total_comm_bytes = transport->TotalCommBytes();
    out.stats.iterations_run = static_cast<int>(result.iterations.size());
    transport->Shutdown();

    if (options.orthogonalize_output) {
      OrthogonalizeFactors(&factors, &core);
      core_list = CoreEntryList(core);
    }
    result.final_error = ReconstructionError(x, core_list, factors);
    result.model.factors = std::move(factors);
    result.model.core = std::move(core);
    result.total_seconds = total_clock.ElapsedSeconds();
  } catch (...) {
    transport->Abort();
    throw;
  }
  return out;
}

}  // namespace ptucker

#include "distributed/proc/dist_solver.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/als_driver.h"
#include "core/core_update.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "obs/trace.h"

namespace ptucker {

namespace {

// The cluster-only checks; everything else is RunAls's
// ValidateAlsInputs, shared with PTuckerDecompose.
void ValidateDistributed(const PTuckerOptions& options,
                         const DistOptions& dist) {
  if (dist.workers < 1 || dist.workers > kReductionLanes) {
    throw std::invalid_argument(
        "distributed P-Tucker: workers must be in [1, " +
        std::to_string(kReductionLanes) +
        "] (each worker owns a contiguous reduction-lane subrange)");
  }
  if (options.variant == PTuckerVariant::kApprox) {
    throw std::invalid_argument(
        "distributed P-Tucker: the kApprox variant is not supported (its "
        "truncation changes |G| mid-flight, which the workers' core "
        "replicas would have to re-plan)");
  }
  if (options.tracker != nullptr) {
    throw std::invalid_argument(
        "distributed P-Tucker: the memory tracker is process-local and "
        "cannot account a multi-process solve");
  }
  if (dist.recv_timeout_ms < 1) {
    throw std::invalid_argument(
        "distributed P-Tucker: recv_timeout_ms must be >= 1, got " +
        std::to_string(dist.recv_timeout_ms));
  }
}

// Receives one frame from `rank`, converting every failure into a
// DistError that names the worker: channel errors get a "worker r:"
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

// Sends one `opcode` frame carrying `payload` to every worker.
void Broadcast(Cluster* cluster, DistOpcode opcode,
               std::uint64_t tag, const std::vector<std::uint8_t>& payload) {
  for (std::int64_t r = 0; r < cluster->workers(); ++r) {
    cluster->Channel(r).SendFrame(opcode, tag, payload);
  }
}

// Broadcasts `payload` under `opcode` to every worker, then gathers each
// worker's raw lane partials (a `reply` frame), checks that they cover
// exactly its lane subrange at `width` values per lane, and copies them
// into the full kReductionLanes x width buffer `lane_sums`. The worker
// subranges tile all lanes, so every slot is written.
void GatherLaneSums(Cluster* cluster, DistOpcode opcode,
                    const std::vector<std::uint8_t>& payload,
                    DistOpcode reply, std::uint64_t tag, std::size_t width,
                    double* lane_sums) {
  const std::int64_t workers = cluster->workers();
  Broadcast(cluster, opcode, tag, payload);
  for (std::int64_t r = 0; r < workers; ++r) {
    const DistFrame frame = ExpectFrame(cluster->Channel(r), r, reply, tag);
    DistLaneBlock block;
    std::string error;
    if (!ParseLaneBlock(frame.payload, &block, &error)) {
      throw DistError("worker " + std::to_string(r) +
                      " sent a malformed lane block: " + error);
    }
    if (block.first_lane != WorkerLaneBegin(r, workers) ||
        block.lane_count !=
            WorkerLaneBegin(r + 1, workers) - WorkerLaneBegin(r, workers) ||
        block.width != static_cast<std::int64_t>(width)) {
      throw DistError("worker " + std::to_string(r) + " sent lane range [" +
                      std::to_string(block.first_lane) + ", +" +
                      std::to_string(block.lane_count) + ") x " +
                      std::to_string(block.width) +
                      " that does not match its lane ownership");
    }
    std::copy(block.values.begin(), block.values.end(),
              lane_sums + static_cast<std::size_t>(block.first_lane) * width);
  }
}

// The worker body: replicate the model, build rank `rank`'s backend over
// its own row blocks and lanes, then obey coordinator commands until
// kShutdown. Each command decodes its frame, calls the backend and encodes
// the reply. Throws DistError to exit (the forked child's wrapper
// swallows it and EOFs the channel).
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
  // the kBye payload carries only this rank's spans.
  obs::Tracer::Global().Clear();

  // The same draw as RunAls on the coordinator, so all N + 1 model
  // replicas start bit-identical.
  AlsModel model = InitAlsModel(x, options);
  LocalAlsBackend backend(x, options, &model, rank, workers);
  const std::int64_t lane_begin = WorkerLaneBegin(rank, workers);
  const std::int64_t lane_count = WorkerLaneBegin(rank + 1, workers) -
                                  lane_begin;
  // This rank's rows of `mode` as a kRows payload.
  const auto own_rows = [&](std::int64_t mode) {
    const std::int64_t begin = WorkerBlockBegin(x.dim(mode), rank, workers);
    return EncodeRowBlock(
        mode, model.factors[static_cast<std::size_t>(mode)], begin,
        WorkerBlockBegin(x.dim(mode), rank + 1, workers) - begin);
  };
  // The |G| core values a kCore* frame carries; `what` names it in errors.
  const auto core_values = [&](const DistFrame& frame, const char* what) {
    std::vector<double> values;
    std::string error;
    if (!ParseDoubleVector(frame.payload, &values, &error)) {
      throw std::runtime_error(error);
    }
    if (static_cast<std::int64_t>(values.size()) != model.core_list.size()) {
      throw std::runtime_error(std::string(what) + " length mismatch");
    }
    return values;
  };
  // Replies under `opcode` with this rank's lanes, `width` values each.
  const auto send_lanes = [&](DistOpcode opcode, std::uint64_t tag,
                              std::int64_t width,
                              const std::vector<double>& lanes) {
    channel.SendFrame(opcode, tag, EncodeLaneBlock(lane_begin, lane_count,
                                                   width, lanes.data()));
  };

  for (;;) {
    const DistFrame frame = channel.RecvFrame();
    const int iteration = static_cast<int>(frame.tag);
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
          const DistFaultInjection& fault = dist.fault;
          if (fault.kind != DistFaultInjection::Kind::kNone &&
              fault.rank == rank &&
              fault.iteration == iteration &&
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
            const std::vector<std::uint8_t> bytes =
                EncodeDistFrame(DistOpcode::kRows, frame.tag, own_rows(mode));
            channel.SendRaw(bytes.data(), bytes.size() / 2);
            throw DistError("fault injection: frame truncated");
          }
          PTUCKER_TRACE_SPAN("dist.row_solve");
          backend.SolveOwnRows(mode, iteration);
          channel.SendFrame(DistOpcode::kRows, frame.tag, own_rows(mode));
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
          Matrix& factor = model.factors[static_cast<std::size_t>(block.mode)];
          if (block.row_begin != 0 || block.row_count != factor.rows() ||
              block.cols != factor.cols()) {
            throw std::runtime_error("factor broadcast shape mismatch");
          }
          // In-place copy: engines hold views into this storage, so the
          // buffer must never reallocate.
          std::copy(block.values.begin(), block.values.end(), factor.data());
          backend.FactorMerged(block.mode);
          break;
        }
        case DistOpcode::kCoreResidual:
        case DistOpcode::kCoreMatVec: {
          PTUCKER_TRACE_SPAN("dist.reduction");
          const std::vector<double> input = core_values(frame, "core vector");
          const std::int64_t width = static_cast<std::int64_t>(input.size());
          std::vector<double> lanes(
              static_cast<std::size_t>(lane_count * width));
          backend.DesignLaneSums(frame.opcode == DistOpcode::kCoreResidual,
                                 input, iteration, lanes.data());
          send_lanes(DistOpcode::kCorePartials, frame.tag, width, lanes);
          break;
        }
        case DistOpcode::kCoreWrite: {
          const std::vector<double> g = core_values(frame, "core write");
          StoreCoreValues(g, &model.core, &model.core_list);
          backend.CommitCore(g, iteration);
          channel.SendFrame(DistOpcode::kAck, frame.tag, {});
          break;
        }
        case DistOpcode::kErrorSums: {
          PTUCKER_TRACE_SPAN("dist.reduction");
          std::vector<double> lanes(static_cast<std::size_t>(lane_count));
          backend.ErrorLaneSums(iteration, lanes.data());
          send_lanes(DistOpcode::kErrorSums, frame.tag, 1, lanes);
          break;
        }
        case DistOpcode::kShutdown: {
          // When tracing is on, the farewell carries this worker's span
          // ring so the coordinator can merge all ranks into one Chrome
          // trace.
          std::vector<std::uint8_t> bye;
          obs::Tracer& tracer = obs::Tracer::Global();
          if (tracer.enabled()) bye = tracer.SerializeEvents();
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

// The coordinator's backend: every Ω-dependent step is a lock-step PTKD
// exchange with the workers, and the coordinator's model replica is only
// the merged rows and the CG iterate.
class FrameBackend : public AlsBackend {
 public:
  FrameBackend(Cluster* cluster, AlsModel* model)
      : cluster_(cluster), model_(model) {}

  void SolveMode(std::int64_t mode, int iteration) override {
    const std::uint64_t tag = static_cast<std::uint64_t>(iteration);
    const std::int64_t workers = cluster_->workers();
    Broadcast(cluster_, DistOpcode::kSolveMode, tag, EncodeSolveMode(mode));
    Matrix& factor = model_->factors[static_cast<std::size_t>(mode)];
    for (std::int64_t r = 0; r < workers; ++r) {
      const DistFrame frame =
          ExpectFrame(cluster_->Channel(r), r, DistOpcode::kRows, tag);
      DistRowBlock block;
      std::string error;
      if (!ParseRowBlock(frame.payload, &block, &error)) {
        throw DistError("worker " + std::to_string(r) +
                        " sent a malformed row block: " + error);
      }
      // Row ownership: the same block the worker derives.
      const std::int64_t begin = WorkerBlockBegin(factor.rows(), r, workers);
      const std::int64_t end = WorkerBlockBegin(factor.rows(), r + 1, workers);
      if (block.mode != mode || block.cols != factor.cols() ||
          block.row_begin != begin || block.row_count != end - begin) {
        throw DistError("worker " + std::to_string(r) + " sent rows [" +
                        std::to_string(block.row_begin) + ", +" +
                        std::to_string(block.row_count) + ") of mode " +
                        std::to_string(block.mode) +
                        " that do not match its row ownership");
      }
      if (block.row_count > 0) {
        std::copy(block.values.begin(), block.values.end(),
                  factor.Row(block.row_begin));
      }
    }
    Broadcast(cluster_, DistOpcode::kFactor, tag,
              EncodeRowBlock(mode, factor, 0, factor.rows()));
  }

  void DesignLaneSums(bool residual_from_x, const std::vector<double>& input,
                      int iteration, double* lane_sums) override {
    GatherLaneSums(cluster_,
                   residual_from_x ? DistOpcode::kCoreResidual
                                   : DistOpcode::kCoreMatVec,
                   EncodeDoubleVector(input), DistOpcode::kCorePartials,
                   static_cast<std::uint64_t>(iteration), input.size(),
                   lane_sums);
  }

  void CommitCore(const std::vector<double>& g, int iteration) override {
    const std::uint64_t tag = static_cast<std::uint64_t>(iteration);
    Broadcast(cluster_, DistOpcode::kCoreWrite, tag, EncodeDoubleVector(g));
    for (std::int64_t r = 0; r < cluster_->workers(); ++r) {
      ExpectFrame(cluster_->Channel(r), r, DistOpcode::kAck, tag);
    }
  }

  void ErrorLaneSums(int iteration, double* lane_sums) override {
    GatherLaneSums(cluster_, DistOpcode::kErrorSums, {},
                   DistOpcode::kErrorSums,
                   static_cast<std::uint64_t>(iteration), 1, lane_sums);
  }

 private:
  Cluster* cluster_;
  AlsModel* model_;
};

// Clean shutdown: every worker says goodbye, shipping its span ring when
// tracing is on, and the rings merge into the coordinator's tracer
// (pid r+1; the coordinator is pid 0). Telemetry never fails a finished
// solve: a malformed payload is logged and dropped.
void ShutdownCluster(Cluster* cluster) {
  Broadcast(cluster, DistOpcode::kShutdown, 0, {});
  for (std::int64_t r = 0; r < cluster->workers(); ++r) {
    const DistFrame bye =
        ExpectFrame(cluster->Channel(r), r, DistOpcode::kBye, 0);
    if (!bye.payload.empty() && obs::Tracer::Global().enabled()) {
      std::string error;
      if (!obs::Tracer::Global().ImportSerialized(
              bye.payload, static_cast<int>(r) + 1, &error)) {
        PTUCKER_LOG(kWarning) << "worker " << r
                              << ": undecodable trace payload: " << error;
      }
    }
  }
}

}  // namespace

DistributedPTuckerResult DistributedPTuckerDecompose(
    const SparseTensor& x, const PTuckerOptions& options,
    const DistOptions& dist) {
  ValidateDistributed(options, dist);
  const WorkerMain worker_main = [&x, &options, &dist](std::int64_t rank,
                                                       FrameChannel& channel) {
    RunDistWorker(x, options, dist, rank, channel);
  };

  DistributedPTuckerResult out;
  out.stats.workers = dist.workers;
  // Launched by RunAls once the options are validated and the
  // coordinator's replica is drawn; aborted (every worker reaped) on any
  // failure, a non-finite error included.
  std::unique_ptr<Cluster> cluster;
  try {
    out.result = RunAls(x, options, [&](AlsModel* model) {
      cluster =
          LaunchCluster(dist.workers, worker_main, dist.recv_timeout_ms);
      return std::make_unique<FrameBackend>(cluster.get(), model);
    });
    ShutdownCluster(cluster.get());
    out.stats.total_comm_bytes = cluster->TotalCommBytes();
    out.stats.iterations_run =
        static_cast<int>(out.result.iterations.size());
    cluster->Shutdown();
  } catch (...) {
    if (cluster != nullptr) cluster->Abort();
    throw;
  }
  return out;
}

}  // namespace ptucker

#include "stream/ingest_pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/row_update.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "serve/snapshot_v2.h"
#include "tensor/index.h"

namespace ptucker {

namespace {

// Durable write: bytes land in `path + ".tmp"` first, then rename into
// place, so a crash never leaves a torn file at `path`.
void AtomicWriteFile(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("checkpoint: cannot write " + tmp);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) throw std::runtime_error("checkpoint: write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("checkpoint: cannot rename " + tmp + " to " +
                             path);
  }
}

std::string CheckpointFileName(std::int64_t seq) {
  return "ckpt-" + std::to_string(seq) + ".ptks";
}

// Throws std::invalid_argument naming the coordinate unless the `op`
// ("append" or "update") value is finite: one NaN or Inf in Ω would
// poison every row re-solve that reads it.
void CheckFiniteValue(const char* op, const std::vector<std::int64_t>& index,
                      double value) {
  if (std::isfinite(value)) return;
  std::string coordinate;
  for (const std::int64_t i : index) {
    coordinate += (coordinate.empty() ? "(" : ", ") + std::to_string(i);
  }
  throw std::invalid_argument(std::string("ingest: ") + op + " value at " +
                              coordinate + ") is not a finite number");
}

}  // namespace

IngestPipeline::IngestPipeline(SparseTensor tensor, TuckerFactorization model,
                               IngestOptions options)
    : tensor_(std::move(tensor)),
      model_(std::move(model)),
      options_(std::move(options)) {
  const std::int64_t order = tensor_.order();
  if (order < 1) {
    throw std::invalid_argument("ingest: tensor must have at least one mode");
  }
  if (static_cast<std::int64_t>(model_.factors.size()) != order ||
      model_.core.order() != order) {
    throw std::invalid_argument(
        "ingest: model order does not match the tensor");
  }
  for (std::int64_t n = 0; n < order; ++n) {
    const Matrix& factor = model_.factors[static_cast<std::size_t>(n)];
    if (factor.rows() != tensor_.dim(n) ||
        factor.cols() != model_.core.dim(n)) {
      throw std::invalid_argument(
          "ingest: model shape mismatch in mode " + std::to_string(n));
    }
  }
  if (!std::isfinite(options_.lambda) || options_.lambda < 0.0) {
    throw std::invalid_argument(
        "ingest: lambda must be a finite non-negative number, got " +
        std::to_string(options_.lambda));
  }
  if (options_.num_threads < 0) {
    throw std::invalid_argument("ingest: num_threads must be >= 0, got " +
                                std::to_string(options_.num_threads));
  }
  if (options_.flush_every < 1) {
    throw std::invalid_argument("ingest: flush_every must be >= 1");
  }
  if (options_.checkpoint_every < 0) {
    throw std::invalid_argument("ingest: checkpoint_every must be >= 0");
  }
  if (options_.ops_already_applied < 0) {
    throw std::invalid_argument("ingest: ops_already_applied must be >= 0");
  }

  if (!options_.checkpoint_dir.empty()) {
    std::filesystem::create_directories(options_.checkpoint_dir);
  }
  strides_ = ComputeStrides(tensor_.dims());
  ops_applied_ = options_.ops_already_applied;
  next_seq_ = options_.checkpoint_every > 0
                  ? ops_applied_ / options_.checkpoint_every
                  : 0;

  BuildModeIndex();
  // Entry e starts with handle e.
  next_handle_ = tensor_.nnz();
  handle_of_.reserve(static_cast<std::size_t>(next_handle_) * 2);
  for (std::int64_t e = 0; e < next_handle_; ++e) {
    if (!handle_of_.emplace(Linearize(tensor_.index(e), strides_, order), e)
             .second) {
      throw std::invalid_argument("ingest: tensor has duplicate coordinates");
    }
  }
  entry_handle_.resize(static_cast<std::size_t>(next_handle_));
  std::iota(entry_handle_.begin(), entry_handle_.end(), std::int64_t{0});

  core_list_ = std::make_unique<CoreEntryList>(model_.core);
  RebuildEngine();

  ops_at_last_publish_ = ops_applied_;
  if (options_.metrics_registry != nullptr) {
    obs::MetricsRegistry& registry = *options_.metrics_registry;
    metric_events_ = registry.GetCounter(
        "ptucker_stream_events_applied_total",
        "Mutations folded into the live tensor by flushes.");
    metric_checkpoints_ = registry.GetCounter(
        "ptucker_stream_checkpoints_total",
        "Checkpoints written (and published when a service is attached).");
    metric_pending_ = registry.GetGauge(
        "ptucker_stream_pending_events",
        "Mutations buffered but not yet applied (ingest lag in events).");
    metric_staleness_ = registry.GetGauge(
        "ptucker_stream_publish_staleness_ops",
        "Applied mutations not yet covered by a published checkpoint.");
    metric_flush_seconds_ = registry.GetHistogram(
        "ptucker_stream_flush_seconds",
        "Wall time of each flush (apply + touched-row re-solves).",
        obs::ExponentialBuckets(1e-5, 2.0, 20));
  }
}

IngestPipeline::~IngestPipeline() = default;

std::int64_t IngestPipeline::KeyOf(
    const std::vector<std::int64_t>& index) const {
  if (static_cast<std::int64_t>(index.size()) != tensor_.order() ||
      !IndexInBounds(index.data(), tensor_.dims())) {
    throw std::invalid_argument("ingest: coordinate out of bounds");
  }
  return Linearize(index.data(), strides_, tensor_.order());
}

void IngestPipeline::Append(const std::vector<std::int64_t>& index,
                            double value) {
  const std::int64_t key = KeyOf(index);
  CheckFiniteValue("append", index, value);
  if (!handle_of_.emplace(key, next_handle_).second) {
    throw std::invalid_argument(
        "ingest: append to an already-observed coordinate (update instead)");
  }
  Buffer(StreamOp::kAppend, index, value, next_handle_++);
}

void IngestPipeline::Update(const std::vector<std::int64_t>& index,
                            double value) {
  const std::int64_t key = KeyOf(index);
  CheckFiniteValue("update", index, value);
  const auto it = handle_of_.find(key);
  if (it == handle_of_.end()) {
    throw std::invalid_argument(
        "ingest: update of an unobserved coordinate (append instead)");
  }
  Buffer(StreamOp::kUpdate, index, value, it->second);
}

void IngestPipeline::Delete(const std::vector<std::int64_t>& index) {
  const auto it = handle_of_.find(KeyOf(index));
  if (it == handle_of_.end()) {
    throw std::invalid_argument("ingest: delete of an unobserved coordinate");
  }
  const std::int64_t handle = it->second;
  handle_of_.erase(it);
  Buffer(StreamOp::kDelete, index, 0.0, handle);
}

void IngestPipeline::Buffer(StreamOp op,
                            const std::vector<std::int64_t>& index,
                            double value, std::int64_t handle) {
  PendingEvent buffered;
  buffered.event.op = op;
  buffered.event.index = index;
  buffered.event.value = value;
  buffered.handle = handle;
  pending_.push_back(std::move(buffered));
  if (metric_pending_ != nullptr) metric_pending_->Set(pending());
  if (pending() >= options_.flush_every) Flush();
}

void IngestPipeline::Apply(const StreamEvent& event) {
  switch (event.op) {
    case StreamOp::kAppend:
      Append(event.index, event.value);
      return;
    case StreamOp::kUpdate:
      Update(event.index, event.value);
      return;
    case StreamOp::kDelete:
      Delete(event.index);
      return;
  }
  throw std::invalid_argument("ingest: unknown stream op");
}

void IngestPipeline::Flush() {
  if (pending_.empty()) return;
  PTUCKER_TRACE_SPAN("stream.flush");
  Stopwatch flush_clock;
  const std::int64_t order = tensor_.order();

  // Apply the buffered mutations to Ω in arrival order. Deletes only
  // flag entries; the compaction runs once at the end so earlier ids
  // stay valid throughout the batch, and an entry id is the rank of its
  // handle in entry_handle_ until then.
  bool structural = false;
  std::vector<std::vector<std::int64_t>> touched(
      static_cast<std::size_t>(order));
  {
    PTUCKER_TRACE_SPAN("stream.apply");
    std::vector<std::int64_t> delete_ids;
    for (const PendingEvent& buffered : pending_) {
      const StreamEvent& event = buffered.event;
      switch (event.op) {
        case StreamOp::kAppend:
          tensor_.AddEntry(event.index, event.value);
          entry_handle_.push_back(buffered.handle);
          structural = true;
          break;
        case StreamOp::kUpdate:
          tensor_.set_value(EntryOf(buffered.handle), event.value);
          break;
        case StreamOp::kDelete:
          delete_ids.push_back(EntryOf(buffered.handle));
          structural = true;
          break;
      }
      for (std::int64_t n = 0; n < order; ++n) {
        touched[static_cast<std::size_t>(n)].push_back(
            event.index[static_cast<std::size_t>(n)]);
      }
    }
    if (!delete_ids.empty()) {
      std::vector<char> remove(static_cast<std::size_t>(tensor_.nnz()), 0);
      for (const std::int64_t id : delete_ids) {
        remove[static_cast<std::size_t>(id)] = 1;
      }
      tensor_.RemoveEntries(remove);
      std::size_t kept = 0;
      for (std::size_t e = 0; e < remove.size(); ++e) {
        if (remove[e] == 0) entry_handle_[kept++] = entry_handle_[e];
      }
      entry_handle_.resize(kept);
    }
    if (!tensor_.has_mode_index()) BuildModeIndex();
    for (auto& rows : touched) {
      std::sort(rows.begin(), rows.end());
      rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    }
  }

  if (metric_events_ != nullptr) {
    metric_events_->Increment(static_cast<std::uint64_t>(pending()));
  }
  ops_applied_ += pending();
  pending_.clear();
  if (metric_pending_ != nullptr) metric_pending_->Set(0);

  // Engines with Ω-keyed derived state (the Pres table, the contraction
  // plan) see a different entry set now; value-only batches keep the
  // engine as-is.
  if (structural) {
    PTUCKER_TRACE_SPAN("stream.engine_rebuild");
    RebuildEngine();
  }
  SolveTouchedRows(touched);

  if (options_.checkpoint_every > 0) {
    const std::int64_t target = ops_applied_ / options_.checkpoint_every;
    while (next_seq_ < target) {
      ++next_seq_;
      WriteCheckpoint(next_seq_);
    }
  }

  if (metric_flush_seconds_ != nullptr) {
    metric_flush_seconds_->Observe(flush_clock.ElapsedSeconds());
  }
  if (metric_staleness_ != nullptr) {
    metric_staleness_->Set(ops_applied_ - ops_at_last_publish_);
  }
}

std::int64_t IngestPipeline::Checkpoint() {
  Flush();
  ++next_seq_;
  WriteCheckpoint(next_seq_);
  return next_seq_;
}

void IngestPipeline::WriteCheckpoint(std::int64_t seq) {
  PTUCKER_TRACE_SPAN("stream.checkpoint");
  std::string snapshot_path;
  if (!options_.checkpoint_dir.empty()) {
    const std::string file = CheckpointFileName(seq);
    snapshot_path = options_.checkpoint_dir + "/" + file;
    // Snapshot first, MANIFEST last: the MANIFEST only ever names a
    // fully-written snapshot, whichever instant a crash hits.
    AtomicWriteFile(snapshot_path, SerializeSnapshotV2(model_, nullptr));
    std::ostringstream manifest;
    manifest << "ptucker-checkpoint v1\n"
             << "seq " << seq << "\n"
             << "file " << file << "\n"
             << "ops " << ops_applied_ << "\n";
    AtomicWriteFile(options_.checkpoint_dir + "/MANIFEST", manifest.str());
  }

  // The crash window the fault hook targets: the checkpoint is durable
  // but not yet serving.
  if (options_.fault_hook) options_.fault_hook();

  if (options_.service != nullptr) {
    if (!snapshot_path.empty()) {
      options_.service->ReloadSnapshot(ModelSnapshot::CreateFromFile(
          snapshot_path, kDefaultTileWidth, options_.tracker));
    } else {
      TuckerFactorization copy = model_;
      options_.service->ReloadSnapshot(
          ModelSnapshot::Create(std::move(copy), options_.tracker));
    }
  }
  ++checkpoints_written_;
  ops_at_last_publish_ = ops_applied_;
  if (metric_checkpoints_ != nullptr) metric_checkpoints_->Increment();
  if (metric_staleness_ != nullptr) metric_staleness_->Set(0);
}

std::int64_t IngestPipeline::EntryOf(std::int64_t handle) const {
  return std::lower_bound(entry_handle_.begin(), entry_handle_.end(),
                          handle) -
         entry_handle_.begin();
}

void IngestPipeline::BuildModeIndex() {
  OmpEnvironmentGuard omp_guard(options_.num_threads, Scheduling::kDynamic);
  tensor_.BuildModeIndex();
}

void IngestPipeline::RebuildEngine() {
  engine_.reset();
  engine_ = MakeDeltaEngine(options_.delta_engine, tensor_, *core_list_,
                            model_.factors, options_.tracker);
}

void IngestPipeline::SolveTouchedRows(
    const std::vector<std::vector<std::int64_t>>& rows) {
  PTUCKER_TRACE_SPAN("stream.row_solve");
  OmpEnvironmentGuard omp_guard(options_.num_threads, Scheduling::kDynamic);
  RowUpdateOptions row_options;
  row_options.lambda = options_.lambda;
  for (std::int64_t mode = 0; mode < tensor_.order(); ++mode) {
    const std::vector<std::int64_t>& mode_rows =
        rows[static_cast<std::size_t>(mode)];
    if (mode_rows.empty()) continue;
    Matrix old_factor;
    if (engine_->WantsFactorSnapshot()) {
      old_factor = model_.factors[static_cast<std::size_t>(mode)];
    }
    UpdateFactorRows(tensor_, mode, mode_rows.data(),
                     static_cast<std::int64_t>(mode_rows.size()), *engine_,
                     &model_.factors[static_cast<std::size_t>(mode)],
                     row_options);
    engine_->OnFactorUpdated(mode, old_factor);
  }
}

bool LatestCheckpoint(const std::string& dir, CheckpointInfo* info) {
  std::ifstream in(dir + "/MANIFEST");
  if (!in) return false;
  std::string header;
  if (!std::getline(in, header) || header != "ptucker-checkpoint v1") {
    throw std::runtime_error("checkpoint: bad MANIFEST header in " + dir);
  }
  CheckpointInfo parsed;
  std::string file;
  bool have_seq = false, have_file = false, have_ops = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "seq") {
      have_seq = static_cast<bool>(fields >> parsed.seq);
    } else if (tag == "file") {
      have_file = static_cast<bool>(fields >> file);
    } else if (tag == "ops") {
      have_ops = static_cast<bool>(fields >> parsed.ops_applied);
    } else {
      throw std::runtime_error("checkpoint: unknown MANIFEST field '" + tag +
                               "' in " + dir);
    }
  }
  if (!have_seq || !have_file || !have_ops) {
    throw std::runtime_error("checkpoint: incomplete MANIFEST in " + dir);
  }
  parsed.path = dir + "/" + file;
  if (info != nullptr) *info = std::move(parsed);
  return true;
}

SparseTensor ReplayOmega(const SparseTensor& initial,
                         const std::vector<StreamEvent>& events,
                         std::int64_t count) {
  if (count < 0 || count > static_cast<std::int64_t>(events.size())) {
    throw std::out_of_range("replay: count out of range");
  }
  SparseTensor tensor = initial;
  const std::int64_t order = tensor.order();
  const auto strides = ComputeStrides(tensor.dims());

  std::unordered_map<std::int64_t, std::int64_t> key_to_entry;
  key_to_entry.reserve(static_cast<std::size_t>(tensor.nnz()) * 2);
  for (std::int64_t e = 0; e < tensor.nnz(); ++e) {
    if (!key_to_entry.emplace(Linearize(tensor.index(e), strides, order), e)
             .second) {
      throw std::invalid_argument("replay: tensor has duplicate coordinates");
    }
  }

  std::vector<std::int64_t> delete_ids;
  for (std::int64_t n = 0; n < count; ++n) {
    const StreamEvent& event = events[static_cast<std::size_t>(n)];
    if (static_cast<std::int64_t>(event.index.size()) != order ||
        !IndexInBounds(event.index.data(), tensor.dims())) {
      throw std::invalid_argument("replay: coordinate out of bounds");
    }
    const std::int64_t key = Linearize(event.index.data(), strides, order);
    const auto it = key_to_entry.find(key);
    switch (event.op) {
      case StreamOp::kAppend: {
        if (it != key_to_entry.end()) {
          throw std::invalid_argument(
              "replay: append to an already-observed coordinate");
        }
        const std::int64_t id = tensor.nnz();
        tensor.AddEntry(event.index, event.value);
        key_to_entry.emplace(key, id);
        break;
      }
      case StreamOp::kUpdate:
        if (it == key_to_entry.end()) {
          throw std::invalid_argument(
              "replay: update of an unobserved coordinate");
        }
        tensor.set_value(it->second, event.value);
        break;
      case StreamOp::kDelete:
        if (it == key_to_entry.end()) {
          throw std::invalid_argument(
              "replay: delete of an unobserved coordinate");
        }
        delete_ids.push_back(it->second);
        key_to_entry.erase(it);
        break;
    }
  }
  if (!delete_ids.empty()) {
    std::vector<char> remove(static_cast<std::size_t>(tensor.nnz()), 0);
    for (const std::int64_t id : delete_ids) {
      remove[static_cast<std::size_t>(id)] = 1;
    }
    tensor.RemoveEntries(remove);
  }
  tensor.BuildModeIndex();
  return tensor;
}

}  // namespace ptucker

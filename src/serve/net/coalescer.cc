#include "serve/net/coalescer.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

#include "obs/trace.h"

namespace ptucker {

BatchCoalescer::BatchCoalescer(PredictionService* service,
                               const Options& options,
                               const ServeNetMetrics* metrics)
    : service_(service),
      options_(options),
      metrics_(metrics != nullptr ? *metrics : ServeNetMetrics::Global()) {
  if (service_ == nullptr) {
    throw std::invalid_argument("coalescer: service is required");
  }
  if (options_.max_batch < 1 || options_.max_batch > 4096) {
    throw std::invalid_argument("coalescer: max_batch must be in [1, 4096]");
  }
  if (options_.batch_window_us < 0 || options_.batch_window_us > 1000000) {
    throw std::invalid_argument(
        "coalescer: batch_window_us must be in [0, 1000000]");
  }
  if (options_.queue_capacity < options_.max_batch) {
    throw std::invalid_argument(
        "coalescer: queue_capacity must be >= max_batch");
  }
}

BatchCoalescer::~BatchCoalescer() { Stop(); }

void BatchCoalescer::Start(int workers) {
  if (workers < 1) {
    throw std::invalid_argument("coalescer: workers must be >= 1");
  }
  for (int w = 0; w < workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void BatchCoalescer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

bool BatchCoalescer::TryPush(NetRequest&& request) {
  bool pushed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (static_cast<std::int64_t>(queue_.size()) < options_.queue_capacity) {
      queue_.push_back(std::move(request));
      pushed = true;
      if (metrics_.queue_depth != nullptr) {
        metrics_.queue_depth->Set(static_cast<std::int64_t>(queue_.size()));
      }
    }
  }
  if (pushed) {
    cv_.notify_one();
  } else {
    had_backpressure_.store(true, std::memory_order_relaxed);
  }
  return pushed;
}

void BatchCoalescer::SetSpaceCallback(std::function<void()> callback) {
  space_callback_ = std::move(callback);
}

std::size_t BatchCoalescer::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void BatchCoalescer::WorkerLoop() {
  std::vector<NetRequest> batch;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and fully drained
      // The coalescing window: a batch launches when it is full OR when
      // batch_window_us has passed since its first entry — whichever
      // comes first. A zero window takes whatever is queued right now.
      if (options_.batch_window_us > 0 &&
          static_cast<std::int64_t>(queue_.size()) < options_.max_batch) {
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::microseconds(options_.batch_window_us);
        cv_.wait_until(lock, deadline, [this] {
          return stop_ ||
                 static_cast<std::int64_t>(queue_.size()) >=
                     options_.max_batch;
        });
      }
      const std::size_t take = std::min<std::size_t>(
          queue_.size(), static_cast<std::size_t>(options_.max_batch));
      batch.clear();
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      if (metrics_.queue_depth != nullptr) {
        metrics_.queue_depth->Set(static_cast<std::int64_t>(queue_.size()));
      }
    }
    // Wake stalled readers outside the lock: the queue just lost
    // max_batch entries, so refused producers can resume.
    if (had_backpressure_.exchange(false, std::memory_order_relaxed) &&
        space_callback_) {
      space_callback_();
    }
    ProcessBatch(&batch);
  }
}

void BatchCoalescer::ProcessBatch(std::vector<NetRequest>* batch) {
  if (batch->empty()) return;
  PTUCKER_TRACE_SPAN("serve.batch");
  if (metrics_.batch_size != nullptr) {
    metrics_.batch_size->Observe(static_cast<double>(batch->size()));
  }
  // Enqueue-to-reply latency, recorded right after each reply is posted
  // (the client-visible completion point on the server side).
  const auto observe_latency = [this](const NetRequest& request) {
    obs::Histogram* histogram = request.opcode == Opcode::kTopK
                                    ? metrics_.topk_latency
                                    : metrics_.predict_latency;
    if (histogram != nullptr && request.enqueue_us > 0) {
      histogram->Observe(
          static_cast<double>(obs::Tracer::NowMicros() - request.enqueue_us) *
          1e-6);
    }
  };

  // One snapshot for the whole batch: a PredictionService pinned to the
  // atomically-grabbed snapshot guarantees validation and execution see
  // the same model even while ReloadSnapshot flips the live service,
  // and that the entire batch is served by exactly one model.
  const std::shared_ptr<const ModelSnapshot> snap = service_->snapshot();
  const PredictionService pinned(snap);
  const std::int64_t order = snap->order();

  // Model-level validation, per request: a bad coordinate answers THAT
  // request with kBadRequest instead of poisoning its batchmates.
  const auto validate = [&](const NetRequest& request,
                            std::string* error) -> bool {
    if (static_cast<std::int64_t>(request.coords.size()) != order) {
      *error = "query order " + std::to_string(request.coords.size()) +
               " does not match the served model's order " +
               std::to_string(order);
      return false;
    }
    const std::int64_t skip =
        request.opcode == Opcode::kTopK ? request.mode : -1;
    if (skip >= order) {
      *error = "topk mode " + std::to_string(skip) +
               " out of range for the served model's order " +
               std::to_string(order);
      return false;
    }
    for (std::int64_t n = 0; n < order; ++n) {
      if (n == skip) continue;
      const std::int64_t c = request.coords[static_cast<std::size_t>(n)];
      if (c < 0 || c >= snap->dim(n)) {
        *error = "coordinate " + std::to_string(c) +
                 " out of bounds for mode " + std::to_string(n) + " (dim " +
                 std::to_string(snap->dim(n)) + ")";
        return false;
      }
    }
    return true;
  };

  std::vector<NetRequest*> predicts;
  std::vector<NetRequest*> topks;
  predicts.reserve(batch->size());
  for (NetRequest& request : *batch) {
    std::string error;
    if (!validate(request, &error)) {
      metrics_.CountError();
      request.sink->PostReply(
          request.connection_id,
          EncodeErrorReply(request.opcode, request.request_id,
                           WireStatus::kBadRequest, error));
      observe_latency(request);
      continue;
    }
    (request.opcode == Opcode::kTopK ? topks : predicts).push_back(&request);
  }

  // The coalescing payoff: every predict in the batch — regardless of
  // which client or loop thread it came from — runs through ONE
  // PredictBatch call, so the OpenMP entry parallelism engages. Replies
  // are routed back by request id; the result for each query depends
  // only on that query and the snapshot (PredictBatch is bit-identical
  // to the per-entry path), so grouping, ordering, and window size can
  // never change a reply's bytes.
  if (!predicts.empty()) {
    std::vector<const std::int64_t*> indices(predicts.size());
    for (std::size_t i = 0; i < predicts.size(); ++i) {
      indices[i] = predicts[i]->coords.data();
    }
    std::vector<double> out(predicts.size());
    pinned.PredictBatch(static_cast<std::int64_t>(predicts.size()),
                        indices.data(), out.data());
    for (std::size_t i = 0; i < predicts.size(); ++i) {
      predicts[i]->sink->PostReply(
          predicts[i]->connection_id,
          EncodePredictReply(predicts[i]->request_id, out[i]));
      observe_latency(*predicts[i]);
    }
  }

  // Top-K requests execute one by one — each call is already
  // thread-parallel over its candidate scan.
  for (NetRequest* request : topks) {
    try {
      const std::vector<ScoredIndex> results =
          pinned.TopK(request->mode, request->coords, request->k);
      request->sink->PostReply(request->connection_id,
                               EncodeTopKReply(request->request_id, results));
      observe_latency(*request);
    } catch (const std::exception& e) {
      metrics_.CountError();
      request->sink->PostReply(
          request->connection_id,
          EncodeErrorReply(Opcode::kTopK, request->request_id,
                           WireStatus::kInternal, e.what()));
      observe_latency(*request);
    }
  }
}

}  // namespace ptucker

#include "serve/net/server.h"

#include <unistd.h>

#include <stdexcept>
#include <string>

namespace ptucker {

namespace {

void CheckRange(const char* field, std::int64_t value, std::int64_t lo,
                std::int64_t hi) {
  if (value < lo || value > hi) {
    throw std::invalid_argument("serve-net: " + std::string(field) +
                                " must be in [" + std::to_string(lo) + ", " +
                                std::to_string(hi) + "], got " +
                                std::to_string(value));
  }
}

}  // namespace

NetServer::NetServer(std::shared_ptr<PredictionService> service,
                     const NetServerOptions& options)
    : service_(std::move(service)),
      options_(options),
      metrics_(options.metrics_registry != nullptr ? options.metrics_registry
                                                   : &obs::GlobalMetrics()) {
  if (service_ == nullptr) {
    throw std::invalid_argument("serve-net: service must be non-null");
  }
  CheckRange("port", options_.port, 0, 65535);
  CheckRange("listen_threads", options_.listen_threads, 1, 64);
  CheckRange("worker_threads", options_.worker_threads, 1, 64);
  CheckRange("max_batch", options_.max_batch, 1, 4096);
  CheckRange("batch_window_us", options_.batch_window_us, 0, 1000000);
  if (options_.queue_capacity < options_.max_batch) {
    throw std::invalid_argument(
        "serve-net: queue_capacity must be >= max_batch");
  }
  CheckRange("overload_timeout_ms", options_.overload_timeout_ms, -1,
             3600000);
}

NetServer::~NetServer() { Stop(); }

void NetServer::Start() {
  if (running_) throw std::runtime_error("serve-net: already started");

  // Bind every SO_REUSEPORT shard up front: the first listener resolves
  // an ephemeral port request, the rest join it by number.
  port_ = options_.port;
  std::vector<int> listeners;
  listeners.reserve(static_cast<std::size_t>(options_.listen_threads));
  try {
    for (int t = 0; t < options_.listen_threads; ++t) {
      listeners.push_back(CreateListenSocket(&port_));
    }
  } catch (...) {
    for (const int fd : listeners) ::close(fd);
    throw;
  }

  BatchCoalescer::Options coalescer_options;
  coalescer_options.max_batch = options_.max_batch;
  coalescer_options.batch_window_us = options_.batch_window_us;
  coalescer_options.queue_capacity = options_.queue_capacity;
  coalescer_ = std::make_unique<BatchCoalescer>(service_.get(),
                                                coalescer_options, &metrics_);

  EventLoop::Options loop_options;
  loop_options.overload_timeout_ms = options_.overload_timeout_ms;
  loops_.clear();
  for (int t = 0; t < options_.listen_threads; ++t) {
    // id_base keeps connection ids globally unique: the loop index lives
    // in the top bits, each loop counts monotonically below it.
    loops_.push_back(std::make_unique<EventLoop>(
        listeners[static_cast<std::size_t>(t)], coalescer_.get(),
        static_cast<std::uint64_t>(t + 1) << 48, loop_options, &metrics_));
  }
  coalescer_->SetSpaceCallback([this] {
    for (const auto& loop : loops_) loop->NotifyQueueSpace();
  });
  coalescer_->Start(options_.worker_threads);
  for (const auto& loop : loops_) {
    loop_threads_.emplace_back([raw = loop.get()] { raw->Run(); });
  }
  running_ = true;
}

void NetServer::Stop() {
  if (!running_) return;
  // Order matters: loops first (no new requests, connections closed),
  // then the workers drain what is already queued. A reply posted to a
  // finished loop is parked and freed with it — never delivered to a
  // recycled descriptor.
  for (const auto& loop : loops_) loop->Stop();
  for (std::thread& thread : loop_threads_) {
    if (thread.joinable()) thread.join();
  }
  loop_threads_.clear();
  coalescer_->Stop();
  loops_.clear();
  coalescer_.reset();
  running_ = false;
}

}  // namespace ptucker

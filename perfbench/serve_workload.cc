// serve-tcp: a NetServer (1 listen thread, 1 worker, max_batch 64, 100 µs
// window) over a v2 snapshot, driven by a closed loop of 32 raw TCP
// connections from one poll()-based generator thread speaking the PTKN
// codec. Every reply is checked bit for bit against the in-process
// PredictionService::Predict value for its query.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "core/ptucker.h"
#include "obs/metrics.h"
#include "serve/net/client.h"
#include "serve/net/server.h"
#include "serve/net/wire.h"
#include "serve/service.h"
#include "serve/snapshot_v2.h"
#include "tensor/io.h"
#include "util/random.h"

namespace perfbench {

using namespace ptucker;

namespace {

constexpr int kConnections = 32;
constexpr std::int64_t kQueries = 4096;
// time_to_target_s on this workload: wall time per block of this many
// replies (median over the run's blocks).
constexpr std::int64_t kRepliesPerBlock = 20000;
// Rates and latency percentiles are taken per window of this length and
// reported as medians over the windows, so a slow phase of the host moves
// only the windows it covers.
constexpr std::int64_t kWindowNs = 1'000'000'000;
// Run-wide latency histogram: 100 ns bins up to 20 ms, exact above.
constexpr double kBinSeconds = 100e-9;
constexpr std::size_t kBins = 200000;

NetServerOptions ServerOptions(obs::MetricsRegistry* registry) {
  NetServerOptions options;
  options.listen_threads = 1;
  options.worker_threads = 1;
  options.max_batch = 64;
  options.batch_window_us = 100;
  options.metrics_registry = registry;
  return options;
}

// One raw loopback connection (a blocking socket multiplexed by poll())
// with its receive buffer and the request it has in flight.
struct Connection {
  int fd = -1;
  std::vector<std::uint8_t> rx;
  std::int64_t query = -1;  // in-flight query index, −1 when idle
  std::int64_t sent_ns = 0;
};

int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket: " + std::string(strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string why = strerror(errno);
    ::close(fd);
    throw std::runtime_error("connect: " + why);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void SendAll(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EINTR || errno == EAGAIN)) {
      continue;
    } else {
      throw std::runtime_error("send: " + std::string(strerror(errno)));
    }
  }
}

// The closed-loop generator: every connection keeps one PREDICT in flight
// and sends the next query as soon as its reply arrives.
class LoadGenerator {
 public:
  explicit LoadGenerator(const std::vector<std::vector<std::uint8_t>>& requests)
      : requests_(requests) {}
  ~LoadGenerator() { CloseAll(); }
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  void ConnectAll(int port) {
    for (int c = 0; c < kConnections; ++c) {
      Connection conn;
      conn.fd = Connect(port);
      conns_.push_back(std::move(conn));
    }
  }

  void CloseAll() {
    for (Connection& conn : conns_) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
    conns_.clear();
  }

  // Sends one request per connection and waits until all are answered
  // (the last step of set-up).
  void RoundTripAll() {
    for (std::size_t c = 0; c < conns_.size(); ++c) Send(&conns_[c]);
    Pump(NowNs() + 10'000'000'000, /*keep_sending=*/false);
  }

  // Closed loop for `seconds`, then a drain of the requests in flight.
  // Every reply is compared with `expected` (indexed by query).
  void Run(double seconds, const std::vector<double>* expected) {
    expected_ = expected;
    record_ = true;
    hist_.assign(kBins, 0);
    window_.reserve(200000);
    begin_ns_ = NowNs();
    window_start_ns_ = begin_ns_;
    const std::int64_t stop = begin_ns_ + static_cast<std::int64_t>(seconds * 1e9);
    block_start_ns_ = begin_ns_;
    for (Connection& conn : conns_) Send(&conn);
    Pump(stop, /*keep_sending=*/true);
    elapsed_ = SecondsSince(begin_ns_);
    Pump(NowNs() + 2'000'000'000, /*keep_sending=*/false);
    for (const Connection& conn : conns_) {
      if (conn.query >= 0) ++unanswered_;
    }
    record_ = false;
  }

  // Run-wide nearest-rank percentile of the send-to-reply latency.
  double Percentile(double p) const {
    const auto rank = static_cast<std::int64_t>(
        std::ceil(p / 100.0 * static_cast<double>(replies)));
    std::int64_t seen = 0;
    for (std::size_t b = 0; b < kBins; ++b) {
      seen += hist_[b];
      if (seen >= rank) return static_cast<double>(b + 1) * kBinSeconds;
    }
    std::vector<double> over = overflow_;
    std::sort(over.begin(), over.end());
    const std::int64_t at = std::max<std::int64_t>(0, rank - seen - 1);
    return over.empty() ? 0.0 : over[std::min<std::size_t>(
                                     static_cast<std::size_t>(at), over.size() - 1)];
  }

  std::int64_t replies = 0;
  std::vector<double> blocks;       // seconds per kRepliesPerBlock replies
  std::vector<double> window_rate;  // replies per second, per window
  std::vector<double> window_p50;   // seconds, per window
  std::vector<double> window_p90;   // seconds, per window
  std::int64_t sent = 0;
  std::int64_t mismatched = 0;
  std::int64_t errors = 0;
  double poll_seconds = 0.0;       // generator time blocked in poll()
  double elapsed() const { return elapsed_; }
  std::int64_t unanswered() const { return unanswered_; }

 private:
  void Send(Connection* conn) {
    conn->query = next_query_;
    next_query_ = (next_query_ + 1) % kQueries;
    conn->sent_ns = NowNs();
    SendAll(conn->fd, requests_[static_cast<std::size_t>(conn->query)]);
    if (record_) ++sent;
  }

  // Consumes every complete reply frame buffered on `conn`.
  void OnReadable(Connection* conn, bool keep_sending, std::int64_t stop) {
    std::uint8_t buf[4096];
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) return;
      throw std::runtime_error("server closed a connection");
    }
    conn->rx.insert(conn->rx.end(), buf, buf + n);
    std::size_t offset = 0;
    while (true) {
      WireFrame frame;
      std::size_t consumed = 0;
      std::string error;
      const DecodeResult r = DecodeFrame(conn->rx.data() + offset,
                                         conn->rx.size() - offset, &frame,
                                         &consumed, &error);
      if (r == DecodeResult::kNeedMore) break;
      if (r == DecodeResult::kError) throw std::runtime_error("reply: " + error);
      offset += consumed;
      const std::int64_t now = NowNs();
      double value = 0.0;
      if (conn->query < 0) throw std::runtime_error("unsolicited reply");
      if (!ParsePredictReply(frame, &value, &error)) {
        if (record_) ++errors;
      } else if (expected_ != nullptr &&
                 std::memcmp(&value,
                             &(*expected_)[static_cast<std::size_t>(conn->query)],
                             sizeof(double)) != 0) {
        if (record_) ++mismatched;
      }
      if (record_) Record(now, static_cast<double>(now - conn->sent_ns) * 1e-9);
      conn->query = -1;
      if (keep_sending && now < stop) Send(conn);
    }
    conn->rx.erase(conn->rx.begin(),
                   conn->rx.begin() + static_cast<std::ptrdiff_t>(offset));
  }

  void Record(std::int64_t now, double latency) {
    ++replies;
    const auto bin = static_cast<std::size_t>(latency / kBinSeconds);
    if (bin < kBins) {
      ++hist_[bin];
    } else {
      overflow_.push_back(latency);
    }
    if (replies % kRepliesPerBlock == 0) {
      blocks.push_back(static_cast<double>(now - block_start_ns_) * 1e-9);
      block_start_ns_ = now;
    }
    window_.push_back(latency);
    if (now - window_start_ns_ >= kWindowNs) {
      window_rate.push_back(static_cast<double>(window_.size()) /
                            (static_cast<double>(now - window_start_ns_) * 1e-9));
      window_p50.push_back(perfbench::Percentile(window_, 50));
      window_p90.push_back(perfbench::Percentile(window_, 90));
      window_.clear();
      window_start_ns_ = now;
    }
  }

  // Polls until `stop` (while sending) or until nothing is in flight.
  void Pump(std::int64_t stop, bool keep_sending) {
    std::vector<pollfd> fds(conns_.size());
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      fds[c].fd = conns_[c].fd;
      fds[c].events = POLLIN;
    }
    while (true) {
      bool in_flight = false;
      for (const Connection& conn : conns_) in_flight |= conn.query >= 0;
      const std::int64_t now = NowNs();
      if (!in_flight || now >= stop) return;
      const int timeout_ms =
          static_cast<int>(std::min<std::int64_t>((stop - now) / 1000000 + 1, 100));
      const std::int64_t poll_start = NowNs();
      const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
      if (record_) poll_seconds += SecondsSince(poll_start);
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("poll: " + std::string(strerror(errno)));
      }
      for (std::size_t c = 0; c < fds.size(); ++c) {
        if (fds[c].revents & (POLLIN | POLLERR | POLLHUP)) {
          OnReadable(&conns_[c], keep_sending, stop);
        }
      }
    }
  }

  const std::vector<std::vector<std::uint8_t>>& requests_;
  const std::vector<double>* expected_ = nullptr;
  std::vector<Connection> conns_;
  std::int64_t next_query_ = 0;
  bool record_ = false;
  std::int64_t begin_ns_ = 0;
  std::int64_t block_start_ns_ = 0;
  std::int64_t window_start_ns_ = 0;
  std::vector<double> window_;
  std::vector<std::uint32_t> hist_;
  std::vector<double> overflow_;
  double elapsed_ = 0.0;
  std::int64_t unanswered_ = 0;
};

// Value of the first exposition line `name value` (or `name{...} value`
// when `labels` is given); 0 when absent.
double Scrape(const std::string& text, const std::string& name,
              const std::string& labels = "") {
  std::istringstream in(text);
  std::string line;
  const std::string key = labels.empty() ? name + " " : name + "{" + labels + "} ";
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      return std::stod(line.substr(key.size()));
    }
  }
  return 0.0;
}

// p50 of a Prometheus histogram, interpolated linearly inside the bucket
// that holds the median.
double HistogramP50(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  const std::string prefix = name + "_bucket{le=\"";
  std::vector<std::pair<double, double>> buckets;  // (upper bound, cumulative)
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    const std::size_t close = line.find('"', prefix.size());
    const std::string le = line.substr(prefix.size(), close - prefix.size());
    const double bound = le == "+Inf" ? INFINITY : std::stod(le);
    buckets.emplace_back(bound, std::stod(line.substr(line.find(' ', close) + 1)));
  }
  if (buckets.empty() || buckets.back().second <= 0) return 0.0;
  const double half = buckets.back().second / 2.0;
  double lower = 0.0, below = 0.0;
  for (const auto& [bound, cumulative] : buckets) {
    if (cumulative >= half) {
      if (!std::isfinite(bound)) return lower;
      return lower + (bound - lower) * (half - below) / (cumulative - below);
    }
    lower = bound;
    below = cumulative;
  }
  return lower;
}

}  // namespace

void GenServe(const std::string& dir, std::uint64_t seed) {
  // bench_serving_net's model shape: heavy enough that per-request compute
  // is visible next to the wire.
  const std::vector<std::int64_t> dims = {20000, 2000, 24};
  const std::vector<std::int64_t> ranks = {24, 24, 12};
  Rng rng(seed);
  TuckerFactorization model;
  for (std::size_t n = 0; n < dims.size(); ++n) {
    Matrix factor(dims[n], ranks[n]);
    factor.FillUniform(rng);
    model.factors.push_back(std::move(factor));
  }
  model.core = DenseTensor(ranks);
  model.core.FillUniform(rng);
  SaveSnapshotV2(dir + "/model.ptks", model, /*with_centroids=*/false);

  // The query set: uniform coordinates, written with the model's value.
  SparseTensor queries(dims);
  std::vector<std::int64_t> index(dims.size());
  for (std::int64_t q = 0; q < kQueries; ++q) {
    for (std::size_t n = 0; n < dims.size(); ++n) {
      index[n] = static_cast<std::int64_t>(
          rng.UniformInt(static_cast<std::uint64_t>(dims[n])));
    }
    queries.AddEntry(index, model.Predict(index));
  }
  WriteTns(dir + "/queries.tns", queries);
  WriteMeta(dir + "/meta.txt", {{"dims", FormatDims(dims)}});
}

void RunServe(const RunContext& ctx, Report* report) {
  const Meta meta = ReadMeta(ctx.dir + "/meta.txt");
  const std::vector<std::int64_t> dims = ParseDims(meta.at("dims"));
  const SparseTensor queries = ReadTns(ctx.dir + "/queries.tns", dims);
  if (queries.nnz() != kQueries) throw std::runtime_error("bad query file");
  std::vector<std::vector<std::uint8_t>> requests;
  for (std::int64_t q = 0; q < kQueries; ++q) {
    const std::vector<std::int64_t> coords(queries.index(q),
                                           queries.index(q) + queries.order());
    requests.push_back(EncodePredictRequest(static_cast<std::uint64_t>(q), coords));
  }
  const std::string model_path = ctx.dir + "/model.ptks";

  // One set-up: open + CRC-verify the snapshot, start the server, connect
  // all clients and get one answer on each. Repeated before the load and
  // again after it, so the samples span more than one phase of the host.
  std::vector<double> setup_seconds;
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::shared_ptr<PredictionService> service;
  std::unique_ptr<NetServer> server;
  std::unique_ptr<LoadGenerator> load;
  const auto set_up = [&] {
    load.reset();
    if (server) server->Stop();
    server.reset();
    registry = std::make_unique<obs::MetricsRegistry>();
    const std::int64_t start = NowNs();
    {
      ScopedSpan span(ctx.spans, "snapshot_v2.open");
      service = std::make_shared<PredictionService>(ModelSnapshot::CreateFromFile(
          model_path, kDefaultTileWidth, nullptr, /*verify_payload=*/true));
    }
    {
      ScopedSpan span(ctx.spans, "net.server_start");
      server = std::make_unique<NetServer>(service, ServerOptions(registry.get()));
      server->Start();
    }
    {
      ScopedSpan span(ctx.spans, "loadgen.connect");
      load = std::make_unique<LoadGenerator>(requests);
      load->ConnectAll(server->port());
      load->RoundTripAll();
    }
    setup_seconds.push_back(SecondsSince(start));
  };
  const auto set_up_repeatedly = [&] {
    const std::int64_t begin = NowNs();
    const std::size_t before = setup_seconds.size();
    while (setup_seconds.size() - before < 8 ||
           (SecondsSince(begin) < 0.5 && setup_seconds.size() - before < 30)) {
      set_up();
    }
  };
  set_up_repeatedly();

  // Reference values from the same snapshot, in process.
  std::vector<double> expected(kQueries);
  for (std::int64_t q = 0; q < kQueries; ++q) {
    expected[static_cast<std::size_t>(q)] = service->Predict(
        std::vector<std::int64_t>(queries.index(q), queries.index(q) + queries.order()));
  }
  const int port = server->port();
  load->Run(ctx.seconds, &expected);

  const LoadGenerator& g = *load;
  const std::int64_t replies = g.replies;
  report->Attempt(g.sent);
  report->Fail(g.mismatched + g.errors + g.unanswered());
  report->Check("replies_bit_equal_to_in_process_predict", g.mismatched == 0,
                std::to_string(g.mismatched) + " of " + std::to_string(replies) +
                    " replies differ from PredictionService::Predict",
                /*counts=*/false);
  report->Check("no_error_replies", g.errors == 0,
                std::to_string(g.errors) + " error replies", /*counts=*/false);
  report->Check("replies_received", replies > 0,
                std::to_string(replies) + " replies in " +
                    std::to_string(g.elapsed()) + " s");
  report->Check("all_answered", g.unanswered() == 0,
                std::to_string(g.unanswered()) + " requests unanswered after drain",
                /*counts=*/false);

  const double client_p50 = g.Percentile(50);
  if (!ctx.traced) {
    const auto windows = static_cast<std::int64_t>(g.window_rate.size());
    report->Metric("throughput_per_s", Median(g.window_rate), "1/s", windows);
    report->Metric("time_to_target_s", Median(g.blocks), "s",
                   static_cast<std::int64_t>(g.blocks.size()));
    report->Metric("p50_ms", Median(g.window_p50) * 1e3, "ms", windows);
    report->Metric("p90_ms", Median(g.window_p90) * 1e3, "ms", windows);
    report->Metric("run_p50_ms", client_p50 * 1e3, "ms", replies);
    report->Metric("run_p99_ms", g.Percentile(99) * 1e3, "ms", replies);
    report->Metric("run_p999_ms", g.Percentile(99.9) * 1e3, "ms", replies);
    report->Metric("run_throughput_per_s", static_cast<double>(replies) / g.elapsed(),
                   "1/s", replies);
  } else {
    SpanRecorder& spans = *ctx.spans;
    const auto reps = static_cast<std::int64_t>(setup_seconds.size());
    report->Metric("snapshot_v2.open_ms",
                   Median(spans.DurationsOf("snapshot_v2.open")) * 1e3, "ms", reps);
    report->Metric("net.server_start_ms",
                   Median(spans.DurationsOf("net.server_start")) * 1e3, "ms", reps);

    NetClient scraper("127.0.0.1", port);
    const std::string text = scraper.Metrics();
    const double batches = Scrape(text, "ptucker_serve_batch_size_count");
    const double batch_mean =
        batches > 0 ? Scrape(text, "ptucker_serve_batch_size_sum") / batches : 0.0;
    const double server_p50 =
        HistogramP50(text, "ptucker_serve_predict_latency_seconds");
    report->Metric("coalescer.batch_size_mean", batch_mean, "count",
                   static_cast<std::int64_t>(batches));
    report->Metric("net.server_latency_p50_ms", server_p50 * 1e3, "ms", replies);
    report->Metric("net.outside_server_ms", (client_p50 - server_p50) * 1e3, "ms",
                   replies);
    report->Metric("net.shed_total", Scrape(text, "ptucker_serve_shed_total"),
                   "count", 1);
    report->Metric("net.parked_total", Scrape(text, "ptucker_serve_parked_total"),
                   "count", 1);
    report->Metric("loadgen.busy_share", 1.0 - g.poll_seconds / g.elapsed(),
                   "ratio", 1);

    // Codec and batch-kernel costs, each timed over many calls from
    // outside: 20 blocks, median per call.
    std::vector<double> decode, encode, batch_us;
    const std::vector<std::uint8_t>& frame_bytes = requests[0];
    double sink = 0.0;
    for (int block = 0; block < 20; ++block) {
      const int calls = 20000;
      std::int64_t start = NowNs();
      for (int i = 0; i < calls; ++i) {
        WireFrame frame;
        std::size_t consumed = 0;
        std::string error;
        PredictRequest request;
        DecodeFrame(frame_bytes.data(), frame_bytes.size(), &frame, &consumed,
                    &error);
        ParsePredictRequest(frame.payload, &request, &error);
        sink += static_cast<double>(request.coords[0]);
      }
      decode.push_back(SecondsSince(start) * 1e9 / calls);
      start = NowNs();
      for (int i = 0; i < calls; ++i) {
        sink += static_cast<double>(
            EncodePredictReply(static_cast<std::uint64_t>(i), sink).size());
      }
      encode.push_back(SecondsSince(start) * 1e9 / calls);
    }
    const std::int64_t width =
        std::max<std::int64_t>(1, static_cast<std::int64_t>(std::lround(batch_mean)));
    std::vector<const std::int64_t*> ptrs;
    for (std::int64_t q = 0; q < kQueries; ++q) ptrs.push_back(queries.index(q));
    std::vector<double> out(static_cast<std::size_t>(width));
    for (int block = 0; block < 20; ++block) {
      const std::int64_t calls = std::max<std::int64_t>(1, 4096 / width);
      const std::int64_t start = NowNs();
      for (std::int64_t c = 0; c < calls; ++c) {
        const std::int64_t first = (c * width) % (kQueries - width + 1);
        service->PredictBatch(width, ptrs.data() + first, out.data());
        sink += out[0];
      }
      batch_us.push_back(SecondsSince(start) * 1e6 / static_cast<double>(calls));
    }
    report->Metric("wire.decode_request_ns", Median(decode), "ns", 20 * 20000);
    report->Metric("wire.encode_reply_ns", Median(encode), "ns", 20 * 20000);
    report->Metric("service.predict_batch_us", Median(batch_us), "us", 20);
    Consume(sink);
  }
  set_up_repeatedly();
  report->Metric("setup_s", Median(setup_seconds), "s",
                 static_cast<std::int64_t>(setup_seconds.size()));
  load.reset();
  server->Stop();
}

}  // namespace perfbench

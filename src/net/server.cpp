#include "net/server.hpp"

#include <chrono>
#include <deque>
#include <future>
#include <sstream>
#include <utility>

#include "core/bellamy_model.hpp"
#include "nn/serialize.hpp"

namespace bellamy::net {

namespace {

/// Outbound queue bound per connection (responses not yet written).  A
/// client that stops reading blocks its own reader once this many responses
/// are parked — per-connection flow control.
constexpr std::size_t kMaxPipeline = 256;

ResponseHead head_of(std::uint64_t request_id, serve::ServeStatus status,
                     std::string message = {}) {
  ResponseHead head;
  head.request_id = request_id;
  head.status = status;
  head.message = std::move(message);
  return head;
}

}  // namespace

/// One client connection.  The outbound queue is the only shared state
/// between reader and writer; `closing` latches once and both threads wind
/// down.  Owned by shared_ptr so the refit completion callback can hold a
/// weak_ptr: a refit finishing after the client left must drop its event,
/// not write to a dead socket.
struct ServeServer::Connection : std::enable_shared_from_this<Connection> {
  /// One queued response, FIFO.  kBytes is fully encoded; kPredict /
  /// kPredictMany carry unresolved futures the WRITER harvests (so the
  /// reader never blocks on a micro-batch); kDrain closes the connection
  /// after a DrainResponse; kClose closes it silently.
  struct Outbound {
    enum class Kind : std::uint8_t { kBytes, kPredict, kPredictMany, kDrain, kClose };
    Kind kind = Kind::kBytes;
    std::vector<std::uint8_t> bytes;
    std::uint64_t request_id = 0;
    std::future<serve::ServeResult<double>> future;
    std::vector<std::future<serve::ServeResult<double>>> futures;
  };

  explicit Connection(Socket s) : sock(std::move(s)) {}

  /// Reader-side push: blocks while the queue is at the pipeline bound
  /// (slow-client backpressure).  Returns false when the connection is
  /// already closing.
  bool push(Outbound item, std::size_t max_pipeline) {
    std::unique_lock<std::mutex> lock(mutex);
    space_cv.wait(lock, [&] { return closing || outbound.size() < max_pipeline; });
    if (closing) return false;
    outbound.push_back(std::move(item));
    items_cv.notify_one();
    return true;
  }

  /// Event-side push (refit completions): never blocks — the refit strand
  /// must not stall on a slow client — so these bypass the pipeline bound.
  /// Events are rare and small; the bound exists to stop request floods.
  bool push_event(std::vector<std::uint8_t> bytes) {
    std::lock_guard<std::mutex> lock(mutex);
    if (closing) return false;
    Outbound item;
    item.kind = Outbound::Kind::kBytes;
    item.bytes = std::move(bytes);
    outbound.push_back(std::move(item));
    items_cv.notify_one();
    return true;
  }

  /// Latch closing and wake both threads; the socket shutdown unblocks a
  /// reader parked in read_exact.
  void begin_close() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (closing) return;
      closing = true;
    }
    items_cv.notify_all();
    space_cv.notify_all();
    sock.shutdown_both();
  }

  Socket sock;
  std::thread reader;
  std::thread writer;

  std::mutex mutex;
  std::condition_variable items_cv;  ///< writer waits: queue has items / closing
  std::condition_variable space_cv;  ///< reader waits: queue has room / closing
  std::deque<Outbound> outbound;
  bool closing = false;
  std::atomic<int> threads_done{0};  ///< 2 = fully finished, safe to reap
};

ServeServer::ServeServer(serve::ModelRegistry& registry, serve::PredictionService& service,
                         ServerOptions options)
    : registry_(registry), service_(service), options_(options) {}

ServeServer::~ServeServer() { stop(); }

bool ServeServer::start(std::string& error) {
  listener_ = tcp_listen(options_.port, port_, error);
  if (!listener_) return false;
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void ServeServer::accept_loop() {
  while (true) {
    AcceptStatus status = AcceptStatus::kOk;
    Socket client = tcp_accept(listener_, &status);
    if (!client) {
      if (status == AcceptStatus::kTransient && !draining_.load()) {
        // Resource pressure (EMFILE, ECONNABORTED, ...): the listener is
        // fine, the daemon must not die.  Count it, back off, try again.
        accept_retries_.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      break;  // listener shut down (drain/stop) or unusable
    }
    if (draining_.load()) continue;  // socket closes immediately: not accepting
    client.set_io_timeout(options_.io_timeout);
    auto conn = std::make_shared<Connection>(std::move(client));
    accepted_.fetch_add(1);
    open_.fetch_add(1);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      connections_.push_back(conn);
    }
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
    conn->writer = std::thread([this, conn] { writer_loop(conn); });
    reap_connections(false);
  }
}

void ServeServer::reader_loop(const std::shared_ptr<Connection>& conn) {
  std::vector<std::uint8_t> body;
  while (true) {
    // An idle connection is legal for any length of time; the stall budget
    // starts once a frame does.
    if (conn->sock.wait_readable(kWaitForever) != IoStatus::kOk) break;
    std::uint8_t prefix[4];
    IoStatus io = conn->sock.read_exact(prefix, sizeof prefix);
    if (io != IoStatus::kOk) {  // EOF / closed / stalled
      if (io == IoStatus::kTimeout) io_timeouts_.fetch_add(1);
      break;
    }
    std::uint32_t len = 0;
    {
      WireReader r(prefix, sizeof prefix);
      r.u32(len);
    }
    if (len < 4 || len > kMaxFrameBytes) {
      protocol_errors_.fetch_add(1);
      break;
    }
    body.resize(len);
    io = conn->sock.read_exact(body.data(), len);
    if (io != IoStatus::kOk) {
      if (io == IoStatus::kTimeout) io_timeouts_.fetch_add(1);
      break;
    }

    FrameView frame;
    const WireStatus status = parse_body(body.data(), body.size(), frame);
    if (status != WireStatus::kOk) {
      protocol_errors_.fetch_add(1);
      break;
    }
    frames_in_.fetch_add(1);
    if (!dispatch(conn, frame)) break;
  }
  // Reader is done (clean drain, peer gone, or protocol error): flush what
  // is queued, then close.
  Connection::Outbound close_marker;
  close_marker.kind = Connection::Outbound::Kind::kClose;
  conn->push(std::move(close_marker), kMaxPipeline + 1);
  if (conn->threads_done.fetch_add(1) + 1 == 2) note_connection_closed();
}

serve::ServeResult<serve::ModelHandle> ServeServer::resolve_key(const serve::ModelKey& key) {
  auto handle = registry_.find(key);
  if (handle.ok() || options_.peer_service == nullptr) return handle;
  // Pull-on-miss: a key this node has never seen may live on a peer.  May
  // block on peer I/O — stalling exactly the connection that asked, which
  // matches the rest of the backpressure story.
  return options_.peer_service->open_on_miss(key);
}

template <typename Resp>
bool ServeServer::reply(const std::shared_ptr<Connection>& conn, const Resp& resp) {
  Connection::Outbound item;
  item.bytes = encode_frame(resp);
  return conn->push(std::move(item), kMaxPipeline);
}

bool ServeServer::dispatch(const std::shared_ptr<Connection>& conn, const FrameView& frame) {
  const auto type = static_cast<MsgType>(frame.type);
  switch (type) {
    case MsgType::kPredictRequest: {
      PredictRequest req;
      if (decode_message(frame, req) != WireStatus::kOk) return protocol_error();
      const auto handle = resolve_key(req.key);
      if (!handle.ok()) {
        PredictResponse resp;
        resp.head = head_of(req.request_id, handle.status(), handle.message());
        return reply(conn, resp);
      }
      Connection::Outbound item;
      item.kind = Connection::Outbound::Kind::kPredict;
      item.request_id = req.request_id;
      // May block on the handle's bounded lane: service backpressure lands
      // on this connection's reader, which is the point.
      item.future = service_.predict_async(handle.value(), req.query);
      return conn->push(std::move(item), kMaxPipeline);
    }

    case MsgType::kPredictManyRequest: {
      PredictManyRequest req;
      if (decode_message(frame, req) != WireStatus::kOk) return protocol_error();
      const auto handle = resolve_key(req.key);
      if (!handle.ok()) {
        PredictManyResponse resp;
        resp.head = head_of(req.request_id, handle.status(), handle.message());
        return reply(conn, resp);
      }
      Connection::Outbound item;
      item.kind = Connection::Outbound::Kind::kPredictMany;
      item.request_id = req.request_id;
      item.futures.reserve(req.queries.size());
      for (const data::JobRun& query : req.queries) {
        item.futures.push_back(service_.predict_async(handle.value(), query));
      }
      return conn->push(std::move(item), kMaxPipeline);
    }

    case MsgType::kPublishRequest: {
      PublishRequest req;
      if (decode_message(frame, req) != WireStatus::kOk) return protocol_error();
      PublishResponse resp;
      try {
        std::istringstream in(req.checkpoint_text);
        const nn::Checkpoint ckpt = nn::Checkpoint::load(in);
        const core::BellamyModel model = core::BellamyModel::from_checkpoint(ckpt);
        const auto published = registry_.publish(req.key, model);
        resp.head = head_of(req.request_id, published.status(), published.message());
      } catch (const std::exception& e) {
        resp.head = head_of(req.request_id, serve::ServeStatus::kInvalidArgument,
                            std::string("bad checkpoint: ") + e.what());
      }
      return reply(conn, resp);
    }

    case MsgType::kRefitAsyncRequest: {
      RefitAsyncRequest req;
      if (decode_message(frame, req) != WireStatus::kOk) return protocol_error();
      const auto handle = resolve_key(req.key);
      if (!handle.ok()) {
        RefitResponse resp;
        resp.head = head_of(req.request_id, handle.status(), handle.message());
        return reply(conn, resp);
      }
      // The response is DEFERRED: pushed when the background refit lands.
      // weak_ptr: a connection that closed meanwhile drops the event.
      std::weak_ptr<Connection> weak = conn;
      const std::uint64_t request_id = req.request_id;
      registry_.refit_async(
          handle.value(), std::move(req.runs), req.config,
          static_cast<core::ReuseStrategy>(req.strategy),
          [weak, request_id](const serve::ServeResult<core::FineTuneResult>& result) {
            const std::shared_ptr<Connection> conn = weak.lock();
            if (!conn) return;
            RefitResponse resp;
            resp.head = head_of(request_id, result.status(), result.message());
            if (result.ok()) {
              const core::FineTuneResult& fit = result.value();
              resp.epochs_run = static_cast<std::uint64_t>(fit.epochs_run);
              resp.best_mae_seconds = fit.best_mae_seconds;
              resp.reached_target = fit.reached_target ? 1 : 0;
              resp.fit_seconds = fit.fit_seconds;
            }
            conn->push_event(encode_frame(resp));
          });
      return true;
    }

    case MsgType::kMetricsRequest: {
      MetricsRequest req;
      if (decode_message(frame, req) != WireStatus::kOk) return protocol_error();
      MetricsResponse resp;
      const auto handle = resolve_key(req.key);
      if (!handle.ok()) {
        resp.head = head_of(req.request_id, handle.status(), handle.message());
      } else {
        const auto metrics =
            serve::model_metrics(service_, registry_, options_.drift_monitor, handle.value());
        resp.head = head_of(req.request_id, metrics.status(), metrics.message());
        if (metrics.ok()) resp.metrics = metrics.value();
      }
      return reply(conn, resp);
    }

    case MsgType::kSetQosRequest: {
      SetQosRequest req;
      if (decode_message(frame, req) != WireStatus::kOk) return protocol_error();
      SetQosResponse resp;
      const auto handle = resolve_key(req.key);
      if (!handle.ok()) {
        resp.head = head_of(req.request_id, handle.status(), handle.message());
      } else {
        serve::HandleQos qos;
        qos.qos = static_cast<serve::QosClass>(req.qos_class);
        qos.weight = req.weight;
        qos.max_lag = std::chrono::microseconds(req.max_lag_us);
        const auto set = service_.set_qos(handle.value(), qos);
        resp.head = head_of(req.request_id, set.status(), set.message());
      }
      return reply(conn, resp);
    }

    case MsgType::kEraseRequest: {
      EraseRequest req;
      if (decode_message(frame, req) != WireStatus::kOk) return protocol_error();
      EraseResponse resp;
      const auto handle = registry_.find(req.key);
      if (!handle.ok()) {
        resp.head = head_of(req.request_id, handle.status(), handle.message());
      } else {
        const auto erased = registry_.erase(handle.value());
        resp.head = head_of(req.request_id, erased.status(), erased.message());
      }
      return reply(conn, resp);
    }

    case MsgType::kAdvertiseRequest: {
      AdvertiseRequest req;
      if (decode_message(frame, req) != WireStatus::kOk) return protocol_error();
      AdvertiseResponse resp;
      if (options_.peer_service == nullptr) {
        resp.head = head_of(req.request_id, serve::ServeStatus::kInvalidArgument,
                            "advertise: this node has no exchange layer configured");
      } else {
        // Fire-and-forget gossip: the hook only schedules pulls, so the
        // reader is never parked on peer I/O here.
        options_.peer_service->on_advertise(req.entries);
        resp.head = head_of(req.request_id, serve::ServeStatus::kOk);
      }
      return reply(conn, resp);
    }

    case MsgType::kDigestRequest: {
      DigestRequest req;
      if (decode_message(frame, req) != WireStatus::kOk) return protocol_error();
      DigestResponse resp;
      if (options_.peer_service == nullptr) {
        resp.head = head_of(req.request_id, serve::ServeStatus::kInvalidArgument,
                            "digest: this node has no exchange layer configured");
      } else {
        resp.head = head_of(req.request_id, serve::ServeStatus::kOk);
        resp.entries = options_.peer_service->digest_entries();
      }
      return reply(conn, resp);
    }

    case MsgType::kPullRequest: {
      PullRequest req;
      if (decode_message(frame, req) != WireStatus::kOk) return protocol_error();
      PullResponse resp;
      if (options_.peer_service == nullptr) {
        resp.head = head_of(req.request_id, serve::ServeStatus::kInvalidArgument,
                            "pull: this node has no exchange layer configured");
      } else {
        auto pulled = options_.peer_service->pull_model(req.key);
        resp.head = head_of(req.request_id, pulled.status(), pulled.message());
        if (pulled.ok()) {
          resp.stamp = pulled.value().stamp;
          resp.checkpoint_text = std::move(pulled.value().checkpoint_text);
        }
      }
      return reply(conn, resp);
    }

    case MsgType::kReportRunRequest: {
      ReportRunRequest req;
      if (decode_message(frame, req) != WireStatus::kOk) return protocol_error();
      ReportRunResponse resp;
      if (options_.drift_monitor == nullptr) {
        resp.head = head_of(req.request_id, serve::ServeStatus::kInvalidArgument,
                            "report_run: this node has no drift monitor configured");
      } else {
        const auto handle = resolve_key(req.key);
        if (!handle.ok()) {
          resp.head = head_of(req.request_id, handle.status(), handle.message());
        } else {
          // May queue a refit on the entry's strand; the report itself is one
          // single-run prediction, cheap enough for the reader thread.
          const auto observed = options_.drift_monitor->report(handle.value(), req.run);
          resp.head = head_of(req.request_id, observed.status(), observed.message());
          if (observed.ok()) {
            resp.error_ewma = observed.value().error_ewma;
            resp.reports = observed.value().reports;
            resp.refit_triggered = observed.value().refit_triggered ? 1 : 0;
          }
        }
      }
      return reply(conn, resp);
    }

    case MsgType::kDrainRequest: {
      DrainRequest req;
      if (decode_message(frame, req) != WireStatus::kOk) return protocol_error();
      // Queue the DrainResponse FIRST (it flushes after everything already
      // queued), then drain the service: by the time the writer reaches the
      // marker, every queued future has resolved.
      Connection::Outbound item;
      item.kind = Connection::Outbound::Kind::kDrain;
      item.request_id = req.request_id;
      conn->push(std::move(item), kMaxPipeline + 1);
      begin_drain();
      return false;  // reader done; writer closes after the DrainResponse
    }

    default:
      return protocol_error();
  }
}

bool ServeServer::protocol_error() {
  protocol_errors_.fetch_add(1);
  return false;
}

void ServeServer::writer_loop(const std::shared_ptr<Connection>& conn) {
  bool alive = true;
  while (true) {
    Connection::Outbound item;
    {
      std::unique_lock<std::mutex> lock(conn->mutex);
      conn->items_cv.wait(lock, [&] { return !conn->outbound.empty() || conn->closing; });
      if (conn->outbound.empty()) break;  // closing with nothing left
      item = std::move(conn->outbound.front());
      conn->outbound.pop_front();
      conn->space_cv.notify_one();
    }

    using Kind = Connection::Outbound::Kind;
    if (item.kind == Kind::kClose) break;

    std::vector<std::uint8_t> bytes;
    switch (item.kind) {
      case Kind::kBytes:
        bytes = std::move(item.bytes);
        break;
      case Kind::kPredict: {
        const serve::ServeResult<double> result = item.future.get();
        PredictResponse resp;
        resp.head = head_of(item.request_id, result.status(), result.message());
        if (result.ok()) resp.value = result.value();
        bytes = encode_frame(resp);
        break;
      }
      case Kind::kPredictMany: {
        PredictManyResponse resp;
        resp.head = head_of(item.request_id, serve::ServeStatus::kOk);
        resp.values.reserve(item.futures.size());
        for (std::future<serve::ServeResult<double>>& f : item.futures) {
          serve::ServeResult<double> result = f.get();
          if (result.ok()) {
            resp.values.push_back(result.value());
          } else if (resp.head.ok()) {
            // First failure wins, matching predict_many(); later futures
            // are still harvested so nothing is left dangling.
            resp.head = head_of(item.request_id, result.status(), result.message());
            resp.values.clear();
          }
        }
        if (!resp.head.ok()) resp.values.clear();
        bytes = encode_frame(resp);
        break;
      }
      case Kind::kDrain: {
        DrainResponse resp;
        resp.head = head_of(item.request_id, serve::ServeStatus::kOk);
        bytes = encode_frame(resp);
        break;
      }
      case Kind::kClose:
        break;  // handled above
    }

    if (alive && !bytes.empty()) {
      const IoStatus io = conn->sock.write_all(bytes.data(), bytes.size());
      if (io == IoStatus::kOk) {
        frames_out_.fetch_add(1);
      } else {
        // A client that stopped reading past the write budget is as gone as
        // one that closed.  Keep harvesting futures, stop writing.
        if (io == IoStatus::kTimeout) io_timeouts_.fetch_add(1);
        alive = false;
      }
    }
    if (item.kind == Kind::kDrain) break;  // DrainResponse is the last frame
  }
  conn->begin_close();
  if (conn->threads_done.fetch_add(1) + 1 == 2) note_connection_closed();
}

void ServeServer::begin_drain() {
  std::call_once(drain_once_, [this] {
    draining_.store(true);
    listener_.shutdown_both();  // accept loop wakes and exits
    // Every accepted request resolves here (PredictionService::stop drains
    // all lanes before joining the workers) — the writers' queued futures
    // all become ready.
    service_.stop();
    // Flush-and-close every connection that is not already winding down.
    std::vector<std::shared_ptr<Connection>> conns;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      conns = connections_;
    }
    for (const auto& conn : conns) {
      Connection::Outbound item;
      item.kind = Connection::Outbound::Kind::kClose;
      std::lock_guard<std::mutex> lock(conn->mutex);
      if (!conn->closing) {
        conn->outbound.push_back(std::move(item));
        conn->items_cv.notify_all();
      }
    }
  });
}

void ServeServer::wait_drained() {
  std::unique_lock<std::mutex> lock(mutex_);
  drained_cv_.wait(lock, [this] { return draining_.load() && open_.load() == 0; });
}

void ServeServer::note_connection_closed() {
  open_.fetch_sub(1);
  std::lock_guard<std::mutex> lock(mutex_);
  drained_cv_.notify_all();
}

void ServeServer::reap_connections(bool join_all) {
  std::vector<std::shared_ptr<Connection>> done;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = connections_.begin();
    while (it != connections_.end()) {
      if (join_all || (*it)->threads_done.load() == 2) {
        done.push_back(*it);
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& conn : done) {
    if (join_all) conn->begin_close();
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->writer.joinable()) conn->writer.join();
  }
}

void ServeServer::stop() {
  std::call_once(stop_once_, [this] {
    begin_drain();
    if (accept_thread_.joinable()) accept_thread_.join();
    reap_connections(true);
    listener_.close();
  });
}

ServerStats ServeServer::stats() const {
  ServerStats s;
  s.connections_accepted = accepted_.load();
  s.connections_open = open_.load();
  s.frames_in = frames_in_.load();
  s.frames_out = frames_out_.load();
  s.protocol_errors = protocol_errors_.load();
  s.accept_retries = accept_retries_.load();
  s.io_timeouts = io_timeouts_.load();
  s.draining = draining_.load();
  return s;
}

}  // namespace bellamy::net

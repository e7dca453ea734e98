#include "net/client.hpp"

#include <algorithm>
#include <sstream>
#include <thread>
#include <utility>

#include "nn/serialize.hpp"

namespace bellamy::net {

namespace {

using Clock = std::chrono::steady_clock;

template <typename T>
serve::ServeResult<T> transport_lost(serve::ServeStatus status) {
  return serve::ServeResult<T>::failure(
      status, status == serve::ServeStatus::kTimeout
                  ? "request deadline elapsed before the response arrived"
                  : "connection closed before the response arrived");
}

/// Decode the response frame and map it onto a ServeResult: the head's
/// ServeStatus on a server-side failure, kInternalError on a decode failure
/// (the server spoke, but not the protocol we expect), else convert(resp).
template <typename T, typename Resp, typename Convert>
serve::ServeResult<T> from_frame(const FrameView& frame, const Convert& convert) {
  Resp resp;
  const WireStatus status = decode_message(frame, resp);
  if (status != WireStatus::kOk) {
    return serve::ServeResult<T>::failure(
        serve::ServeStatus::kInternalError,
        std::string("undecodable response: ") + to_string(status));
  }
  if (!resp.head.ok()) return serve::ServeResult<T>::failure(resp.head.status, resp.head.message);
  return serve::ServeResult<T>(convert(resp));
}

/// For calls whose response carries nothing but its head.
constexpr auto kNoValue = [](const auto&) { return serve::Unit{}; };

}  // namespace

NetClient::~NetClient() { close(); }

bool NetClient::connect(const std::string& host, std::uint16_t port, std::string& error) {
  if (connected()) {
    error = "already connected";
    return false;
  }
  sock_ = tcp_connect(host, port, options_.io_timeout, error);
  if (!sock_) return false;
  // A mid-frame stall must not outlive the request guarantee: the reader
  // thread is the one that expires pending deadlines, so if it parks inside
  // read_exact (e.g. a garbled length prefix promising bytes that never
  // arrive — the u32 prefix is outside the frame checksum) with no socket
  // budget, every pending request hangs with it.
  sock_.set_io_timeout(options_.io_timeout);
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    open_ = true;
  }
  reader_ = std::thread([this] { reader_loop(); });
  return true;
}

bool NetClient::connected() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return open_;
}

void NetClient::close() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (!open_ && !sock_.valid()) {
      if (reader_.joinable()) reader_.join();
      return;
    }
    open_ = false;
  }
  sock_.shutdown_both();  // unblocks the reader
  if (reader_.joinable()) reader_.join();
  fail_all_pending(serve::ServeStatus::kShutdown);
  sock_.close();
}

std::uint64_t NetClient::next_id() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return next_id_++;
}

template <typename Req>
void NetClient::send_request(Req& req, Deliver deliver) {
  req.request_id = next_id();
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (!open_) {
      deliver(nullptr, serve::ServeStatus::kShutdown);
      return;
    }
    Pending entry;
    entry.deliver = deliver;
    entry.deadline = options_.io_timeout.count() > 0 ? Clock::now() + options_.io_timeout
                                                     : Clock::time_point::max();
    pending_.emplace(req.request_id, std::move(entry));
  }
  const std::vector<std::uint8_t> frame = encode_frame(req);
  IoStatus sent = IoStatus::kClosed;
  {
    std::lock_guard<std::mutex> lock(send_mutex_);
    sent = sock_.write_all(frame.data(), frame.size());
  }
  if (sent != IoStatus::kOk) {
    Deliver orphan;
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      auto it = pending_.find(req.request_id);
      if (it != pending_.end()) {
        orphan = std::move(it->second.deliver);
        pending_.erase(it);
      }
    }
    if (orphan) {
      orphan(nullptr, sent == IoStatus::kTimeout ? serve::ServeStatus::kTimeout
                                                 : serve::ServeStatus::kShutdown);
    }
  }
}

std::chrono::milliseconds NetClient::reader_wait() const {
  // No request budget configured: the reader may park forever — a response
  // or close() will wake it.  With a budget, never sleep past the nearest
  // pending deadline; with no pending, tick at the budget so a request sent
  // DURING the sleep still expires within 2x its deadline.
  if (options_.io_timeout.count() <= 0) return kWaitForever;
  std::lock_guard<std::mutex> lock(state_mutex_);
  auto nearest = Clock::time_point::max();
  for (const auto& [id, entry] : pending_) nearest = std::min(nearest, entry.deadline);
  if (nearest == Clock::time_point::max()) return options_.io_timeout;
  const auto left =
      std::chrono::duration_cast<std::chrono::milliseconds>(nearest - Clock::now());
  return std::max(std::chrono::milliseconds{1},
                  std::min(left, options_.io_timeout));
}

void NetClient::expire_overdue() {
  std::vector<Deliver> overdue;
  const auto now = Clock::now();
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.deadline <= now) {
        overdue.push_back(std::move(it->second.deliver));
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // A late response to an expired id is dropped by the correlation map —
  // exactly one resolution per request, timeout or response, never both.
  for (Deliver& deliver : overdue) deliver(nullptr, serve::ServeStatus::kTimeout);
}

void NetClient::reader_loop() {
  std::vector<std::uint8_t> body;
  serve::ServeStatus epitaph = serve::ServeStatus::kShutdown;
  while (true) {
    const IoStatus ready = sock_.wait_readable(reader_wait());
    if (ready == IoStatus::kTimeout) {
      expire_overdue();
      continue;
    }
    if (ready != IoStatus::kOk) break;

    std::uint8_t prefix[4];
    IoStatus status = sock_.read_exact(prefix, sizeof prefix);
    if (status != IoStatus::kOk) {
      if (status == IoStatus::kTimeout) epitaph = serve::ServeStatus::kTimeout;
      break;
    }
    std::uint32_t len = 0;
    {
      WireReader r(prefix, sizeof prefix);
      r.u32(len);
    }
    if (len < 4 || len > kMaxFrameBytes) break;
    body.resize(len);
    status = sock_.read_exact(body.data(), len);
    if (status != IoStatus::kOk) {
      // A frame that stalls mid-body leaves the stream position untrusted:
      // the connection is over, and the pendings fail with the reason.
      if (status == IoStatus::kTimeout) epitaph = serve::ServeStatus::kTimeout;
      break;
    }

    FrameView frame;
    if (parse_body(body.data(), body.size(), frame) != WireStatus::kOk) break;

    // Every response leads with a u64 request_id; peek it to correlate.  A
    // payload too short to hold one is protocol garbage like any other: its
    // request can never be matched, so the connection ends and every pending
    // request fails rather than waiting on a response that will not come.
    std::uint64_t request_id = 0;
    {
      WireReader r(frame.payload, frame.payload_size);
      if (!r.u64(request_id)) break;
    }
    Deliver deliver;
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      auto it = pending_.find(request_id);
      if (it != pending_.end()) {
        deliver = std::move(it->second.deliver);
        pending_.erase(it);
      }
    }
    if (deliver) deliver(&frame, serve::ServeStatus::kOk);  // unknown ids dropped
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    open_ = false;
  }
  fail_all_pending(epitaph);
}

void NetClient::fail_all_pending(serve::ServeStatus status) {
  std::map<std::uint64_t, Pending> orphans;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    orphans.swap(pending_);
  }
  for (auto& [id, entry] : orphans) entry.deliver(nullptr, status);
}

template <typename Resp, typename Req, typename Convert>
auto NetClient::call(Req req, Convert convert)
    -> std::future<serve::ServeResult<std::invoke_result_t<Convert&, Resp&>>> {
  using T = std::invoke_result_t<Convert&, Resp&>;
  auto promise = std::make_shared<std::promise<serve::ServeResult<T>>>();
  std::future<serve::ServeResult<T>> future = promise->get_future();
  send_request(req, [promise, convert](const FrameView* frame, serve::ServeStatus fail) {
    promise->set_value(frame == nullptr ? transport_lost<T>(fail)
                                        : from_frame<T, Resp>(*frame, convert));
  });
  return future;
}

// ---------------------------------------------------------------------------
// Serving calls
// ---------------------------------------------------------------------------

std::future<serve::ServeResult<double>> NetClient::predict_async(const serve::ModelKey& key,
                                                                 const data::JobRun& query) {
  return call<PredictResponse>(PredictRequest{.key = key, .query = query},
                               [](PredictResponse& resp) { return resp.value; });
}

serve::ServeResult<double> NetClient::predict(const serve::ModelKey& key,
                                              const data::JobRun& query) {
  return predict_async(key, query).get();
}

std::future<serve::ServeResult<std::vector<double>>> NetClient::predict_many_async(
    const serve::ModelKey& key, const std::vector<data::JobRun>& queries) {
  return call<PredictManyResponse>(
      PredictManyRequest{.key = key, .queries = queries},
      [](PredictManyResponse& resp) { return std::move(resp.values); });
}

serve::ServeResult<std::vector<double>> NetClient::predict_many(
    const serve::ModelKey& key, const std::vector<data::JobRun>& queries) {
  return predict_many_async(key, queries).get();
}

serve::ServeResult<serve::Unit> NetClient::publish(const serve::ModelKey& key,
                                                   const core::BellamyModel& model) {
  std::ostringstream out;
  model.to_checkpoint().save(out);
  return call<PublishResponse>(PublishRequest{.key = key, .checkpoint_text = out.str()},
                               kNoValue)
      .get();
}

serve::ServeResult<core::FineTuneResult> NetClient::refit(
    const serve::ModelKey& key, const std::vector<data::JobRun>& runs,
    const core::FineTuneConfig& config, core::ReuseStrategy strategy) {
  RefitAsyncRequest req{.key = key,
                        .runs = runs,
                        .config = config,
                        .strategy = static_cast<std::uint8_t>(strategy)};
  return call<RefitResponse>(std::move(req), [](RefitResponse& resp) {
           core::FineTuneResult fit;
           fit.epochs_run = static_cast<std::size_t>(resp.epochs_run);
           fit.best_mae_seconds = resp.best_mae_seconds;
           fit.reached_target = resp.reached_target != 0;
           fit.fit_seconds = resp.fit_seconds;
           return fit;
         })
      .get();
}

serve::ServeResult<serve::ServeMetrics> NetClient::metrics(const serve::ModelKey& key) {
  return call<MetricsResponse>(MetricsRequest{.key = key},
                               [](MetricsResponse& resp) { return resp.metrics; })
      .get();
}

serve::ServeResult<serve::DriftObservation> NetClient::report_run(const serve::ModelKey& key,
                                                                  const data::JobRun& run) {
  return call<ReportRunResponse>(ReportRunRequest{.key = key, .run = run},
                                 [](ReportRunResponse& resp) {
                                   serve::DriftObservation observation;
                                   observation.error_ewma = resp.error_ewma;
                                   observation.reports = resp.reports;
                                   observation.refit_triggered = resp.refit_triggered != 0;
                                   return observation;
                                 })
      .get();
}

serve::ServeResult<serve::Unit> NetClient::set_qos(const serve::ModelKey& key,
                                                   const serve::HandleQos& qos) {
  SetQosRequest req{.key = key,
                    .qos_class = static_cast<std::uint8_t>(qos.qos),
                    .weight = qos.weight,
                    .max_lag_us = static_cast<std::uint64_t>(qos.max_lag.count())};
  return call<SetQosResponse>(std::move(req), kNoValue).get();
}

serve::ServeResult<serve::Unit> NetClient::erase(const serve::ModelKey& key) {
  return call<EraseResponse>(EraseRequest{.key = key}, kNoValue).get();
}

serve::ServeResult<std::vector<DigestEntry>> NetClient::digest() {
  return call<DigestResponse>(DigestRequest{},
                              [](DigestResponse& resp) { return std::move(resp.entries); })
      .get();
}

serve::ServeResult<PulledCheckpoint> NetClient::pull_model(const serve::ModelKey& key) {
  return call<PullResponse>(PullRequest{.key = key}, [](PullResponse& resp) {
           return PulledCheckpoint{resp.stamp, std::move(resp.checkpoint_text)};
         })
      .get();
}

serve::ServeResult<serve::Unit> NetClient::advertise(const std::vector<DigestEntry>& entries) {
  return call<AdvertiseResponse>(AdvertiseRequest{.entries = entries}, kNoValue).get();
}

serve::ServeResult<serve::Unit> NetClient::drain() {
  return call<DrainResponse>(DrainRequest{}, kNoValue).get();
}

}  // namespace bellamy::net

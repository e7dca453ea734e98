#include "serve/prediction_service.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

namespace bellamy::serve {

namespace {
/// Lane garbage collection only kicks in past this many lanes — below it,
/// probing the registry per drained lane costs more than the map.
constexpr std::size_t kGcMinLanes = 64;
/// ...and only every this many dispatched batches, so the sweep (which
/// probes the registry under the service mutex) stays off the hot path.
constexpr std::uint64_t kGcEveryDispatches = 256;

std::uint64_t saturating_us(std::chrono::steady_clock::duration d) {
  if (d <= std::chrono::steady_clock::duration::zero()) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(d).count());
}
}  // namespace

const char* to_string(QosClass qos) {
  return qos == QosClass::kInteractive ? "interactive" : "bulk";
}

PredictionService::PredictionService(ModelRegistry& registry, ServeOptions options)
    : registry_(registry), options_(options) {
  options_.max_batch = std::max<std::size_t>(1, options_.max_batch);
  options_.max_queue = std::max<std::size_t>(1, options_.max_queue);
  // A batch can never fill past the queue bound — clamp so the size-based
  // flush stays reachable instead of silently degrading to deadline flushes.
  options_.max_batch = std::min(options_.max_batch, options_.max_queue);
  options_.workers = std::max<std::size_t>(1, options_.workers);
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

PredictionService::~PredictionService() { stop(); }

ServeResult<double> PredictionService::predict(const ModelHandle& handle,
                                               const data::JobRun& query) {
  return predict_async(handle, query).get();
}

std::future<ServeResult<double>> PredictionService::predict_async(const ModelHandle& handle,
                                                                  const data::JobRun& query) {
  std::promise<ServeResult<double>> promise;
  std::future<ServeResult<double>> future = promise.get_future();
  if (!registry_.resolve(handle)) {
    promise.set_value(ServeResult<double>::failure(ServeStatus::kUnknownModel,
                                                   "predict: unknown model handle"));
    return future;
  }
  // Rejected here, per request: left to encode_runs, the throw would fail
  // every request coalesced into the same micro-batch.
  if (query.scale_out < 1) {
    promise.set_value(ServeResult<double>::failure(ServeStatus::kInvalidArgument,
                                                   "predict: scale_out must be >= 1"));
    return future;
  }

  std::unique_lock<std::mutex> lock(mutex_);
  // Bounded queue: block the producer until the dispatcher makes room.  The
  // lane is re-looked-up on every predicate evaluation — a drained lane may
  // be garbage-collected (and recreated) while we wait, so a held reference
  // could dangle.
  space_cv_.wait(lock, [&] {
    return stopping_ || lanes_[handle.id()].queue.size() < options_.max_queue;
  });
  if (stopping_) {
    lock.unlock();
    promise.set_value(
        ServeResult<double>::failure(ServeStatus::kShutdown, "service is stopping"));
    return future;
  }
  Lane& lane = lanes_[handle.id()];
  lane.queue.push_back(Request{query, std::move(promise), Clock::now()});
  lane.metrics.requests += 1;
  lane.metrics.queue_depth = lane.queue.size();
  lane.metrics.max_queue_depth =
      std::max<std::uint64_t>(lane.metrics.max_queue_depth, lane.queue.size());
  lock.unlock();
  // Wake a worker either way: the lane may now be full, or its deadline may
  // be earlier than the one a sleeping worker waits for.
  work_cv_.notify_one();
  return future;
}

ServeResult<std::vector<double>> PredictionService::predict_many(
    const ModelHandle& handle, const std::vector<data::JobRun>& queries) {
  std::vector<std::future<ServeResult<double>>> futures;
  futures.reserve(queries.size());
  for (const data::JobRun& query : queries) {
    futures.push_back(predict_async(handle, query));
  }
  std::vector<double> out(queries.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ServeResult<double> r = futures[i].get();
    if (!r.ok()) {
      // Drain the siblings before reporting — their promises resolve anyway,
      // and abandoning futures mid-batch would hide secondary errors.
      for (std::size_t j = i + 1; j < futures.size(); ++j) futures[j].wait();
      return ServeResult<std::vector<double>>::failure(r.status(), r.message());
    }
    out[i] = r.value();
  }
  return out;
}

ServeResult<Unit> PredictionService::set_qos(const ModelHandle& handle, HandleQos qos) {
  if (!(qos.weight > 0.0) || !std::isfinite(qos.weight)) {
    return ServeResult<Unit>::failure(ServeStatus::kInvalidArgument,
                                      "set_qos: weight must be a positive finite number");
  }
  if (qos.max_lag.count() < 0) {
    return ServeResult<Unit>::failure(ServeStatus::kInvalidArgument,
                                      "set_qos: max_lag must be >= 0 (0 disables the cap)");
  }
  if (!registry_.resolve(handle)) {
    return ServeResult<Unit>::failure(ServeStatus::kUnknownModel,
                                      "set_qos: unknown model handle");
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    lanes_[handle.id()].qos = qos;
  }
  // A sleeping worker re-reads the lane's (possibly earlier) deadline.
  work_cv_.notify_one();
  return ok();
}

ServeResult<HandleQos> PredictionService::qos(const ModelHandle& handle) const {
  if (!registry_.resolve(handle)) {
    return ServeResult<HandleQos>::failure(ServeStatus::kUnknownModel,
                                           "qos: unknown model handle");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = lanes_.find(handle.id()); it != lanes_.end()) return it->second.qos;
  return HandleQos{};
}

ServeResult<ServeMetrics> PredictionService::metrics(const ModelHandle& handle) const {
  const auto entry = registry_.resolve(handle);
  if (!entry) {
    return ServeResult<ServeMetrics>::failure(ServeStatus::kUnknownModel,
                                              "metrics: unknown model handle");
  }
  ServeMetrics out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = lanes_.find(handle.id()); it != lanes_.end()) {
      out = it->second.metrics;
      out.queue_depth = it->second.queue.size();
      out.effective_flush_deadline_us = deadline_us(it->second.qos);
      out.latency_count = it->second.latency.count();
      out.latency_p50_us = it->second.latency.quantile_us(0.50);
      out.latency_p95_us = it->second.latency.quantile_us(0.95);
      out.latency_p99_us = it->second.latency.quantile_us(0.99);
    }
  }
  return out;
}

void PredictionService::stop() {
  // One stopper at a time: join() from two threads on the same worker is UB.
  std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // The workers drained every queue before exiting; anything still pending
  // (a producer raced stop() past the registry check) fails loudly here.
  // These rejections do NOT count as responses — `responses` means "answered
  // through a micro-batch", which keeps mean_batch_fill() honest.
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [id, lane] : lanes_) {
    for (Request& request : lane.queue) {
      request.promise.set_value(
          ServeResult<double>::failure(ServeStatus::kShutdown, "service stopped"));
    }
    lane.queue.clear();
  }
}

std::uint64_t PredictionService::deadline_us(const HandleQos& qos) const {
  double us = static_cast<double>(options_.flush_deadline.count()) / qos.weight;
  // Aging cap: no matter how far the weight stretches the deadline, a capped
  // lane never waits (nor ranks) worse than max_lag — the boost that keeps
  // down-weighted kBulk lanes live under extreme interactive load.
  if (qos.max_lag.count() > 0) us = std::min(us, static_cast<double>(qos.max_lag.count()));
  us = std::clamp(us, 1.0, static_cast<double>(kMaxFlushDeadline.count()));
  return static_cast<std::uint64_t>(std::llround(us));
}

void PredictionService::gc_lanes() {
  // Garbage-collect lanes of erased handles so lanes_ does not grow forever
  // under handle churn.  The registry probe runs with the service mutex
  // held, so only bother once the map is big enough for unbounded growth to
  // matter; drained lanes of live handles keep their metrics.
  if (lanes_.size() < kGcMinLanes) return;
  for (auto it = lanes_.begin(); it != lanes_.end();) {
    if (it->second.queue.empty() && !registry_.resolve_id(it->first)) {
      it = lanes_.erase(it);
    } else {
      ++it;
    }
  }
}

void PredictionService::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    const Clock::time_point now = Clock::now();
    // One scan: the flushable lane whose oldest request has the earliest
    // deadline (interactive wins ties, then the lower id — lanes_ iterates
    // in id order), whether a second lane could flush too, and the earliest
    // deadline still ahead.  Ranking by the OLDEST request means a hot lane
    // that fills instantly still ranks by its (recent) front arrival, so an
    // expired cold lane always sorts ahead of it — the no-starvation
    // property.
    std::uint64_t id = 0;
    Lane* lane = nullptr;
    Clock::time_point deadline{};
    bool another_flushable = false;
    std::optional<Clock::time_point> next_deadline;
    for (auto& [lane_id, candidate] : lanes_) {
      if (candidate.queue.empty()) continue;
      const Clock::time_point due = candidate.queue.front().enqueued +
                                    std::chrono::microseconds(deadline_us(candidate.qos));
      if (candidate.queue.size() < options_.max_batch && due > now && !stopping_) {
        if (!next_deadline || due < *next_deadline) next_deadline = due;
        continue;
      }
      if (lane != nullptr) {
        another_flushable = true;
        if (due > deadline || (due == deadline && candidate.qos.qos >= lane->qos.qos)) continue;
      }
      id = lane_id;
      lane = &candidate;
      deadline = due;
    }

    if (lane == nullptr) {
      if (stopping_) return;  // every queue drained
      if (next_deadline) {
        work_cv_.wait_until(lock, *next_deadline);
      } else {
        work_cv_.wait(lock);
      }
      continue;
    }

    // Why the lane flushed, read off at dispatch: full beats past-deadline
    // beats stop().
    lane->metrics.batches += 1;
    if (lane->queue.size() >= options_.max_batch) {
      lane->metrics.coalesced += 1;
    } else if (deadline <= now) {
      lane->metrics.deadline_flushes += 1;
    } else {
      lane->metrics.drain_flushes += 1;
    }
    const std::size_t take = std::min(lane->queue.size(), options_.max_batch);
    std::vector<Request> batch;
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(lane->queue.front()));
      lane->queue.pop_front();
    }
    if (take > 1) lane->metrics.coalesced_requests += take;
    const std::uint64_t lag_us = saturating_us(now - deadline);
    lane->metrics.max_dispatch_lag_us = std::max(lane->metrics.max_dispatch_lag_us, lag_us);
    if (lag_us > kStarvationLagUs) lane->metrics.starved_flushes += 1;
    lane->metrics.queue_depth = lane->queue.size();
    // Leftover traffic that is still full (or draining) is more work too.
    const bool more_work = another_flushable || lane->queue.size() >= options_.max_batch ||
                           (stopping_ && !lane->queue.empty());
    if (++dispatches_ % kGcEveryDispatches == 0) gc_lanes();

    lock.unlock();
    space_cv_.notify_all();
    if (more_work) work_cv_.notify_one();  // wake a sibling
    std::vector<ServeResult<double>> results = run_batch(id, batch);
    // Count the responses BEFORE resolving the futures: a client that reads
    // metrics right after .get() must see its own response.  find(), not
    // operator[] — the lane may have been garbage-collected while the batch
    // ran, and resurrecting it would leave inconsistent metrics.
    lock.lock();
    if (const auto post = lanes_.find(id); post != lanes_.end()) {
      post->second.metrics.responses += take;
      // Enqueue-to-response latency, recorded before the futures resolve so
      // a client reading metrics after .get() sees its own sample.  The
      // histogram increment is allocation-free (flat counter array).
      const Clock::time_point done = Clock::now();
      for (const Request& request : batch) {
        post->second.latency.record(saturating_us(done - request.enqueued));
      }
    }
    lock.unlock();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i].promise.set_value(std::move(results[i]));
    }
    lock.lock();
  }
}

std::vector<ServeResult<double>> PredictionService::fail_batch(std::size_t size,
                                                               ServeStatus status,
                                                               const std::string& message) {
  std::vector<ServeResult<double>> results;
  results.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    results.push_back(ServeResult<double>::failure(status, message));
  }
  return results;
}

std::vector<ServeResult<double>> PredictionService::run_batch(
    std::uint64_t handle_id, const std::vector<Request>& batch) {
  const auto entry = registry_.resolve_id(handle_id);
  if (!entry) {
    return fail_batch(batch.size(), ServeStatus::kUnknownModel,
                      "model was erased while the request was queued");
  }

  // Copy the model pointer under the entry mutex and predict outside it: a
  // refit that swaps the model meanwhile leaves this batch on the weights it
  // started with, kept alive by the copy.
  const auto model = entry->current_model();
  if (!model) {
    return fail_batch(
        batch.size(), ServeStatus::kNotFitted,
        "'" + entry->key.str() + "' has no serveable model — publish or refit first");
  }

  std::vector<data::JobRun> queries;
  queries.reserve(batch.size());
  for (const Request& request : batch) queries.push_back(request.query);

  try {
    // One stacked forward pass for the whole micro-batch — bit-identical to
    // a per-request predict loop by the predict_batch contract.
    const std::vector<double> predictions = model->predict_batch(queries);
    std::vector<ServeResult<double>> results;
    results.reserve(batch.size());
    for (const double prediction : predictions) results.push_back(prediction);
    return results;
  } catch (const std::exception& e) {
    return fail_batch(batch.size(), ServeStatus::kInternalError,
                      "'" + entry->key.str() + "': batch forward failed: " + e.what());
  }
}

}  // namespace bellamy::serve

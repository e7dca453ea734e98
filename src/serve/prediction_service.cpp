#include "serve/prediction_service.hpp"

#include <algorithm>
#include <cmath>
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
  if (options_.flush_deadline_max.count() > 0 &&
      options_.flush_deadline_min > options_.flush_deadline_max) {
    options_.flush_deadline_min = options_.flush_deadline_max;
  }
  if (!(options_.ewma_alpha > 0.0) || options_.ewma_alpha > 1.0) options_.ewma_alpha = 0.2;
  if (!(options_.default_qos.weight > 0.0) || !std::isfinite(options_.default_qos.weight)) {
    options_.default_qos.weight = 1.0;
  }
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

  auto lane_for = [this](std::uint64_t id) -> Lane& {
    const auto [it, inserted] = lanes_.try_emplace(id);
    if (inserted) it->second.qos = options_.default_qos;
    return it->second;
  };

  std::unique_lock<std::mutex> lock(mutex_);
  // Bounded queue: block the producer until the dispatcher makes room.  The
  // lane is re-looked-up on every predicate evaluation — a drained lane may
  // be garbage-collected (and recreated) while we wait, so a held reference
  // could dangle.
  space_cv_.wait(lock, [&] {
    return stopping_ || lane_for(handle.id()).queue.size() < options_.max_queue;
  });
  if (stopping_) {
    lock.unlock();
    promise.set_value(
        ServeResult<double>::failure(ServeStatus::kShutdown, "service is stopping"));
    return future;
  }
  Lane& lane = lane_for(handle.id());
  const Clock::time_point now = Clock::now();
  // Inter-arrival EWMA: the signal the adaptive flush deadline feeds on.
  if (lane.saw_arrival) {
    const double ia_us =
        std::chrono::duration<double, std::micro>(now - lane.last_arrival).count();
    lane.ewma_interarrival_us =
        lane.ewma_interarrival_us == 0.0
            ? ia_us
            : options_.ewma_alpha * ia_us +
                  (1.0 - options_.ewma_alpha) * lane.ewma_interarrival_us;
  }
  lane.saw_arrival = true;
  lane.last_arrival = now;

  lane.queue.push_back(Request{query, std::move(promise), now});
  lane.metrics.requests += 1;
  lane.metrics.queue_depth = lane.queue.size();
  lane.metrics.max_queue_depth =
      std::max<std::uint64_t>(lane.metrics.max_queue_depth, lane.queue.size());
  if (!lane.ready) {
    if (lane.queue.size() >= options_.max_batch) {
      mark_ready(handle.id(), lane, FlushReason::kSize);
    } else if (lane.queue.size() == 1) {
      arm_timer(handle.id(), lane);
    }
  }
  lock.unlock();
  // Wake a worker either way: a new ready lane needs a dispatcher, a newly
  // armed deadline may be earlier than the one a worker is sleeping on.
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
  std::lock_guard<std::mutex> lock(mutex_);
  lanes_.try_emplace(handle.id()).first->second.qos = qos;
  return ok();
}

ServeResult<HandleQos> PredictionService::qos(const ModelHandle& handle) const {
  if (!registry_.resolve(handle)) {
    return ServeResult<HandleQos>::failure(ServeStatus::kUnknownModel,
                                           "qos: unknown model handle");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = lanes_.find(handle.id()); it != lanes_.end()) return it->second.qos;
  return options_.default_qos;
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
      out.effective_flush_deadline_us = effective_deadline_us(it->second);
      out.interarrival_ewma_us = it->second.ewma_interarrival_us;
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

std::uint64_t PredictionService::effective_deadline_us(const Lane& lane) const {
  double base_us = static_cast<double>(options_.flush_deadline.count());
  if (options_.flush_deadline_max.count() > 0) {
    const double min_us = static_cast<double>(options_.flush_deadline_min.count());
    const double max_us = static_cast<double>(options_.flush_deadline_max.count());
    if (lane.ewma_interarrival_us == 0.0) {
      // No inter-arrival sample yet: start from the static deadline, inside
      // the band.
      base_us = std::clamp(base_us, min_us, max_us);
    } else {
      // Expected time to fill the rest of a batch at the observed rate.  A
      // lane too slow to fill one inside the band gets the band FLOOR:
      // waiting longer would add latency without adding fill.
      const double expected_fill_us =
          lane.ewma_interarrival_us * static_cast<double>(options_.max_batch - 1);
      base_us = expected_fill_us > max_us ? min_us : std::max(expected_fill_us, min_us);
    }
  }
  double scaled = base_us / lane.qos.weight;
  // Aging cap: no matter how the band and weight stretch the deadline, a
  // capped lane never waits (nor ranks) worse than max_lag — the boost that
  // keeps down-weighted kBulk lanes live under extreme interactive load.
  if (lane.qos.max_lag.count() > 0) {
    scaled = std::min(scaled, static_cast<double>(lane.qos.max_lag.count()));
  }
  return static_cast<std::uint64_t>(std::llround(std::max(1.0, scaled)));
}

void PredictionService::mark_ready(std::uint64_t id, Lane& lane, FlushReason reason) {
  lane.ready = true;
  lane.reason = reason;
  ++lane.token;  // invalidate any armed timer entry
  // EDF rank: the deadline the lane's OLDEST request is entitled to.  A hot
  // lane that fills instantly still ranks by its (recent) front arrival, so
  // an expired cold lane always sorts ahead of it — the no-starvation
  // property.
  lane.virtual_deadline =
      lane.queue.front().enqueued + std::chrono::microseconds(effective_deadline_us(lane));
  ready_.push(HeapEntry{lane.virtual_deadline, static_cast<std::uint8_t>(lane.qos.qos), id,
                        lane.token});
}

void PredictionService::arm_timer(std::uint64_t id, Lane& lane) {
  ++lane.token;
  lane.virtual_deadline =
      lane.queue.front().enqueued + std::chrono::microseconds(effective_deadline_us(lane));
  timers_.push(HeapEntry{lane.virtual_deadline, static_cast<std::uint8_t>(lane.qos.qos), id,
                         lane.token});
}

std::optional<PredictionService::Clock::time_point> PredictionService::promote_expired(
    Clock::time_point now) {
  while (!timers_.empty()) {
    const HeapEntry top = timers_.top();
    const auto it = lanes_.find(top.lane_id);
    // Lazy deletion: the token bumps whenever the lane's front (and so its
    // deadline) changed after this entry was pushed.
    if (it == lanes_.end() || it->second.token != top.token || it->second.ready ||
        it->second.queue.empty()) {
      timers_.pop();
      continue;
    }
    if (top.when > now) return top.when;  // earliest live deadline, still ahead
    timers_.pop();
    mark_ready(top.lane_id, it->second, FlushReason::kDeadline);
  }
  return std::nullopt;
}

void PredictionService::gc_lanes() {
  // Garbage-collect lanes of erased handles so lanes_ does not grow forever
  // under handle churn.  The registry probe runs with the service mutex
  // held, so only bother once the map is big enough for unbounded growth to
  // matter; drained lanes of live handles keep their metrics.
  if (lanes_.size() < kGcMinLanes) return;
  for (auto it = lanes_.begin(); it != lanes_.end();) {
    if (it->second.queue.empty() && !it->second.ready && !registry_.resolve_id(it->first)) {
      it = lanes_.erase(it);  // heap entries for this id go stale and get skipped
    } else {
      ++it;
    }
  }
}

void PredictionService::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    const Clock::time_point now = Clock::now();
    const std::optional<Clock::time_point> next_deadline = promote_expired(now);
    if (stopping_) {
      // Drain: every waiting lane flushes now, deadlines notwithstanding.
      for (auto& [id, lane] : lanes_) {
        if (!lane.ready && !lane.queue.empty()) mark_ready(id, lane, FlushReason::kDrain);
      }
    }

    if (!ready_.empty()) {
      const HeapEntry top = ready_.top();
      ready_.pop();
      const auto it = lanes_.find(top.lane_id);
      if (it == lanes_.end() || !it->second.ready || it->second.token != top.token ||
          it->second.queue.empty()) {
        continue;  // stale entry (lane dispatched, re-ranked, or collected)
      }
      Lane& lane = it->second;
      const std::size_t take = std::min(lane.queue.size(), options_.max_batch);
      std::vector<Request> batch;
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(lane.queue.front()));
        lane.queue.pop_front();
      }
      lane.metrics.batches += 1;
      switch (lane.reason) {
        case FlushReason::kSize: lane.metrics.coalesced += 1; break;
        case FlushReason::kDeadline: lane.metrics.deadline_flushes += 1; break;
        case FlushReason::kDrain: lane.metrics.drain_flushes += 1; break;
      }
      if (take > 1) lane.metrics.coalesced_requests += take;
      const std::uint64_t lag_us = saturating_us(now - lane.virtual_deadline);
      lane.metrics.max_dispatch_lag_us =
          std::max(lane.metrics.max_dispatch_lag_us, lag_us);
      if (lag_us > static_cast<std::uint64_t>(options_.starvation_lag.count())) {
        lane.metrics.starved_flushes += 1;
      }
      lane.metrics.queue_depth = lane.queue.size();
      lane.ready = false;
      ++lane.token;
      if (!lane.queue.empty()) {
        // Leftover traffic re-enters the scheduler under the lane's NEW
        // front: full again -> ready now, else re-arm its deadline.
        if (lane.queue.size() >= options_.max_batch) {
          mark_ready(top.lane_id, lane, FlushReason::kSize);
        } else if (stopping_) {
          mark_ready(top.lane_id, lane, FlushReason::kDrain);
        } else {
          arm_timer(top.lane_id, lane);
        }
      }
      if (++dispatches_ % kGcEveryDispatches == 0) gc_lanes();
      // Read the heap before unlocking — it is mutex_-guarded state.
      const bool more_ready = !ready_.empty();

      lock.unlock();
      space_cv_.notify_all();
      if (more_ready) work_cv_.notify_one();  // more work: wake a sibling
      std::vector<ServeResult<double>> results = run_batch(top.lane_id, batch);
      // Count the responses BEFORE resolving the futures: a client that
      // reads metrics right after .get() must see its own response.  find(),
      // not operator[] — the lane may have been garbage-collected while the
      // batch ran, and resurrecting it would leave inconsistent metrics.
      lock.lock();
      if (const auto post = lanes_.find(top.lane_id); post != lanes_.end()) {
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
      continue;
    }

    if (stopping_) return;  // nothing ready and every queue drained
    if (next_deadline) {
      work_cv_.wait_until(lock, *next_deadline);
    } else {
      work_cv_.wait(lock);
    }
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

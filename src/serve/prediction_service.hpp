#pragma once
// PredictionService: the concurrent front door of the serve layer.
//
// N client threads call predict(handle, query) (or predict_async for a
// future).  Requests land in a bounded per-handle lane; dispatcher workers
// coalesce whatever is pending into a micro-batch and flush it when either
// the batch is full (max_batch) or the lane's flush deadline expires.  A
// micro-batch executes ONE stacked forward pass on the handle's current
// model — a shared_ptr to an immutable BellamyModel, copied under the entry
// mutex — so
//
//   * concurrent callers share forward passes instead of serializing on a
//     model mutex (a batch of k requests costs ~1 forward, not k), and any
//     number of workers predict on one model at once (inference is const),
//     and
//   * a registry refit hot-swaps weights between micro-batches: the swap
//     installs a fresh pointer, the next batch serves the new weights, and
//     in-flight batches finish on the old ones, which their pointer copy
//     keeps alive.
//
// Scheduling (see docs/ARCHITECTURE.md) follows one rule: a lane may flush
// when it is FULL (max_batch pending), when its OLDEST request is past the
// lane's flush deadline, or when the service is stopping.
//
//   * QoS LANES: every lane carries a HandleQos (kInteractive/kBulk class +
//     weight).  The lane's deadline is flush_deadline / weight, capped by
//     max_lag and by kMaxFlushDeadline, so urgent lanes flush sooner and
//     rank earlier.
//   * CROSS-HANDLE DISPATCH: a free worker scans the lanes and takes the
//     flushable one whose oldest request has the earliest deadline
//     (interactive wins ties, then the lower handle id).  The deadline grows
//     from the OLDEST request's arrival, so a saturated hot lane — whose
//     front is always recent — can never starve a cold lane whose deadline
//     has expired.  Dispatch lag past the deadline is metered
//     (max_dispatch_lag_us / starved_flushes).  With no flushable lane the
//     worker sleeps until the earliest pending deadline.
//
// Coalescing is bit-transparent: predict_batch is certified bit-identical to
// the per-sample loop, and a model built from a checkpoint predicts
// bit-identically to its source — so the value a request receives does not
// depend on which micro-batch it rode in (tests/serve/
// test_prediction_service.cpp soaks this under 8+ client threads).
//
// When the queue is full, producers block (backpressure) rather than drop;
// stop() drains every queue before joining the workers, so no accepted
// request is ever lost.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "data/record.hpp"
#include "serve/latency_histogram.hpp"
#include "serve/model_registry.hpp"
#include "serve/serve_result.hpp"

namespace bellamy::serve {

/// Ceiling of any lane's flush deadline.  A tiny QoS weight would otherwise
/// stretch flush_deadline / weight past what steady_clock can represent.
inline constexpr std::chrono::microseconds kMaxFlushDeadline = std::chrono::hours(1);

/// A batch dispatched more than this many microseconds past its deadline
/// counts as starved (ServeMetrics::starved_flushes).  Purely diagnostic.
inline constexpr std::uint64_t kStarvationLagUs = 10000;

/// QoS class of a lane.  The class picks the tie-break between two lanes
/// whose deadlines collide and documents intent; the weight does the
/// quantitative work (see HandleQos::weight).
enum class QosClass : std::uint8_t {
  kInteractive = 0,  ///< latency-sensitive traffic; wins deadline ties
  kBulk = 1,         ///< throughput traffic; happy to coalesce
};

/// Returns a stable lowercase name ("interactive" / "bulk") for logs and
/// bench output.
const char* to_string(QosClass qos);

/// Per-handle scheduling policy, set via PredictionService::set_qos().
struct HandleQos {
  /// Scheduling class; defaults to interactive (the pre-QoS behavior).
  QosClass qos = QosClass::kInteractive;
  /// Urgency multiplier, > 0.  The lane's flush deadline is DIVIDED by the
  /// weight, so weight 4 flushes (and ranks) 4x sooner and weight 0.5 is
  /// content to wait twice as long.  1.0 = neutral.
  double weight = 1.0;
  /// Aging boost: a hard ceiling on the lane's flush deadline, applied AFTER
  /// the weight division (0 = disabled).  A small weight stretches a
  /// down-weighted kBulk lane's deadline far out; max_lag guarantees the
  /// lane ranks no worse than a request that has already waited this long,
  /// bounding its dispatch lag.
  std::chrono::microseconds max_lag{0};
};

/// Tunables of a PredictionService, fixed at construction.
struct ServeOptions {
  /// Flush a micro-batch at this many pending requests.  1 disables
  /// coalescing (every request runs its own forward pass).
  std::size_t max_batch = 64;
  /// Bounded queue capacity per handle; producers block when it is full.
  std::size_t max_queue = 1024;
  /// Flush a partial batch once its oldest request has waited this long
  /// (divided by the lane's QoS weight, see HandleQos).
  std::chrono::microseconds flush_deadline{500};
  /// Dispatcher threads executing micro-batches (>= 1).
  std::size_t workers = 1;
};

/// Per-handle serving counters.  A snapshot; not synchronized with in-flight
/// requests beyond the service mutex.
///
/// Accounting invariants (held whenever the lane is drained, certified by
/// tests/serve/test_prediction_service.cpp):
///
///   requests  == responses                       (nothing lost or invented)
///   coalesced + deadline_flushes + drain_flushes == batches
///
/// `coalesced` counts SIZE-triggered flushes (the batch filled to
/// max_batch), `deadline_flushes` counts deadline-triggered partial flushes,
/// `drain_flushes` counts batches pushed out by stop().  Requests that
/// shared a batch with others are tallied separately in coalesced_requests.
struct ServeMetrics {
  std::uint64_t requests = 0;            ///< accepted into the queue
  std::uint64_t responses = 0;           ///< futures fulfilled (ok or error)
  std::uint64_t batches = 0;             ///< micro-batches executed
  std::uint64_t coalesced = 0;           ///< batches flushed full (size-triggered)
  std::uint64_t deadline_flushes = 0;    ///< partial batches flushed by deadline
  std::uint64_t drain_flushes = 0;       ///< batches flushed by stop() drain
  std::uint64_t coalesced_requests = 0;  ///< requests that shared a batch with others
  std::uint64_t max_queue_depth = 0;     ///< high-water mark of the pending queue
  std::uint64_t queue_depth = 0;         ///< pending requests right now
  /// Retired: always 0.  They counted a per-handle model-replica pool that
  /// no longer exists (inference is const, so every batch reads the one
  /// shared model).  Kept so the v2 MetricsResponse bytes pinned by
  /// tests/net/test_wire_golden.cpp, and the readers of those bytes, stay
  /// unchanged; removing them belongs to a metrics-registry change.
  std::uint64_t replica_hits = 0;
  std::uint64_t replica_misses = 0;
  std::uint64_t replica_invalidations = 0;

  // -- scheduler introspection (PR 5) --
  /// Flush deadline of the lane's oldest request: flush_deadline / weight,
  /// capped by HandleQos::max_lag and kMaxFlushDeadline.
  std::uint64_t effective_flush_deadline_us = 0;
  /// Retired: always 0.  It was the inter-arrival EWMA of an adaptive flush
  /// deadline that no longer exists; kept so the v2 MetricsResponse bytes
  /// stay unchanged, like the replica_* counters above.
  double interarrival_ewma_us = 0.0;
  /// Worst observed dispatch lag: how far past its deadline a batch of this
  /// lane started executing.  Bounded lag == no starvation.
  std::uint64_t max_dispatch_lag_us = 0;
  /// Batches whose dispatch lag exceeded kStarvationLagUs.
  std::uint64_t starved_flushes = 0;

  // -- request-latency percentiles (PR 6) --
  /// Enqueue-to-response latency quantiles from the lane's fixed-bucket
  /// log-scale histogram (serve/latency_histogram.hpp): zero allocation on
  /// the hot path, <= 12.5% relative bucket error.  0 until the first
  /// response.  These feed the wire MetricsResponse and the admin `stats`
  /// console.
  std::uint64_t latency_count = 0;  ///< responses measured into the histogram
  std::uint64_t latency_p50_us = 0;
  std::uint64_t latency_p95_us = 0;
  std::uint64_t latency_p99_us = 0;

  // -- drift monitoring + refit economics (PR 9) --
  /// Relative-prediction-error EWMA over runs reported via report_run
  /// (serve::DriftMonitor); 0 until the first report.
  double drift_error_ewma = 0.0;
  std::uint64_t drift_reports = 0;  ///< observed runs reported for this handle
  std::uint64_t drift_refits = 0;   ///< refits auto-queued by drift detection
  /// Training-data reduction counters from the registry entry: refits that
  /// ran with an active ReductionConfig, cumulative runs they dropped, and
  /// the coreset size of the latest one.
  std::uint64_t reductions = 0;
  std::uint64_t reduction_runs_dropped = 0;
  std::uint64_t reduction_last_kept = 0;

  /// Mean requests per executed micro-batch (0 before the first batch).
  double mean_batch_fill() const {
    return batches == 0 ? 0.0 : static_cast<double>(responses) / static_cast<double>(batches);
  }
};

/// Thread-safe micro-batching prediction front end over a ModelRegistry.
///
/// Thread-safety contract: every public member may be called concurrently
/// from any thread.  predict()/predict_many() block (on the micro-batch, and
/// on backpressure when the lane is full); predict_async() blocks only on
/// backpressure.  stop() is idempotent and drains accepted requests before
/// joining the workers; the destructor calls it.
class PredictionService {
 public:
  /// The registry must outlive the service.
  explicit PredictionService(ModelRegistry& registry, ServeOptions options = {});
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  /// Blocking predict: enqueue, wait for the micro-batch carrying it.
  ServeResult<double> predict(const ModelHandle& handle, const data::JobRun& query);

  /// Enqueue and return immediately; the future resolves when the request's
  /// micro-batch executes.  Always returns a valid future (errors travel
  /// through it).
  std::future<ServeResult<double>> predict_async(const ModelHandle& handle,
                                                 const data::JobRun& query);

  /// Enqueue all queries (they coalesce like any other traffic) and wait.
  /// Fails with the first per-request error if any; an empty batch is ok.
  ServeResult<std::vector<double>> predict_many(const ModelHandle& handle,
                                                const std::vector<data::JobRun>& queries);

  /// Set the handle's scheduling policy (class + weight); takes effect at
  /// the next dispatch decision.  Fails with kUnknownModel for a retired
  /// handle and kInvalidArgument for a non-positive/non-finite weight.
  ServeResult<Unit> set_qos(const ModelHandle& handle, HandleQos qos);

  /// The handle's current scheduling policy (HandleQos{} until set_qos).
  ServeResult<HandleQos> qos(const ModelHandle& handle) const;

  /// Serving counters for one handle (zeroed until its first request).
  ServeResult<ServeMetrics> metrics(const ModelHandle& handle) const;

  /// Drain every queue, then stop the workers.  Requests arriving after
  /// stop() fail with kShutdown.  Idempotent; the destructor calls it.
  void stop();

  const ServeOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    data::JobRun query;
    std::promise<ServeResult<double>> promise;
    Clock::time_point enqueued;
  };

  /// Pending traffic of one handle.
  struct Lane {
    std::deque<Request> queue;
    ServeMetrics metrics;
    LatencyHistogram latency;  ///< enqueue-to-response, microseconds
    HandleQos qos;
  };

  void worker_loop();
  /// Flush deadline of a lane with this policy, in microseconds: the static
  /// deadline divided by the weight, capped by max_lag and kMaxFlushDeadline;
  /// always >= 1.
  std::uint64_t deadline_us(const HandleQos& qos) const;
  /// Garbage-collect drained lanes of erased handles.  Caller holds the
  /// service mutex.
  void gc_lanes();
  /// Execute one micro-batch outside the service mutex; returns one result
  /// per request (the caller resolves the promises after counting them).
  std::vector<ServeResult<double>> run_batch(std::uint64_t handle_id,
                                             const std::vector<Request>& batch);
  static std::vector<ServeResult<double>> fail_batch(std::size_t size, ServeStatus status,
                                                     const std::string& message);

  ModelRegistry& registry_;
  ServeOptions options_;

  mutable std::mutex mutex_;
  std::mutex stop_mutex_;             ///< serializes stop() (join is not reentrant)
  std::condition_variable work_cv_;   ///< signals workers: traffic or stop
  std::condition_variable space_cv_;  ///< signals producers: queue has room
  std::map<std::uint64_t, Lane> lanes_;
  std::uint64_t dispatches_ = 0;      ///< total batches taken (drives lane GC cadence)
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace bellamy::serve

#pragma once
// DriftMonitor: online prediction-error tracking + drift-triggered refits.
//
// Serving answers "how long will this run take"; the cluster eventually
// answers back with the measured runtime.  report() closes that loop (the
// wire path is ReportRunRequest): the monitor predicts the reported run with
// the handle's CURRENT weights, folds the relative error into a per-handle
// EWMA, and keeps the observed run in a bounded history.  When the EWMA
// degrades past `threshold` the monitor auto-queues ONE background refit
// over that history via ModelRegistry::refit_async — the entry's
// ReductionConfig bounds the fine-tune cost, the hot-swap/kConflict
// semantics are untouched, and a latch guarantees exactly one trigger per
// degradation episode: it re-arms only after the EWMA falls back below the
// threshold (a healthy model pulls it down; a refit storm cannot form).
//
// Enel (arXiv 2108.12211) motivates the shape: react to changing cluster
// conditions when they are OBSERVED, not on a fixed refit cadence.
//
// Thread-safe; report() is called from server connection threads.  The
// registry must outlive the monitor.

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "core/trainer.hpp"
#include "core/variants.hpp"
#include "data/record.hpp"
#include "serve/model_registry.hpp"
#include "serve/prediction_service.hpp"
#include "serve/serve_result.hpp"

namespace bellamy::serve {

struct DriftOptions {
  /// EWMA smoothing factor in (0, 1]; the first report seeds the EWMA.
  double ewma_alpha = 0.2;
  /// Relative-error level that queues a refit; 0 = monitor only (never
  /// triggers, still tracks).
  double threshold = 0.0;
  /// Reports required before the threshold is consulted — one unlucky
  /// first observation must not refit.
  std::uint64_t min_reports = 8;
  /// Observed runs kept per handle (oldest dropped); the triggered refit
  /// trains on this window.
  std::size_t history_limit = 4096;
  /// Fine-tune recipe of triggered refits.
  core::FineTuneConfig finetune;
  core::ReuseStrategy strategy = core::ReuseStrategy::kPartialUnfreeze;
};

/// What one report() observed (also the wire ReportRunResponse payload).
struct DriftObservation {
  double error_ewma = 0.0;
  std::uint64_t reports = 0;
  bool refit_triggered = false;  ///< THIS report crossed the threshold
};

/// Per-handle counters for stats consoles and tests.
struct DriftStats {
  double error_ewma = 0.0;
  std::uint64_t reports = 0;
  std::uint64_t refits = 0;  ///< refits this monitor auto-queued
  bool armed = true;         ///< false while latched inside an episode
};

class DriftMonitor {
 public:
  explicit DriftMonitor(ModelRegistry& registry, DriftOptions options = {});

  DriftMonitor(const DriftMonitor&) = delete;
  DriftMonitor& operator=(const DriftMonitor&) = delete;

  /// Feed one observed run back: predict it with the handle's current
  /// weights, update the error EWMA, remember the run, maybe trigger a
  /// refit.  kUnknownModel / kNotFitted for handles that cannot predict.
  ServeResult<DriftObservation> report(const ModelHandle& handle, const data::JobRun& run);

  /// Counters of the handle (zeroed when it never reported).
  DriftStats stats(const ModelHandle& handle) const;

  /// Copy drift counters into a ServeMetrics snapshot (leaves every other
  /// field alone).
  void annotate(const ModelHandle& handle, ServeMetrics& metrics) const;

  /// The bounded observed-run window a triggered refit would train on.
  std::vector<data::JobRun> history(const ModelHandle& handle) const;

  const DriftOptions& options() const { return options_; }

 private:
  struct State {
    double ewma = 0.0;
    std::uint64_t reports = 0;
    std::uint64_t refits = 0;
    bool latched = false;  ///< an episode's refit already fired
    std::vector<data::JobRun> history;
  };

  ModelRegistry& registry_;
  const DriftOptions options_;
  mutable std::mutex mutex_;
  std::map<std::uint64_t, State> states_;
};

/// One model's metrics snapshot, as the wire MetricsRequest and a stats
/// console report it: the service's serving counters, the drift counters of
/// `drift` (left zero when null) and the registry entry's reduction counters.
/// Fails as PredictionService::metrics does for an unknown handle.
ServeResult<ServeMetrics> model_metrics(const PredictionService& service,
                                        const ModelRegistry& registry, const DriftMonitor* drift,
                                        const ModelHandle& handle);

}  // namespace bellamy::serve

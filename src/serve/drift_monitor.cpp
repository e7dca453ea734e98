#include "serve/drift_monitor.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace bellamy::serve {

namespace {

/// Relative error with a floor so near-zero observed runtimes cannot blow
/// the EWMA up to infinity.
double relative_error(double predicted, double observed) {
  const double denom = std::max(std::abs(observed), 1.0);
  return std::abs(predicted - observed) / denom;
}

}  // namespace

DriftMonitor::DriftMonitor(ModelRegistry& registry, DriftOptions options)
    : registry_(registry), options_(std::move(options)) {}

ServeResult<DriftObservation> DriftMonitor::report(const ModelHandle& handle,
                                                   const data::JobRun& run) {
  // A NaN runtime would poison the EWMA for good (NaN > threshold is false),
  // silently disarming drift detection for the handle.
  if (!std::isfinite(run.runtime_s)) {
    return ServeResult<DriftObservation>::failure(ServeStatus::kInvalidArgument,
                                                  "report_run: runtime_s must be finite");
  }
  const auto entry = registry_.resolve(handle);
  if (!entry) {
    return ServeResult<DriftObservation>::failure(ServeStatus::kUnknownModel,
                                                  "report_run: unknown handle");
  }

  // Predict with the handle's CURRENT weights, as serving does: copy the
  // model pointer under the entry mutex, run the forward pass outside it.
  const auto model = entry->current_model();
  if (!model) {
    return ServeResult<DriftObservation>::failure(
        ServeStatus::kNotFitted, "report_run '" + entry->key.str() + "': no serveable model");
  }
  double predicted = 0.0;
  try {
    predicted = model->predict_one(run);
  } catch (const std::exception& e) {
    return ServeResult<DriftObservation>::failure(
        ServeStatus::kInternalError,
        "report_run '" + entry->key.str() + "': " + e.what());
  }

  const double error = relative_error(predicted, run.runtime_s);

  DriftObservation observation;
  std::vector<data::JobRun> refit_runs;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    State& state = states_[handle.id()];
    state.reports += 1;
    state.ewma = state.reports == 1
                     ? error
                     : options_.ewma_alpha * error + (1.0 - options_.ewma_alpha) * state.ewma;
    state.history.push_back(run);
    if (state.history.size() > options_.history_limit) {
      state.history.erase(state.history.begin(),
                          state.history.end() - static_cast<std::ptrdiff_t>(
                                                    options_.history_limit));
    }
    const bool degraded = options_.threshold > 0.0 &&
                          state.reports >= options_.min_reports &&
                          state.ewma > options_.threshold;
    if (degraded && !state.latched) {
      // Exactly once per episode: latch BEFORE queueing, re-arm only below.
      state.latched = true;
      state.refits += 1;
      observation.refit_triggered = true;
      refit_runs = state.history;
    } else if (!degraded && state.latched && state.ewma <= options_.threshold) {
      state.latched = false;  // error recovered: the episode is over
    }
    observation.error_ewma = state.ewma;
    observation.reports = state.reports;
  }

  if (observation.refit_triggered) {
    // Outside the monitor mutex: refit_async takes the entry mutex and must
    // never nest under ours.  The entry's ReductionConfig bounds the cost.
    registry_.refit_async(handle, std::move(refit_runs), options_.finetune,
                          options_.strategy);
  }
  return observation;
}

DriftStats DriftMonitor::stats(const ModelHandle& handle) const {
  std::lock_guard<std::mutex> lock(mutex_);
  DriftStats out;
  const auto it = states_.find(handle.id());
  if (it == states_.end()) return out;
  out.error_ewma = it->second.ewma;
  out.reports = it->second.reports;
  out.refits = it->second.refits;
  out.armed = !it->second.latched;
  return out;
}

void DriftMonitor::annotate(const ModelHandle& handle, ServeMetrics& metrics) const {
  const DriftStats s = stats(handle);
  metrics.drift_error_ewma = s.error_ewma;
  metrics.drift_reports = s.reports;
  metrics.drift_refits = s.refits;
}

std::vector<data::JobRun> DriftMonitor::history(const ModelHandle& handle) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = states_.find(handle.id());
  return it == states_.end() ? std::vector<data::JobRun>{} : it->second.history;
}

}  // namespace bellamy::serve

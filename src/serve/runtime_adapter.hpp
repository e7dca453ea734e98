#pragma once
// Legacy-boundary wrappers: drive any data::RuntimeModel (NNLS, Bell,
// Bellamy) with typed outcomes instead of
// catch-as-control-flow — a fit rejected as degenerate or a query outside a
// model's domain comes back as a ServeStatus, not a std::exception.  The
// eval harness runs its contenders through these; deliberately a leaf
// header (no registry/service includes) so that dependency stays cheap.

#include <vector>

#include "data/record.hpp"
#include "data/runtime_model.hpp"
#include "serve/serve_result.hpp"

namespace bellamy::serve {

/// Fit `model` on `runs`; kInvalidArgument for a rejected/degenerate fit,
/// kInternalError for anything else the model layer throws.
ServeResult<Unit> try_fit(data::RuntimeModel& model, const std::vector<data::JobRun>& runs);
/// Predict one query; kNotFitted when the model has not been fitted yet.
ServeResult<double> try_predict(data::RuntimeModel& model, const data::JobRun& query);
/// Predict a batch (one stacked pass for models that support it); same
/// error mapping as try_predict.
ServeResult<std::vector<double>> try_predict_batch(data::RuntimeModel& model,
                                                   const std::vector<data::JobRun>& queries);

}  // namespace bellamy::serve

#pragma once
// Common interface for every runtime predictor evaluated in the paper:
// the NNLS/Ernest parametric baseline, the Bell model-selection baseline and
// the Bellamy variants.  A model is fit on observed JobRuns (typically from
// one concrete context) and queried with JobRuns whose runtime_s is ignored.

#include <memory>
#include <vector>

#include "data/record.hpp"

namespace bellamy::data {

class RuntimeModel {
 public:
  virtual ~RuntimeModel() = default;

  /// Fit on the given runs.  Throws std::invalid_argument if there are
  /// fewer than min_training_points() samples.
  virtual void fit(const std::vector<JobRun>& runs) = 0;

  /// Predict the runtime (seconds) of every query's context and scale-out.
  /// Returns one value per query, in order; an empty batch yields an empty
  /// vector.  A query is answered the same whether it is asked alone or in
  /// a batch.
  virtual std::vector<double> predict_batch(const std::vector<JobRun>& queries) = 0;

  /// Smallest number of samples fit() accepts. 0 means the model can be
  /// used without any context data (a pre-trained Bellamy model).
  virtual std::size_t min_training_points() const = 0;
};

using RuntimeModelPtr = std::unique_ptr<RuntimeModel>;

}  // namespace bellamy::data

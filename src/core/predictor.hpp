#pragma once
// RuntimeModel adapter around Bellamy so the evaluation harness can compare
// it head-to-head with the NNLS / Bell baselines.
//
// Every fit() starts from the same initial state — the stored pre-trained
// checkpoint, or a deterministic fresh initialization for the local variant —
// so repeated cross-validation splits are independent.  A pre-trained
// predictor accepts fit() with zero runs (extrapolation at 0 data points).

#include <memory>
#include <optional>
#include <string>

#include "core/bellamy_model.hpp"
#include "core/trainer.hpp"
#include "core/variants.hpp"
#include "data/runtime_model.hpp"
#include "nn/serialize.hpp"

namespace bellamy::core {

class BellamyPredictor : public data::RuntimeModel {
 public:
  /// Local variant: fresh model per fit, seeded deterministically.
  BellamyPredictor(BellamyConfig model_config, FineTuneConfig finetune_config,
                   std::uint64_t seed, std::string name = "Bellamy(local)");

  /// Pre-trained variant: every fit restarts from this model's checkpoint and
  /// applies the given reuse strategy before fine-tuning.
  BellamyPredictor(const BellamyModel& pretrained, FineTuneConfig finetune_config,
                   ReuseStrategy strategy = ReuseStrategy::kPartialUnfreeze,
                   std::string name = "Bellamy(pretrained)");

  /// Pre-trained variant from a stored checkpoint, shared rather than
  /// copied.  This is the cheap constructor for fan-out paths that build
  /// many predictors from one pre-training run (threaded split evaluation):
  /// no model is materialized until fit().
  BellamyPredictor(std::shared_ptr<const nn::Checkpoint> pretrained_checkpoint,
                   FineTuneConfig finetune_config,
                   ReuseStrategy strategy = ReuseStrategy::kPartialUnfreeze,
                   std::string name = "Bellamy(pretrained)");

  void fit(const std::vector<data::JobRun>& runs) override;
  double predict(const data::JobRun& query) override;
  /// One stacked forward pass through the fitted network for all queries.
  std::vector<double> predict_batch(const std::vector<data::JobRun>& queries) override;
  std::size_t min_training_points() const override { return pretrained_ ? 0 : 1; }
  std::string name() const override { return name_; }

  /// Statistics of the most recent fit (epochs, wall time, best MAE).
  const FineTuneResult& last_fit() const { return last_fit_; }
  /// Access the fitted model.  Throws std::runtime_error when fit() was
  /// never called (the optional holding the model is empty until then).
  BellamyModel& model();
  const BellamyModel& model() const;

 private:
  /// Throws a descriptive std::runtime_error if fit() was never called.
  const BellamyModel& fitted_model(const char* caller) const;
  BellamyModel& fitted_model(const char* caller);

  BellamyConfig model_config_;
  FineTuneConfig finetune_config_;
  ReuseStrategy strategy_ = ReuseStrategy::kPartialUnfreeze;
  std::shared_ptr<const nn::Checkpoint> pretrained_checkpoint_;
  bool pretrained_ = false;
  std::uint64_t seed_ = 0;
  std::string name_;
  std::optional<BellamyModel> model_;
  FineTuneResult last_fit_;
};

}  // namespace bellamy::core

#include "core/predictor.hpp"

#include <stdexcept>
#include <utility>

#include "util/timer.hpp"

namespace bellamy::core {

BellamyPredictor::BellamyPredictor(BellamyConfig model_config, FineTuneConfig finetune_config,
                                   std::uint64_t seed, std::string name)
    : model_config_(model_config),
      finetune_config_(finetune_config),
      pretrained_(false),
      seed_(seed),
      name_(std::move(name)) {
  // The local variant trains f and z together from scratch — the staged
  // unlock only makes sense when z sits on top of a pre-trained f.
  finetune_config_.unlock_f_immediately = true;
}

BellamyPredictor::BellamyPredictor(const BellamyModel& pretrained,
                                   FineTuneConfig finetune_config, ReuseStrategy strategy,
                                   std::string name)
    : model_config_(pretrained.config()),
      finetune_config_(finetune_config),
      strategy_(strategy),
      pretrained_checkpoint_(std::make_shared<const nn::Checkpoint>(pretrained.to_checkpoint())),
      pretrained_(true),
      name_(std::move(name)) {}

BellamyPredictor::BellamyPredictor(std::shared_ptr<const nn::Checkpoint> pretrained_checkpoint,
                                   FineTuneConfig finetune_config, ReuseStrategy strategy,
                                   std::string name)
    : finetune_config_(finetune_config),
      strategy_(strategy),
      pretrained_checkpoint_(std::move(pretrained_checkpoint)),
      pretrained_(true),
      name_(std::move(name)) {
  if (!pretrained_checkpoint_) {
    throw std::invalid_argument("BellamyPredictor: null pretrained checkpoint");
  }
}

void BellamyPredictor::fit(const std::vector<data::JobRun>& runs) {
  util::Timer timer;
  if (pretrained_) {
    model_.emplace(BellamyModel::from_checkpoint(*pretrained_checkpoint_));
    last_fit_ = reuse_pretrained(*model_, runs, strategy_, finetune_config_);
  } else {
    if (runs.empty()) {
      throw std::invalid_argument("BellamyPredictor(local)::fit: needs >= 1 training point");
    }
    model_.emplace(model_config_, seed_);
    last_fit_ = finetune(*model_, runs, finetune_config_);
  }
  last_fit_.fit_seconds = timer.seconds();
}

double BellamyPredictor::predict(const data::JobRun& query) {
  return fitted_model("predict").predict_one(query);
}

std::vector<double> BellamyPredictor::predict_batch(const std::vector<data::JobRun>& queries) {
  return fitted_model("predict_batch").predict_batch(queries);
}

BellamyModel& BellamyPredictor::model() { return fitted_model("model"); }

const BellamyModel& BellamyPredictor::model() const { return fitted_model("model"); }

const BellamyModel& BellamyPredictor::fitted_model(const char* caller) const {
  if (!model_) {
    // Dereferencing the empty optional here would be UB; fail loudly with
    // enough context to identify the offending predictor.
    throw std::runtime_error("BellamyPredictor::" + std::string(caller) + ": '" + name_ +
                             "' has no fitted model — call fit() first");
  }
  return *model_;
}

BellamyModel& BellamyPredictor::fitted_model(const char* caller) {
  return const_cast<BellamyModel&>(std::as_const(*this).fitted_model(caller));
}

}  // namespace bellamy::core

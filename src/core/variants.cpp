#include "core/variants.hpp"

#include <stdexcept>

namespace bellamy::core {

const char* strategy_name(ReuseStrategy s) {
  switch (s) {
    case ReuseStrategy::kPartialUnfreeze: return "partial-unfreeze";
    case ReuseStrategy::kFullUnfreeze: return "full-unfreeze";
    case ReuseStrategy::kPartialReset: return "partial-reset";
    case ReuseStrategy::kFullReset: return "full-reset";
  }
  return "?";
}

data::Dataset pretraining_corpus(PretrainScenario scenario, const data::Dataset& history,
                                 const data::JobRun& target_context) {
  switch (scenario) {
    case PretrainScenario::kLocal:
      return data::Dataset{};
    case PretrainScenario::kFull:
      return history.filter_algorithm(target_context.algorithm)
          .exclude_context(target_context.context_key());
    case PretrainScenario::kFiltered:
      return history.filter_dissimilar(target_context)
          .exclude_context(target_context.context_key());
  }
  throw std::invalid_argument("pretraining_corpus: unknown scenario");
}

FineTuneConfig apply_reuse_strategy(ReuseStrategy strategy, BellamyModel& model,
                                    FineTuneConfig base) {
  switch (strategy) {
    case ReuseStrategy::kPartialUnfreeze:
      base.unlock_f_immediately = false;
      break;
    case ReuseStrategy::kFullUnfreeze:
      base.unlock_f_immediately = true;
      break;
    case ReuseStrategy::kPartialReset:
      model.reinit_z();
      base.unlock_f_immediately = false;
      break;
    case ReuseStrategy::kFullReset:
      model.reinit_f();
      model.reinit_z();
      base.unlock_f_immediately = true;  // both components must relearn
      break;
  }
  return base;
}

FineTuneResult reuse_pretrained(BellamyModel& model, const std::vector<data::JobRun>& runs,
                                ReuseStrategy strategy, const FineTuneConfig& config) {
  // Paper: "a pre-trained Bellamy model can be directly applied in a new
  // context without any seen data points" — a reset here would serve
  // untrained weights.
  if (runs.empty()) return FineTuneResult{};
  return finetune(model, runs, apply_reuse_strategy(strategy, model, config));
}

}  // namespace bellamy::core

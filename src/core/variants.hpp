#pragma once
// The paper's model variants.
//
// Pre-training scenarios (§IV-C.1):
//   local    — no pre-training (auto-encoder untrained, f/z fit from scratch)
//   filtered — pre-train only on maximally different contexts of the same job
//   full     — pre-train on all other contexts of the same job
//
// Reuse strategies for cross-environment transfer (§IV-C.2):
//   partial-unfreeze — adapt z first, f later (the default fine-tune policy)
//   full-unfreeze    — adapt f and z from the start
//   partial-reset    — re-initialize z, then fine-tune
//   full-reset       — re-initialize f and z (relearn the scale-out behaviour)
// The auto-encoder parameters are never changed by any reuse strategy.

#include <string>
#include <vector>

#include "core/bellamy_model.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"

namespace bellamy::core {

enum class PretrainScenario { kLocal, kFiltered, kFull };
enum class ReuseStrategy { kPartialUnfreeze, kFullUnfreeze, kPartialReset, kFullReset };

const char* scenario_name(PretrainScenario s);
const char* strategy_name(ReuseStrategy s);

/// Select the pre-training corpus for a target context under a scenario:
/// kFull -> every run of the same algorithm outside the target context;
/// kFiltered -> additionally restricted to dissimilar contexts (>= 20 % size
/// difference, different node type / parameters / characteristics);
/// kLocal -> empty.
data::Dataset pretraining_corpus(PretrainScenario scenario, const data::Dataset& history,
                                 const data::JobRun& target_context);

/// Build a model for the scenario: pre-trained on the corpus for kFiltered /
/// kFull, freshly initialized for kLocal (or when the corpus is empty).
BellamyModel make_scenario_model(PretrainScenario scenario, const data::Dataset& history,
                                 const data::JobRun& target_context,
                                 const BellamyConfig& model_config,
                                 const PreTrainConfig& pretrain_config, std::uint64_t seed);

/// Mutate `model` and derive the fine-tune configuration implementing the
/// reuse strategy (resets re-initialize components; unfreeze choices map to
/// FineTuneConfig flags).
FineTuneConfig apply_reuse_strategy(ReuseStrategy strategy, BellamyModel& model,
                                    FineTuneConfig base);

/// Bellamy's reuse recipe, the one path from a pre-trained checkpoint to a
/// context model: `model` is a fresh copy of the checkpoint; apply the reuse
/// strategy to it, then fine-tune it on `runs`.  With no runs the copy is
/// left untouched whatever the strategy — the pre-trained weights are reused
/// directly — and a default FineTuneResult comes back.
FineTuneResult reuse_pretrained(BellamyModel& model, const std::vector<data::JobRun>& runs,
                                ReuseStrategy strategy, const FineTuneConfig& config);

}  // namespace bellamy::core

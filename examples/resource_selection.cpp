// Resource selection (the paper's motivating use case, §I/§V): given a
// runtime target for a dataflow job in a concrete context, use runtime
// models to choose the smallest cluster that meets the target — and compare
// what Bellamy picks against the NNLS baseline and the ground truth.
//
// Bellamy is a core::BellamyPredictor: it fine-tunes a fresh copy of the
// pre-trained model on the observed runs and answers select_scaleout's
// candidate sweep through the data::RuntimeModel interface, in one stacked
// forward pass.

#include <cstdio>

#include "baselines/ernest.hpp"
#include "core/predictor.hpp"
#include "core/resource_selector.hpp"
#include "core/trainer.hpp"
#include "data/c3o_generator.hpp"

using namespace bellamy;

int main() {
  data::C3OGeneratorConfig gen_cfg;
  gen_cfg.seed = 23;
  const data::Dataset history = data::C3OGenerator(gen_cfg).generate_algorithm("kmeans", 8);
  const auto groups = history.contexts();
  const auto& target_ctx = groups.front();
  const data::Dataset rest = history.exclude_context(target_ctx.key);

  // Only three observed runs in the target context — a realistic budget.
  std::vector<data::JobRun> observed;
  for (std::size_t i = 0; i < target_ctx.runs.size() && observed.size() < 3; i += 7) {
    observed.push_back(target_ctx.runs[i]);
  }

  // Bellamy: pre-train on the other contexts, fine-tune on the 3 runs.
  core::BellamyModel pretrained(core::BellamyConfig{}, 4);
  core::PreTrainConfig pre;
  pre.epochs = 300;
  core::pretrain(pretrained, rest.runs(), pre);

  core::FineTuneConfig fine;
  fine.max_epochs = 600;
  fine.patience = 300;
  core::BellamyPredictor bellamy(pretrained, fine);
  bellamy.fit(observed);

  // Baseline: NNLS on the same three runs.
  baselines::ErnestModel nnls;
  nnls.fit(observed);

  const std::vector<int> candidates{2, 4, 6, 8, 10, 12};
  data::JobRun tmpl = target_ctx.runs.front();
  const double target_s = target_ctx.mean_runtime_at(8) * 1.05;  // achievable target
  std::printf("runtime target: %.0f s for context %s\n\n", target_s, target_ctx.key.c_str());

  const auto sel_bellamy = core::select_scaleout(bellamy, tmpl, candidates, target_s);
  const auto sel_nnls = core::select_scaleout(nnls, tmpl, candidates, target_s);

  std::printf("scale_out\ttrue_mean_s\tbellamy_pred_s\tnnls_pred_s\n");
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    std::printf("%d\t\t%8.1f\t%8.1f\t%8.1f\n", candidates[i],
                target_ctx.mean_runtime_at(candidates[i]),
                sel_bellamy.predictions[i].predicted_runtime_s,
                sel_nnls.predictions[i].predicted_runtime_s);
  }

  auto report = [&](const char* name, const core::ResourceSelection& sel) {
    const double true_rt = target_ctx.mean_runtime_at(sel.chosen_scale_out);
    std::printf("%-8s -> %2d machines (predicted %.0f s, true %.0f s) %s target\n", name,
                sel.chosen_scale_out, sel.predicted_runtime_s, true_rt,
                true_rt <= target_s ? "MEETS" : "MISSES");
  };
  std::printf("\n");
  report("Bellamy", sel_bellamy);
  report("NNLS", sel_nnls);

  // Oracle choice for reference.
  int oracle = candidates.front();
  for (int x : candidates) {
    if (target_ctx.mean_runtime_at(x) <= target_s) {
      oracle = x;
      break;
    }
  }
  std::printf("oracle   -> %2d machines (true %.0f s)\n", oracle,
              target_ctx.mean_runtime_at(oracle));
  return 0;
}

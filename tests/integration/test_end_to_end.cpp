// End-to-end integration tests: the full pipeline from trace generation
// through pre-training, persistence, fine-tuning and resource selection —
// the workflow of paper Fig. 1 — plus statistical checks of the headline
// claims at miniature scale.

#include <gtest/gtest.h>

#include <filesystem>

#include "baselines/ernest.hpp"
#include "core/model_store.hpp"
#include "core/predictor.hpp"
#include "core/resource_selector.hpp"
#include "core/trainer.hpp"
#include "core/variants.hpp"
#include "data/bell_generator.hpp"
#include "data/c3o_generator.hpp"
#include "data/csv_io.hpp"
#include "eval/metrics.hpp"
#include "eval/splits.hpp"
#include "util/rng.hpp"

namespace bellamy {
namespace {

TEST(EndToEnd, PretrainPersistFinetunePredict) {
  // 1. Generate cross-context history for one algorithm.
  data::C3OGeneratorConfig gcfg;
  gcfg.seed = 101;
  const auto history = data::C3OGenerator(gcfg).generate_algorithm("sgd", 5);
  const auto groups = history.contexts();
  const auto& target = groups.back();
  const data::Dataset rest = history.exclude_context(target.key);

  // 2. Pre-train on everything except the target context.
  core::BellamyModel model(core::BellamyConfig{}, 1);
  core::PreTrainConfig pre;
  pre.epochs = 250;
  core::pretrain(model, rest.runs(), pre);

  // 3. Persist and reload through the model store.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "bellamy_e2e_store").string();
  core::ModelStore store(dir);
  store.save(model, "sgd", "e2e");
  core::BellamyModel reloaded = store.load("sgd", "e2e");
  std::filesystem::remove_all(dir);

  // 4. Fine-tune on 3 points of the new context.
  std::vector<data::JobRun> few(target.runs.begin(), target.runs.begin() + 3);
  core::FineTuneConfig fine;
  fine.max_epochs = 500;
  fine.patience = 250;
  const auto ft = core::finetune(reloaded, few, fine);
  EXPECT_GT(ft.epochs_run + (ft.reached_target ? 1 : 0), 0u);

  // 5. Predict the rest of the context with bounded relative error.
  eval::ErrorAccumulator acc;
  for (std::size_t i = 3; i < target.runs.size(); ++i) {
    acc.add(reloaded.predict_one(target.runs[i]), target.runs[i].runtime_s);
  }
  EXPECT_LT(acc.stats().mre, 0.60) << "fine-tuned model should roughly track the context";
}

TEST(EndToEnd, PretrainedBeatsUntrainedAtZeroPoints) {
  // Direct reuse (0 fine-tuning points) must beat an untrained local model.
  data::C3OGeneratorConfig gcfg;
  gcfg.seed = 202;
  const auto history = data::C3OGenerator(gcfg).generate_algorithm("kmeans", 6);
  const auto groups = history.contexts();
  const auto& target = groups.front();
  const data::Dataset rest = history.exclude_context(target.key);

  core::BellamyModel pretrained(core::BellamyConfig{}, 2);
  core::PreTrainConfig pre;
  pre.epochs = 300;
  core::pretrain(pretrained, rest.runs(), pre);

  eval::ErrorAccumulator pre_acc;
  for (const auto& r : target.runs) {
    pre_acc.add(pretrained.predict_one(r), r.runtime_s);
  }
  // An untrained guess has no knowledge at all; compare against predicting
  // the pre-training corpus mean.
  double corpus_mean = 0.0;
  for (const auto& r : rest.runs()) corpus_mean += r.runtime_s;
  corpus_mean /= static_cast<double>(rest.size());
  eval::ErrorAccumulator mean_acc;
  for (const auto& r : target.runs) mean_acc.add(corpus_mean, r.runtime_s);

  EXPECT_LT(pre_acc.stats().mre, mean_acc.stats().mre)
      << "context-aware pre-trained model should beat the corpus-mean baseline";
}

TEST(EndToEnd, ResourceSelectionWithFinetunedBellamy) {
  data::C3OGeneratorConfig gcfg;
  gcfg.seed = 303;
  const auto history = data::C3OGenerator(gcfg).generate_algorithm("sgd", 4);
  const auto groups = history.contexts();
  const auto& target = groups.front();
  const data::Dataset rest = history.exclude_context(target.key);

  core::BellamyModel pretrained(core::BellamyConfig{}, 3);
  core::PreTrainConfig pre;
  pre.epochs = 200;
  core::pretrain(pretrained, rest.runs(), pre);

  core::FineTuneConfig fine;
  fine.max_epochs = 300;
  fine.patience = 150;
  core::BellamyPredictor predictor(pretrained, fine);
  std::vector<data::JobRun> few(target.runs.begin(), target.runs.begin() + 4);
  predictor.fit(few);

  data::JobRun tmpl = target.runs.front();
  const double target_runtime = tmpl.runtime_s * 1.1;
  const auto sel = core::select_scaleout(predictor, tmpl, {2, 4, 6, 8, 10, 12},
                                         target_runtime);
  EXPECT_GE(sel.chosen_scale_out, 2);
  EXPECT_LE(sel.chosen_scale_out, 12);
  EXPECT_EQ(sel.predictions.size(), 6u);
}

TEST(EndToEnd, CsvRoundTripFeedsTraining) {
  // Export traces to CSV, re-import, and train on the imported dataset —
  // the path a user with real C3O CSVs would follow.
  const auto original = data::C3OGenerator().generate_algorithm("grep", 2);
  const std::string path =
      (std::filesystem::temp_directory_path() / "bellamy_e2e_traces.csv").string();
  data::save_csv_file(path, original);
  const auto imported = data::load_csv_file(path);
  std::filesystem::remove(path);

  core::BellamyModel model(core::BellamyConfig{}, 4);
  core::PreTrainConfig pre;
  pre.epochs = 50;
  const auto result = core::pretrain(model, imported.runs(), pre);
  EXPECT_LT(result.loss_history.back(), result.loss_history.front());
}

TEST(EndToEnd, CrossEnvironmentReuseTrainsFasterThanLocal) {
  // §IV-C.2 timing claim in miniature: reusing a cloud-pre-trained model on
  // the cluster traces converges in fewer epochs than training locally.
  data::C3OGeneratorConfig gcfg;
  gcfg.seed = 404;
  const auto c3o = data::C3OGenerator(gcfg).generate_algorithm("grep", 5);
  const auto bell = data::BellGenerator().generate_algorithm("grep");
  const auto target = bell.contexts().front();

  core::BellamyModel pretrained(core::BellamyConfig{}, 5);
  core::PreTrainConfig pre;
  pre.epochs = 300;
  core::pretrain(pretrained, c3o.runs(), pre);

  std::vector<data::JobRun> few(target.runs.begin(), target.runs.begin() + 5);
  core::FineTuneConfig fine;
  fine.max_epochs = 1200;
  fine.patience = 1200;
  fine.mae_target_seconds = 60.0;

  core::BellamyModel reused = core::BellamyModel::from_checkpoint(pretrained.to_checkpoint());
  const auto cfg_reuse =
      core::apply_reuse_strategy(core::ReuseStrategy::kPartialUnfreeze, reused, fine);
  const auto r_reuse = core::finetune(reused, few, cfg_reuse);

  core::BellamyModel local(core::BellamyConfig{}, 5);
  core::FineTuneConfig fine_local = fine;
  fine_local.unlock_f_immediately = true;
  const auto r_local = core::finetune(local, few, fine_local);

  // Allow slack: this is a statistical tendency, not a per-seed guarantee.
  EXPECT_LE(r_reuse.epochs_run, r_local.epochs_run + 200);
}

TEST(EndToEnd, NnlsBaselineSanityOnGeneratedData) {
  // The Ernest baseline must interpolate generated contexts decently when
  // given all scale-outs — a guard that the generator stays NNLS-learnable.
  const auto ds = data::C3OGenerator().generate_algorithm("sort", 3);
  for (const auto& group : ds.contexts()) {
    baselines::ErnestModel model;
    model.fit(group.runs);
    eval::ErrorAccumulator acc;
    for (const auto& r : group.runs) acc.add(model.predict_batch({r})[0], r.runtime_s);
    EXPECT_LT(acc.stats().mre, 0.25) << group.key;
  }
}

}  // namespace
}  // namespace bellamy

// Cross-environment reuse (paper §IV-C.2): a model pre-trained on public
// cloud traces is reused after "migrating" to a private cluster — different
// hardware, software stack and noise profile.  Compares the four reuse
// strategies and a from-scratch local model on the new environment.
//
// One pre-training run feeds every strategy: each predictor shares the same
// stored checkpoint object and fine-tunes its own fresh copy of it (the
// recipe a serving registry's refit runs too).

#include <cstdio>
#include <memory>

#include "core/predictor.hpp"
#include "core/trainer.hpp"
#include "core/variants.hpp"
#include "data/bell_generator.hpp"
#include "data/c3o_generator.hpp"
#include "eval/metrics.hpp"
#include "nn/serialize.hpp"

using namespace bellamy;

int main() {
  // Old environment: public-cloud traces of grep across many contexts.
  data::C3OGeneratorConfig cloud_cfg;
  cloud_cfg.seed = 3;
  const data::Dataset cloud = data::C3OGenerator(cloud_cfg).generate_algorithm("grep", 10);

  // New environment: the private cluster, one context, scale-outs 4..60.
  const data::Dataset cluster = data::BellGenerator().generate_algorithm("grep");
  const auto target = cluster.contexts().front();

  core::BellamyModel pretrained(core::BellamyConfig{}, 5);
  core::PreTrainConfig pre;
  pre.epochs = 300;
  core::pretrain(pretrained, cloud.runs(), pre);
  std::printf("pre-trained on %zu cloud runs (%zu contexts)\n", cloud.size(),
              cloud.num_contexts());

  // A few observed runs on the new cluster (low scale-outs only — the
  // interesting question is extrapolating to bigger clusters).
  std::vector<data::JobRun> observed;
  for (const auto& r : target.runs) {
    if (r.scale_out <= 16 && observed.size() < 4) observed.push_back(r);
  }
  std::printf("observed %zu runs on the new cluster (scale-outs <= 16)\n\n", observed.size());

  core::FineTuneConfig fine;
  fine.max_epochs = 600;
  fine.patience = 300;

  const auto checkpoint = std::make_shared<const nn::Checkpoint>(pretrained.to_checkpoint());

  struct Row {
    std::string name;
    double mae;
    double seconds;
    std::size_t epochs;
  };
  std::vector<Row> rows;

  std::vector<data::JobRun> queries;
  for (const auto& r : target.runs) {
    if (r.scale_out > 16) queries.push_back(r);
  }

  auto evaluate = [&](const std::string& name, data::RuntimeModel& pred, double fit_seconds,
                      std::size_t epochs) {
    const auto predicted = pred.predict_batch(queries);  // one stacked pass
    eval::ErrorAccumulator acc;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      acc.add(predicted[i], queries[i].runtime_s);
    }
    rows.push_back({name, acc.stats().mae, fit_seconds, epochs});
  };

  {
    core::BellamyPredictor local(core::BellamyConfig{}, fine, 6);
    local.fit(observed);
    evaluate("local (from scratch)", local, local.last_fit().fit_seconds,
             local.last_fit().epochs_run);
  }
  for (const auto strategy :
       {core::ReuseStrategy::kPartialUnfreeze, core::ReuseStrategy::kFullUnfreeze,
        core::ReuseStrategy::kPartialReset, core::ReuseStrategy::kFullReset}) {
    core::BellamyPredictor pred(checkpoint, fine, strategy);
    pred.fit(observed);
    evaluate(core::strategy_name(strategy), pred, pred.last_fit().fit_seconds,
             pred.last_fit().epochs_run);
  }

  std::printf("strategy\t\tMAE_on_large_scaleouts_s\tfit_s\tepochs\n");
  for (const auto& row : rows) {
    std::printf("%-22s\t%10.1f\t\t%6.3f\t%zu\n", row.name.c_str(), row.mae, row.seconds,
                row.epochs);
  }
  // The paper finds that reuse fits faster than local training; report what
  // these rows show, in epochs (at this size the wall times are noise).
  const std::size_t local_epochs = rows.front().epochs;
  std::size_t fewer = 0;
  for (std::size_t i = 1; i < rows.size(); ++i) fewer += rows[i].epochs < local_epochs ? 1 : 0;
  std::printf("\n%zu of %zu reuse strategies fit in fewer epochs than local training (%zu)\n",
              fewer, rows.size() - 1, local_epochs);
  return 0;
}

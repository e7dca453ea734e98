// Quickstart: the smallest end-to-end Bellamy workflow, through the
// bellamy::serve facade.
//
//   1. Load (here: synthesize) historical dataflow job executions.
//   2. Pre-train a Bellamy model on all contexts of one algorithm and
//      publish it in a ModelRegistry under (job, context).
//   3. Refit the handle on a handful of runs from a brand-new context —
//      in the BACKGROUND (refit_async): the caller keeps serving on the old
//      weights until the fine-tune lands and hot-swaps atomically.
//   4. Predict runtimes for unseen scale-outs through the micro-batching
//      PredictionService (interactive QoS, default flush deadline).
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "core/trainer.hpp"
#include "data/c3o_generator.hpp"
#include "serve/serve.hpp"

using namespace bellamy;

int main() {
  // 1. Historical executions of "sgd" across many contexts (in a real
  //    deployment: data::load_csv_file("my_traces.csv")).
  data::C3OGeneratorConfig gen_cfg;
  gen_cfg.seed = 7;
  const data::Dataset history = data::C3OGenerator(gen_cfg).generate_algorithm("sgd", 8);
  std::printf("history: %zu runs across %zu contexts\n", history.size(),
              history.num_contexts());

  // Treat the last context as the "new" one the user is about to run in.
  const auto groups = history.contexts();
  const auto& new_context = groups.back();
  const data::Dataset pretrain_corpus = history.exclude_context(new_context.key);

  // 2. Pre-train on every other context, then publish the model.
  core::BellamyModel model(core::BellamyConfig{}, /*seed=*/42);
  core::PreTrainConfig pre;
  pre.epochs = 300;
  core::pretrain(model, pretrain_corpus.runs(), pre);
  std::printf("pre-trained on %zu runs from %zu contexts\n", pretrain_corpus.size(),
              pretrain_corpus.num_contexts());

  serve::ModelRegistry registry;
  serve::PredictionService service(registry);
  const serve::ModelHandle handle =
      registry.publish({"sgd", new_context.key}, model).unwrap();
  // This handle carries user-facing traffic: interactive class, high weight.
  service.set_qos(handle, serve::HandleQos{serve::QosClass::kInteractive, 4.0}).expect();

  // 3. Refit on the first three observed runs of the new context — queued on
  //    the shared thread pool, so this thread (and every serving thread)
  //    keeps going while the fine-tune runs.  The handle serves the OLD
  //    weights until the swap; duplicate requests filed while the job is
  //    still queued coalesce into one fine-tune.
  std::vector<data::JobRun> observed(new_context.runs.begin(), new_context.runs.begin() + 3);
  core::FineTuneConfig fine;  // paper defaults: cyclical LR, MAE <= 5 s target
  fine.max_epochs = 800;
  fine.patience = 400;
  auto refit = registry.refit_async(handle, observed, fine);
  std::printf("refit queued in the background (pending: %s)...\n",
              registry.refit_pending(handle) ? "yes" : "no");
  serve::ServeResult<core::FineTuneResult> refit_result = refit.get();  // demo: block here
  const core::FineTuneResult result = refit_result.unwrap();
  std::printf("refit for %zu epochs (best MAE %.1f s, %s)\n", result.epochs_run,
              result.best_mae_seconds,
              result.reached_target ? "target reached" : "stopped by patience/cap");

  // 4. Predict the full scale-out range of the new context.  The queries
  //    coalesce into one micro-batch inside the service.
  std::vector<data::JobRun> queries;
  for (int x : new_context.scale_outs()) {
    data::JobRun query = new_context.runs.front();
    query.scale_out = x;
    queries.push_back(query);
  }
  const std::vector<double> predicted = service.predict_many(handle, queries).unwrap();

  std::printf("\nscale_out\tpredicted_s\tactual_s (mean of repetitions)\n");
  for (std::size_t i = 0; i < queries.size(); ++i) {
    std::printf("%d\t\t%8.1f\t%8.1f\n", queries[i].scale_out, predicted[i],
                new_context.mean_runtime_at(queries[i].scale_out));
  }

  const serve::ServeMetrics metrics = service.metrics(handle).unwrap();
  std::printf("\nserved %llu requests in %llu micro-batch(es), mean fill %.1f, "
              "effective flush deadline %llu us\n",
              static_cast<unsigned long long>(metrics.responses),
              static_cast<unsigned long long>(metrics.batches), metrics.mean_batch_fill(),
              static_cast<unsigned long long>(metrics.effective_flush_deadline_us));
  return 0;
}

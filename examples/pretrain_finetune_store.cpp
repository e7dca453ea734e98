// Collaborative model sharing through the serve facade: the workflow the
// paper sketches for public clouds — pre-train one model per algorithm,
// persist it in a shared store, and let later users open and refit the
// stored checkpoints instead of profiling from scratch (Fig. 1).
//
// The provider side publishes into a store-backed ModelRegistry and
// persists; the consumer side opens the same store, refits the handle on
// its own runs (hot-swap), and queries through the PredictionService.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/model_store.hpp"
#include "core/trainer.hpp"
#include "data/c3o_generator.hpp"
#include "data/ground_truth.hpp"
#include "serve/serve.hpp"
#include "util/hash.hpp"

using namespace bellamy;

int main() {
  // One store per process: two runs side by side must not share (and then
  // remove) each other's directory.
  const std::string store_dir = (std::filesystem::temp_directory_path() /
                                 ("bellamy-shared-models-" + std::to_string(::getpid())))
                                    .string();
  auto store = std::make_shared<core::ModelStore>(store_dir);
  std::printf("model store: %s\n\n", store_dir.c_str());

  data::C3OGeneratorConfig gen_cfg;
  gen_cfg.seed = 99;
  const data::C3OGenerator generator(gen_cfg);

  // --- "Provider" side: pre-train, publish and persist one model per
  // algorithm.  The registry key is (job, context-tag).
  {
    serve::ModelRegistry registry(store);
    for (const auto& algo : {"grep", "sgd"}) {
      const data::Dataset history = generator.generate_algorithm(algo, 6);
      core::BellamyModel model(core::BellamyConfig{}, 1000 + util::fnv1a64(algo) % 1000);
      core::PreTrainConfig pre;
      pre.epochs = 250;
      const auto result = core::pretrain(model, history.runs(), pre);
      const serve::ModelHandle handle = registry.publish({algo, "c3o-v1"}, model).unwrap();
      registry.persist(handle).expect();
      std::printf("published %s/c3o-v1  (pre-train loss %.4f, in-sample MAE %.1f s)\n", algo,
                  result.final_loss, result.final_mae_seconds);
    }
  }

  std::printf("\nstore contents:\n");
  for (const auto& key : store->list()) std::printf("  %s\n", key.c_str());

  // --- "Consumer" side: a different process opens the shared store, fetches
  // the sgd model and adapts it to a new context.
  data::C3OGeneratorConfig consumer_cfg;
  consumer_cfg.seed = 555;  // different user, different context
  const data::Dataset own_runs =
      data::C3OGenerator(consumer_cfg).generate_algorithm("sgd", 1);
  const auto context = own_runs.contexts().front();
  std::vector<data::JobRun> observed(context.runs.begin(), context.runs.begin() + 4);

  serve::ModelRegistry registry(store);
  serve::PredictionService service(registry);
  const serve::ModelHandle handle = registry.open({"sgd", "c3o-v1"}).unwrap();

  core::FineTuneConfig fine;
  fine.max_epochs = 600;
  fine.patience = 300;
  const core::FineTuneResult result = registry.refit(handle, observed, fine).unwrap();
  std::printf("\nconsumer refit sgd/c3o-v1 on %zu own runs: %zu epochs, best MAE %.1f s\n",
              observed.size(), result.epochs_run, result.best_mae_seconds);

  std::printf("\nscale_out\tpredicted_s\tactual_mean_s\n");
  for (int x : context.scale_outs()) {
    data::JobRun query = context.runs.front();
    query.scale_out = x;
    std::printf("%d\t\t%8.1f\t%8.1f\n", x, service.predict(handle, query).unwrap(),
                context.mean_runtime_at(x));
  }

  // Typed errors instead of exception spelunking: a key that was never
  // published reports kUnknownModel with the path it looked at.
  const auto missing = registry.open({"pagerank", "c3o-v1"});
  std::printf("\nopen pagerank/c3o-v1 -> %s\n", missing.error_text().c_str());

  std::filesystem::remove_all(store_dir);
  return 0;
}

#include "core/trainer.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "nn/lr_scheduler.hpp"
#include "nn/optimizer.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace bellamy::core {

PreTrainResult pretrain(BellamyModel& model, const std::vector<data::JobRun>& runs,
                        const PreTrainConfig& config) {
  if (runs.empty()) throw std::invalid_argument("pretrain: no training runs");
  if (config.batch_size == 0) throw std::invalid_argument("pretrain: batch_size must be > 0");

  model.fit_normalization(runs);
  model.set_dropout_rate(config.dropout);
  model.set_trainable_components(true, true, true, true);

  nn::Adam::Config adam;
  adam.lr = config.learning_rate;
  adam.weight_decay = config.weight_decay;
  nn::Adam optimizer(model.parameters(), adam);

  util::Rng rng(config.seed);
  std::vector<std::size_t> order(runs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  // Encode the whole corpus once (scale-out features, targets, property
  // vectors deduplicated set-wide); every epoch's mini-batches are cheap
  // index gathers instead of per-sample re-vectorization.  The gather cache
  // additionally skips re-copying the unique property block when consecutive
  // batches touch the same rows (the common case for small corpora).
  const BellamyEncodedRuns encoded = model.encode_runs(runs);
  BellamyGatherCache gather_cache;

  BellamyBatch batch;  // refilled per step, its storage reused

  PreTrainResult result;
  result.loss_history.reserve(config.epochs);
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    rng.shuffle(order);
    double epoch_loss = 0.0;
    double epoch_mae = 0.0;
    std::size_t batches = 0;
    for (std::size_t begin = 0; begin < order.size(); begin += config.batch_size) {
      const std::size_t end = std::min(order.size(), begin + config.batch_size);
      const std::span<const std::size_t> indices(order.data() + begin, end - begin);

      optimizer.zero_grad();
      model.gather_batch(encoded, indices, batch, &gather_cache);
      const BellamyLoss loss = model.train_step(batch, config.reconstruction_weight);
      optimizer.step();

      epoch_loss += loss.total;
      epoch_mae += loss.mae_seconds;
      ++batches;
    }
    result.loss_history.push_back(epoch_loss / static_cast<double>(batches));
    result.final_loss = result.loss_history.back();
    result.final_mae_seconds = epoch_mae / static_cast<double>(batches);
    ++result.epochs_run;
  }
  model.set_training(false);
  model.release_training_workspace();
  return result;
}

FineTuneResult finetune(BellamyModel& model, const std::vector<data::JobRun>& runs,
                        const FineTuneConfig& config) {
  if (runs.empty()) throw std::invalid_argument("finetune: no training runs");
  util::Timer timer;

  // Local variant: the model has never seen data, so fit normalization here.
  if (!model.normalization_fitted()) model.fit_normalization(runs);

  model.set_dropout_rate(0.0);  // Table I: fine-tuning dropout 0 %

  // Freeze policy: only z first; f unlocks later (auto-encoder stays fixed
  // unless explicitly requested).
  const std::size_t unlock_after =
      config.unlock_f_immediately
          ? 0
          : (config.unlock_f_after > 0
                 ? config.unlock_f_after
                 : std::max<std::size_t>(10, 100 / runs.size()));
  model.set_trainable_components(unlock_after == 0, config.train_autoencoder,
                                 config.train_autoencoder, true);

  nn::Adam::Config adam;
  adam.lr = config.base_lr;
  adam.weight_decay = config.weight_decay;
  const std::vector<nn::Parameter*> params = model.parameters();
  nn::Adam optimizer(params, adam);
  nn::CyclicalLr schedule(config.base_lr, config.max_lr, config.lr_cycle);

  const double recon_weight = config.train_autoencoder ? 1.0 : 0.0;
  const bool minibatch = config.batch_size > 0 && config.batch_size < runs.size();

  // The full batch is always materialized: the default loop trains on it
  // directly, and the mini-batch loop evaluates against it once per epoch
  // for best-state tracking (per-step losses cover different subsets).
  const BellamyBatch batch = model.make_batch(runs);

  FineTuneResult result;
  double best_mae = model.evaluate(batch, recon_weight).mae_seconds;
  std::vector<nn::Matrix> best_state = model.snapshot_parameters();
  // An improving epoch copies into the snapshot's existing storage.
  const auto keep_best = [&] {
    for (std::size_t i = 0; i < params.size(); ++i) best_state[i] = params[i]->value;
  };
  std::size_t best_epoch = 0;

  if (best_mae <= config.mae_target_seconds) {
    // Pre-trained model already satisfies the target in this context.
    result.best_mae_seconds = best_mae;
    result.reached_target = true;
    result.fit_seconds = timer.seconds();
    model.set_training(false);
    model.release_training_workspace();
    return result;
  }

  if (!minibatch) {
    // The paper's full-batch loop, bit-identical to pre-mini-batch builds.
    for (std::size_t epoch = 0; epoch < config.max_epochs; ++epoch) {
      if (epoch == unlock_after && unlock_after > 0) {
        model.f().set_trainable(true);
      }
      optimizer.set_learning_rate(schedule.lr_at(epoch));
      optimizer.zero_grad();
      // train_step reports the loss of the *current* parameters, so the best
      // state must be snapshotted before the optimizer mutates them.
      const BellamyLoss loss = model.train_step(batch, recon_weight);
      if (loss.mae_seconds < best_mae) {
        best_mae = loss.mae_seconds;
        keep_best();
        best_epoch = epoch;
      }
      optimizer.step();
      ++result.epochs_run;
      if (best_mae <= config.mae_target_seconds) {
        result.reached_target = true;
        break;
      }
      if (epoch - best_epoch >= config.patience) break;  // no improvement
    }
  } else {
    // Opt-in mini-batch loop: the same encode-once/gather path pretrain
    // uses, seeded shuffles per epoch, one optimizer step per mini-batch.
    const BellamyEncodedRuns encoded = model.encode_runs(runs);
    BellamyGatherCache gather_cache;
    BellamyBatch mini;  // refilled per step, its storage reused
    util::Rng rng(config.seed);
    std::vector<std::size_t> order(runs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

    for (std::size_t epoch = 0; epoch < config.max_epochs; ++epoch) {
      if (epoch == unlock_after && unlock_after > 0) {
        model.f().set_trainable(true);
      }
      optimizer.set_learning_rate(schedule.lr_at(epoch));
      rng.shuffle(order);
      for (std::size_t begin = 0; begin < order.size(); begin += config.batch_size) {
        const std::size_t end = std::min(order.size(), begin + config.batch_size);
        const std::span<const std::size_t> indices(order.data() + begin, end - begin);
        optimizer.zero_grad();
        model.gather_batch(encoded, indices, mini, &gather_cache);
        model.train_step(mini, recon_weight);
        optimizer.step();
      }
      // Best-state tracking on the POST-step parameters over the full batch
      // (the only loss comparable across epochs here).
      const double epoch_mae = model.evaluate(batch, recon_weight).mae_seconds;
      if (epoch_mae < best_mae) {
        best_mae = epoch_mae;
        keep_best();
        best_epoch = epoch;
      }
      ++result.epochs_run;
      if (best_mae <= config.mae_target_seconds) {
        result.reached_target = true;
        break;
      }
      if (epoch - best_epoch >= config.patience) break;  // no improvement
    }
  }

  model.restore_parameters(best_state);
  model.set_training(false);
  model.release_training_workspace();
  result.best_mae_seconds = best_mae;
  result.fit_seconds = timer.seconds();
  return result;
}

}  // namespace bellamy::core

#pragma once
// The Bellamy architecture (paper §III, Fig. 3):
//
//   scale-out x  --[1/x, log x, x]--> normalize --> f --> e  (B x F)
//   property p^i --vectorize (N=40)--> g --> code c^i (B x M) --> h --> p̂^i
//   r = e ++ c^(1..m) ++ mean(c^(m+1..m+n))   --> z --> predicted runtime
//
// The joint objective (Table I) is Huber(runtime) + MSE(reconstruction).
// Properties of all samples are stacked into one (B * (m+n)) x N matrix so
// the shared encoder/decoder see a single batch — one forward/backward per
// step despite weight sharing across properties.
//
// The model owns its input/target normalization state (fit on training data,
// frozen into checkpoints; §IV-A) so a persisted model is self-contained.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/bellamy_config.hpp"
#include "data/record.hpp"
#include "encoding/property_encoder.hpp"
#include "nn/dropout.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/sequential.hpp"
#include "nn/serialize.hpp"
#include "util/rng.hpp"

namespace bellamy::parallel {
class ThreadPool;
}

namespace bellamy::core {

/// Extract the paper's essential property list from a run:
/// node type, job parameters, dataset size, data characteristics.
std::vector<encoding::PropertyValue> essential_properties(const data::JobRun& run);
/// Optional property list: memory MB, CPU cores, job (algorithm) name.
std::vector<encoding::PropertyValue> optional_properties(const data::JobRun& run);

/// A set of runs encoded once for repeated batching: scale-out features and
/// targets per run, plus the property vectors deduplicated across the whole
/// set.  Pre-training gathers thousands of mini-batches from one of these, so
/// the (comparatively expensive) property vectorization runs once per corpus
/// instead of once per epoch.
struct BellamyEncodedRuns {
  nn::Matrix scaleout_raw;  ///< (R x 3) un-normalized [1/x, log x, x]
  nn::Matrix targets_raw;   ///< (R x 1) runtimes in seconds
  nn::Matrix properties;    ///< (U x N) distinct property vectors, first-use order
  std::vector<std::size_t> prop_row;  ///< (R*(m+n)) stacked slot -> row in properties
  std::size_t num_runs = 0;
  /// Process-unique id of this encoding (assigned by encode_runs).  The
  /// gather cache keys on it, so re-populating the same object from a
  /// different corpus can never serve a stale property block.
  std::uint64_t encode_id = 0;
};

/// A vectorized mini-batch ready for the network.  Property rows are
/// deduplicated: `properties` holds only the distinct vectors of this batch,
/// `prop_row` maps every stacked per-sample slot (sample-major, m essential
/// then n optional) to its row, and `prop_weight` is each row's multiplicity.
/// The encoder/decoder run over the unique rows only; gradients are
/// accumulated back per unique row via the same mapping.
struct BellamyBatch {
  nn::Matrix scaleout_raw;   ///< (B x 3) un-normalized [1/x, log x, x]
  nn::Matrix properties;     ///< (U x N) deduplicated property vectors
  nn::Matrix targets_raw;    ///< (B x 1) runtimes in seconds
  std::vector<std::size_t> prop_row;  ///< (B*(m+n)) stacked slot -> row in properties
  std::vector<double> prop_weight;    ///< (U) multiplicity of each unique row
  std::size_t batch_size = 0;

  std::size_t num_unique_properties() const { return properties.rows(); }
  /// Materialize the pre-dedup sample-major stacked matrix (B*(m+n) x N).
  nn::Matrix stacked_properties() const { return properties.gather_rows(prop_row); }
};

/// Optional cross-batch cache for gather_batch.  Small corpora routinely
/// produce consecutive mini-batches whose samples touch the SAME unique
/// property rows (every batch sees all contexts), so re-gathering the
/// (U x N) property block per batch is wasted work.  The cache keys on the
/// encoded set's property matrix identity plus a hash (and exact compare) of
/// the batch's used-row list and reuses the previously gathered block on a
/// match.  One cache serves one encoded set; gather_batch resets it when it
/// sees a different set.
struct BellamyGatherCache {
  std::uint64_t encode_id = 0;  ///< BellamyEncodedRuns::encode_id the cache serves
  std::uint64_t rows_hash = 0;
  std::vector<std::size_t> used_rows;
  nn::Matrix properties;
  std::uint64_t reuses = 0;  ///< batches served from the cache (stats)
};

/// Result of one forward pass.  `codes` / `reconstruction` cover the UNIQUE
/// property rows of the batch (matching BellamyBatch::properties); use the
/// stacked_* helpers for the per-sample-slot view.
struct BellamyForward {
  nn::Matrix prediction_raw;  ///< (B x 1) denormalized runtime prediction
  nn::Matrix prediction_norm; ///< (B x 1) network-space prediction
  nn::Matrix codes;           ///< (U x M) encoder output per unique property row
  nn::Matrix reconstruction;  ///< (U x N) decoder output per unique property row
  nn::Matrix combined;        ///< (B x combined_dim) the vector r
  std::vector<std::size_t> prop_row;  ///< copy of the batch's slot -> row mapping

  nn::Matrix stacked_codes() const { return codes.gather_rows(prop_row); }
  nn::Matrix stacked_reconstruction() const { return reconstruction.gather_rows(prop_row); }
};

/// Losses of one training step.
struct BellamyLoss {
  double total = 0.0;
  double huber = 0.0;          ///< runtime loss (network space)
  double reconstruction = 0.0; ///< auto-encoder MSE
  double mae_seconds = 0.0;    ///< runtime MAE in seconds (stopping criterion)
};

class BellamyModel {
 public:
  BellamyModel(BellamyConfig config, std::uint64_t seed);

  // ---- data preparation ----------------------------------------------------
  /// Encode a set of runs once (scale-out features, targets, property vectors
  /// deduplicated across the set).  Runs whose seven property fields are all
  /// equal share one context and are vectorized once.  Feed the result to
  /// gather_batch to form mini-batches without re-encoding.
  BellamyEncodedRuns encode_runs(std::span<const data::JobRun> runs) const;

  /// Assemble the mini-batch of the given run indices from an encoded set.
  /// The batch references only the property rows its samples use, with
  /// per-batch multiplicities.  With `cache`, consecutive batches that use
  /// the same unique-row set skip re-gathering the property block.
  BellamyBatch gather_batch(const BellamyEncodedRuns& encoded,
                            std::span<const std::size_t> indices,
                            BellamyGatherCache* cache = nullptr) const;
  /// gather_batch refilling `batch` in place: a training loop that keeps one
  /// batch reuses its storage, so a steady-state gather allocates nothing.
  void gather_batch(const BellamyEncodedRuns& encoded, std::span<const std::size_t> indices,
                    BellamyBatch& batch, BellamyGatherCache* cache = nullptr) const;

  /// encode_runs + gather_batch over all runs (one-shot convenience).
  BellamyBatch make_batch(const std::vector<data::JobRun>& runs) const;

  /// Fit scale-out feature bounds and target scaling on training runs.
  /// Called once before pre-training (or local training); fine-tuning reuses
  /// the persisted state.
  void fit_normalization(const std::vector<data::JobRun>& runs);
  bool normalization_fitted() const { return norm_fitted_; }

  // ---- forward / backward ---------------------------------------------------
  /// Forward pass; `training` toggles dropout.
  BellamyForward forward(const BellamyBatch& batch, bool training);

  /// Forward + joint loss + backward (gradients accumulate into the
  /// trainable parameters; frozen ones are left untouched).
  /// reconstruction_weight 0 disables the auto-encoder path (fine-tuning):
  /// the decoder h then does not run at all.  Intermediates live in the
  /// model's training workspace and the modules' own buffers, so a
  /// steady-state step allocates nothing.
  BellamyLoss train_step(const BellamyBatch& batch, double reconstruction_weight);

  /// Loss evaluation without gradients (dropout off; h runs only when
  /// reconstruction_weight > 0).
  BellamyLoss evaluate(const BellamyBatch& batch, double reconstruction_weight);

  /// Free the training workspace and the modules' buffers.  They are
  /// scratch, not state (never checkpointed, not part of state_stamp);
  /// pretrain and finetune call this on return, so a trained model carries
  /// none.  The next training call allocates them again.
  void release_training_workspace();

  /// Predict runtimes in seconds (eval mode) for a whole batch in a single
  /// forward pass.  Work that depends only on a distinct context or a
  /// distinct scale-out is done once per batch: each context is vectorized
  /// once, the encoder g runs over the distinct property rows and f over the
  /// distinct scale-outs; only z runs once per query.  Batches of at least
  /// predict_chunk_threshold() queries are split into contiguous chunks
  /// across the global ThreadPool; chunked results are bit-identical to the
  /// single-pass path.  An empty batch yields an empty vector.  Inference is
  /// const: it goes through nn::Module::infer and caches nothing, so any
  /// number of threads may predict on one model at once (but not while
  /// another thread trains it).
  std::vector<double> predict_batch(const std::vector<data::JobRun>& runs) const;
  double predict_one(const data::JobRun& run) const;

  /// Explicitly chunked prediction over `pool` (nullptr = global pool) in
  /// `num_chunks` contiguous slices (0 = one per pool worker).  Used
  /// internally for large batches; exposed so callers and tests can pick
  /// their own pool and chunking.
  std::vector<double> predict_batch_chunked(const std::vector<data::JobRun>& runs,
                                            parallel::ThreadPool* pool = nullptr,
                                            std::size_t num_chunks = 0) const;

  /// Minimum batch size at which predict_batch auto-chunks across the global
  /// ThreadPool (0 disables auto-chunking).  Default 2048.
  std::size_t predict_chunk_threshold() const { return predict_chunk_threshold_; }
  void set_predict_chunk_threshold(std::size_t threshold) {
    predict_chunk_threshold_ = threshold;
  }

  /// Stamp of the serveable state: a stable hash over every parameter plus
  /// the normalization state.  Any mutation (optimizer step, parameter
  /// restore, checkpoint load) changes it, so it identifies a weight state
  /// (registry introspection, exchange pulls, tests).
  std::uint64_t state_stamp() const;

  // ---- components (freeze policy, reuse variants) ---------------------------
  nn::Sequential& f() { return f_; }
  nn::Sequential& g() { return g_; }
  nn::Sequential& h() { return h_; }
  nn::Sequential& z() { return z_; }

  /// All parameters of all four components.
  std::vector<nn::Parameter*> parameters();
  /// Freeze everything, then mark the given components trainable.
  void set_trainable_components(bool f_on, bool g_on, bool h_on, bool z_on);

  /// Re-initialize components (reuse variants partial-/full-reset).
  void reinit_f();
  void reinit_z();

  void set_training(bool training);
  void set_dropout_rate(double rate);

  // ---- persistence -----------------------------------------------------------
  nn::Checkpoint to_checkpoint() const;
  static BellamyModel from_checkpoint(const nn::Checkpoint& ckpt);
  void save(const std::string& path) const;
  static BellamyModel load(const std::string& path);

  const BellamyConfig& config() const { return config_; }

  /// Snapshot / restore all parameter values (best-state tracking).
  std::vector<nn::Matrix> snapshot_parameters();
  void restore_parameters(const std::vector<nn::Matrix>& snapshot);

 private:
  /// Training scratch that forward_pass / train_step / evaluate refill each
  /// step, reusing its storage.
  struct Workspace {
    nn::Matrix scaleout;         ///< (B x 3) normalized scale-outs
    nn::Matrix combined;         ///< (B x combined_dim) the vector r
    nn::Matrix prediction_raw;   ///< (B x 1) denormalized prediction
    nn::Matrix targets_norm;     ///< (B x 1) network-space targets
    nn::Matrix grad_prediction;  ///< (B x 1) dL/d(network-space prediction)
    nn::Matrix grad_f;           ///< (B x F) the f slice of dL/d(combined)
    nn::Matrix grad_codes;       ///< (U x M) dL/d(codes)
    nn::Matrix grad_recon;       ///< (U x N) dL/d(reconstruction)
  };
  /// The module outputs of one forward_pass: references into the modules'
  /// buffers, valid until the next forward on the same component.
  struct ForwardView {
    const nn::Matrix* codes;            ///< g's output (U x M)
    const nn::Matrix* reconstruction;   ///< h's output (U x N); null unless decoded
    const nn::Matrix* prediction_norm;  ///< z's output (B x 1)
  };

  void build(std::uint64_t dropout_seed);
  /// Throws std::logic_error naming `caller` unless fit_normalization ran.
  void require_normalization(const char* caller) const;
  /// forward(), with the decoder h run only when `decode` is set (its output
  /// feeds nothing but the reconstruction term).  Fills ws_.scaleout,
  /// ws_.combined and ws_.prediction_raw.
  ForwardView forward_pass(const BellamyBatch& batch, bool training, bool decode);
  void normalize_scaleout(const nn::Matrix& raw, nn::Matrix& out) const;
  void normalize_targets(const nn::Matrix& raw, nn::Matrix& out) const;
  double denormalize_target(double network_value) const;
  std::vector<double> predict_batch_serial(std::span<const data::JobRun> runs) const;
  /// The z input per sample: r = e ++ essential codes ++ mean(optional
  /// codes), with the codes gathered from the unique rows through prop_row
  /// and e's row through `e_row` (empty: sample i reads row i of e).
  void assemble_combined(const nn::Matrix& e, std::span<const std::size_t> e_row,
                         const nn::Matrix& codes, const std::vector<std::size_t>& prop_row,
                         nn::Matrix& combined) const;
  /// Weighted (by row multiplicity) reconstruction MSE over the batch's
  /// unique property rows — equal to the MSE over the stacked matrix.  Fills
  /// `grad` (U x N) with d(mse)/d(reconstruction) when non-null.
  double reconstruction_mse(const nn::Matrix& reconstruction, const BellamyBatch& batch,
                            nn::Matrix* grad) const;
  /// Huber and MAE of the last forward_pass against the batch targets;
  /// dL/d(prediction) goes to ws_.grad_prediction when `grad` is set.
  BellamyLoss runtime_losses(const ForwardView& fw, const BellamyBatch& batch, bool grad);

  BellamyConfig config_;
  util::Rng rng_;
  encoding::PropertyEncoder property_encoder_;

  nn::Sequential f_;  ///< scale-out modeling
  nn::Sequential g_;  ///< encoder
  nn::Sequential h_;  ///< decoder
  nn::Sequential z_;  ///< runtime predictor
  nn::AlphaDropout* g_dropout_ = nullptr;  ///< owned by g_
  nn::AlphaDropout* h_dropout_ = nullptr;  ///< owned by h_

  // Auto-chunking floor for predict_batch (not persisted).
  std::size_t predict_chunk_threshold_ = 2048;

  // Training scratch (not persisted, not state).
  Workspace ws_;

  // Normalization state (persisted).
  bool norm_fitted_ = false;
  nn::Matrix scaleout_min_{1, 3, 0.0};
  nn::Matrix scaleout_max_{1, 3, 1.0};
  double target_mean_ = 0.0;
  double target_std_ = 1.0;

  // Direct layer handles for the reset reuse variants.
  std::vector<nn::Linear*> f_linears_;
  std::vector<nn::Linear*> z_linears_;
};

}  // namespace bellamy::core

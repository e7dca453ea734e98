#include "core/bellamy_model.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "nn/activations.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "util/hash.hpp"
#include "util/string_utils.hpp"

namespace bellamy::core {

std::vector<encoding::PropertyValue> essential_properties(const data::JobRun& run) {
  return {encoding::PropertyValue{run.node_type},
          encoding::PropertyValue{run.job_parameters},
          encoding::PropertyValue{run.dataset_size_mb},
          encoding::PropertyValue{run.data_characteristics}};
}

std::vector<encoding::PropertyValue> optional_properties(const data::JobRun& run) {
  return {encoding::PropertyValue{run.memory_mb}, encoding::PropertyValue{run.cpu_cores},
          encoding::PropertyValue{run.algorithm}};
}

// Containers of models (the chaos soak keeps a std::vector of them) must
// move, not copy, them; nn::Module declares its moves noexcept for this.
static_assert(std::is_nothrow_move_constructible_v<BellamyModel>);

BellamyModel::BellamyModel(BellamyConfig config, std::uint64_t seed)
    : config_(config),
      rng_(seed),
      property_encoder_(encoding::PropertyEncoder::Config{config.property_dim, {}}) {
  if (config_.num_essential != 4 || config_.num_optional != 3) {
    // The property extraction below follows the fixed C3O schema; other
    // schemas would need custom extractors.
    throw std::invalid_argument(
        "BellamyModel: this build uses the C3O property schema (4 essential, 3 optional)");
  }
  build(rng_.next());
}

void BellamyModel::build(std::uint64_t dropout_seed) {
  const auto& c = config_;

  // f: scale-out modeling, 3 -> hidden -> F, SELU, biased.
  auto& f1 = f_.emplace<nn::Linear>(c.scaleout_input, c.scaleout_hidden, true, c.init, rng_,
                                    "f.l1");
  f_.emplace<nn::Selu>();
  auto& f2 =
      f_.emplace<nn::Linear>(c.scaleout_hidden, c.scaleout_out, true, c.init, rng_, "f.l2");
  f_.emplace<nn::Selu>();
  f_linears_ = {&f1, &f2};

  // g: encoder, N -> hidden -> M, SELU, no bias, dropout between layers.
  g_.emplace<nn::Linear>(c.property_dim, c.encoder_hidden, false, c.init, rng_, "g.l1");
  g_.emplace<nn::Selu>();
  {
    auto drop = std::make_unique<nn::AlphaDropout>(c.dropout, util::Rng(dropout_seed));
    g_dropout_ = drop.get();
    g_.add(std::move(drop));
  }
  g_.emplace<nn::Linear>(c.encoder_hidden, c.code_dim, false, c.init, rng_, "g.l2");
  g_.emplace<nn::Selu>();

  // h: decoder, M -> hidden -> N, no bias, tanh output (§IV-A).
  h_.emplace<nn::Linear>(c.code_dim, c.encoder_hidden, false, c.init, rng_, "h.l1");
  h_.emplace<nn::Selu>();
  {
    auto drop = std::make_unique<nn::AlphaDropout>(c.dropout, util::Rng(dropout_seed ^ 0x9e37ULL));
    h_dropout_ = drop.get();
    h_.add(std::move(drop));
  }
  h_.emplace<nn::Linear>(c.encoder_hidden, c.property_dim, false, c.init, rng_, "h.l2");
  h_.emplace<nn::Tanh>();

  // z: predictor, combined -> hidden -> 1, SELU, biased.
  auto& z1 = z_.emplace<nn::Linear>(c.combined_dim(), c.predictor_hidden, true, c.init, rng_,
                                    "z.l1");
  z_.emplace<nn::Selu>();
  auto& z2 = z_.emplace<nn::Linear>(c.predictor_hidden, 1, true, c.init, rng_, "z.l2");
  z_.emplace<nn::Selu>();
  z_linears_ = {&z1, &z2};
}

namespace {

// The seven fields essential_properties and optional_properties read: runs
// with equal fields yield the same property list, so encode_runs keys its
// context dedup on exactly these.
auto context_fields(const data::JobRun& r) {
  return std::tie(r.node_type, r.job_parameters, r.dataset_size_mb, r.data_characteristics,
                  r.memory_mb, r.cpu_cores, r.algorithm);
}

struct ContextHash {
  std::size_t operator()(const data::JobRun* run) const {
    return std::apply([](const auto&... f) {
      std::size_t h = 0;
      ((h = (h ^ std::hash<std::decay_t<decltype(f)>>{}(f)) * 0x100000001b3ULL), ...);
      return h;
    }, context_fields(*run));
  }
};

struct SameContext {
  bool operator()(const data::JobRun* a, const data::JobRun* b) const {
    return context_fields(*a) == context_fields(*b);
  }
};

}  // namespace

void BellamyModel::require_normalization(const char* caller) const {
  if (!norm_fitted_) {
    throw std::logic_error(std::string(caller) + ": fit_normalization was never called "
                                                 "(pre-train or load a checkpoint first)");
  }
}

BellamyEncodedRuns BellamyModel::encode_runs(std::span<const data::JobRun> runs) const {
  if (runs.empty()) throw std::invalid_argument("BellamyModel::encode_runs: no runs");
  // Runs routinely share a context (a scale-out sweep varies only x), so a
  // run whose context was seen before copies that run's prop_row block; only
  // a new context is vectorized.  Within new contexts each distinct property
  // value is vectorized once, and the stacked property matrix stores its
  // vector exactly once, in first-use order.
  const std::size_t r = runs.size();
  const std::size_t ppr = config_.props_per_sample();
  static std::atomic<std::uint64_t> next_encode_id{1};
  BellamyEncodedRuns encoded;
  encoded.encode_id = next_encode_id.fetch_add(1, std::memory_order_relaxed);
  encoded.num_runs = r;
  encoded.scaleout_raw = nn::Matrix(r, 3);
  encoded.targets_raw = nn::Matrix(r, 1);
  encoded.prop_row.resize(r * ppr);
  std::unordered_map<const data::JobRun*, std::size_t, ContextHash, SameContext> context_run;
  std::unordered_map<encoding::PropertyValue, std::size_t> value_row;
  std::vector<std::vector<double>> rows;
  for (std::size_t i = 0; i < r; ++i) {
    const auto& run = runs[i];
    if (run.scale_out < 1) {
      throw std::invalid_argument("BellamyModel::encode_runs: scale-out must be >= 1");
    }
    const double x = static_cast<double>(run.scale_out);
    encoded.scaleout_raw(i, 0) = 1.0 / x;
    encoded.scaleout_raw(i, 1) = std::log(x);
    encoded.scaleout_raw(i, 2) = x;
    encoded.targets_raw(i, 0) = run.runtime_s;

    auto slot = encoded.prop_row.begin() + static_cast<std::ptrdiff_t>(i * ppr);
    const auto [seen, is_new] = context_run.try_emplace(&run, i);
    if (!is_new) {
      const auto first = encoded.prop_row.begin() + static_cast<std::ptrdiff_t>(seen->second * ppr);
      std::copy(first, first + static_cast<std::ptrdiff_t>(ppr), slot);
      continue;
    }
    const auto ess = essential_properties(run);
    const auto opt = optional_properties(run);
    for (const auto* props : {&ess, &opt}) {
      for (const auto& p : *props) {
        const auto [it, inserted] = value_row.try_emplace(p, rows.size());
        if (inserted) rows.push_back(property_encoder_.encode(it->first));
        *slot++ = it->second;
      }
    }
  }
  encoded.properties = nn::Matrix(rows.size(), config_.property_dim);
  for (std::size_t row = 0; row < rows.size(); ++row) {
    for (std::size_t j = 0; j < rows[row].size(); ++j) encoded.properties(row, j) = rows[row][j];
  }
  return encoded;
}

BellamyBatch BellamyModel::gather_batch(const BellamyEncodedRuns& encoded,
                                        std::span<const std::size_t> indices,
                                        BellamyGatherCache* cache) const {
  BellamyBatch batch;
  gather_batch(encoded, indices, batch, cache);
  return batch;
}

void BellamyModel::gather_batch(const BellamyEncodedRuns& encoded,
                                std::span<const std::size_t> indices, BellamyBatch& batch,
                                BellamyGatherCache* cache) const {
  if (indices.empty()) {
    throw std::invalid_argument("BellamyModel::gather_batch: empty index set");
  }
  for (const std::size_t i : indices) {
    if (i >= encoded.num_runs) {
      throw std::out_of_range("BellamyModel::gather_batch: run index out of range");
    }
  }
  const std::size_t b = indices.size();
  const std::size_t ppr = config_.props_per_sample();
  batch.batch_size = b;
  batch.scaleout_raw.resize(b, 3);
  batch.targets_raw.resize(b, 1);
  batch.prop_row.resize(b * ppr);

  // Remap the set-wide unique rows to a batch-local unique set (first-use
  // order keeps the gather deterministic).  Per-thread scratch, like the
  // GEMM panel: local_row is all kUnused between calls (the entries a call
  // sets are reset before it returns), so no gather allocates once warm.
  constexpr std::size_t kUnused = static_cast<std::size_t>(-1);
  thread_local std::vector<std::size_t> local_row;
  thread_local std::vector<std::size_t> used_rows;
  if (local_row.size() < encoded.properties.rows()) {
    local_row.resize(encoded.properties.rows(), kUnused);
  }
  used_rows.clear();
  for (std::size_t bi = 0; bi < b; ++bi) {
    const std::size_t i = indices[bi];
    for (std::size_t j = 0; j < 3; ++j) batch.scaleout_raw(bi, j) = encoded.scaleout_raw(i, j);
    batch.targets_raw(bi, 0) = encoded.targets_raw(i, 0);
    for (std::size_t p = 0; p < ppr; ++p) {
      const std::size_t global = encoded.prop_row[i * ppr + p];
      if (local_row[global] == kUnused) {
        local_row[global] = used_rows.size();
        used_rows.push_back(global);
      }
      batch.prop_row[bi * ppr + p] = local_row[global];
    }
  }
  for (const std::size_t global : used_rows) local_row[global] = kUnused;
  // Small corpora make consecutive batches hit the same unique-row set
  // (every batch sees all contexts); a cheap hash compare (verified exactly)
  // then reuses the previously gathered property block instead of copying
  // row by row.  Multiplicities still differ per batch and are recomputed.
  const std::uint64_t rows_hash = util::fnv1a64_bytes(
      used_rows.data(), used_rows.size() * sizeof(used_rows[0]));
  if (cache && cache->encode_id == encoded.encode_id && cache->rows_hash == rows_hash &&
      cache->used_rows == used_rows) {
    batch.properties = cache->properties;
    ++cache->reuses;
  } else {
    encoded.properties.gather_rows_into(used_rows, batch.properties);
    if (cache) {
      cache->encode_id = encoded.encode_id;
      cache->rows_hash = rows_hash;
      cache->used_rows = used_rows;
      cache->properties = batch.properties;
    }
  }
  batch.prop_weight.assign(used_rows.size(), 0.0);
  for (const std::size_t row : batch.prop_row) batch.prop_weight[row] += 1.0;
}

BellamyBatch BellamyModel::make_batch(const std::vector<data::JobRun>& runs) const {
  if (runs.empty()) throw std::invalid_argument("BellamyModel::make_batch: empty batch");
  const BellamyEncodedRuns encoded = encode_runs(runs);
  std::vector<std::size_t> all(runs.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return gather_batch(encoded, all);
}

void BellamyModel::fit_normalization(const std::vector<data::JobRun>& runs) {
  if (runs.empty()) {
    throw std::invalid_argument("BellamyModel::fit_normalization: no runs");
  }
  const BellamyEncodedRuns batch = encode_runs(runs);
  const std::size_t count = batch.num_runs;
  for (std::size_t j = 0; j < 3; ++j) {
    double lo = batch.scaleout_raw(0, j);
    double hi = lo;
    for (std::size_t i = 1; i < count; ++i) {
      lo = std::min(lo, batch.scaleout_raw(i, j));
      hi = std::max(hi, batch.scaleout_raw(i, j));
    }
    scaleout_min_(0, j) = lo;
    scaleout_max_(0, j) = hi;
  }
  if (config_.standardize_target) {
    double sum = 0.0;
    for (std::size_t i = 0; i < count; ++i) sum += batch.targets_raw(i, 0);
    target_mean_ = sum / static_cast<double>(count);
    double var = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      const double d = batch.targets_raw(i, 0) - target_mean_;
      var += d * d;
    }
    target_std_ = std::sqrt(var / static_cast<double>(count));
    if (target_std_ < 1e-9) target_std_ = std::max(1.0, std::abs(target_mean_) * 0.25);
  } else {
    // Paper-faithful mode: the network predicts raw seconds.
    target_mean_ = 0.0;
    target_std_ = 1.0;
  }
  norm_fitted_ = true;
}

void BellamyModel::normalize_scaleout(const nn::Matrix& raw, nn::Matrix& out) const {
  out = raw;
  for (std::size_t j = 0; j < 3; ++j) {
    const double lo = scaleout_min_(0, j);
    const double range = scaleout_max_(0, j) - lo;
    for (std::size_t i = 0; i < out.rows(); ++i) {
      out(i, j) = range > 1e-12 ? (out(i, j) - lo) / range : out(i, j) - lo;
    }
  }
}

void BellamyModel::normalize_targets(const nn::Matrix& raw, nn::Matrix& out) const {
  out = raw;
  out.apply_inplace([this](double seconds) { return (seconds - target_mean_) / target_std_; });
}

double BellamyModel::denormalize_target(double network_value) const {
  return network_value * target_std_ + target_mean_;
}

BellamyForward BellamyModel::forward(const BellamyBatch& batch, bool training) {
  const ForwardView view = forward_pass(batch, training, /*decode=*/true);
  BellamyForward fw;
  fw.prediction_raw = ws_.prediction_raw;
  fw.prediction_norm = *view.prediction_norm;
  fw.codes = *view.codes;
  fw.reconstruction = *view.reconstruction;
  fw.combined = ws_.combined;
  fw.prop_row = batch.prop_row;
  return fw;
}

BellamyModel::ForwardView BellamyModel::forward_pass(const BellamyBatch& batch, bool training,
                                                     bool decode) {
  require_normalization("BellamyModel::forward");
  set_training(training);

  ForwardView fw{};
  normalize_scaleout(batch.scaleout_raw, ws_.scaleout);
  const nn::Matrix& e = f_.forward(ws_.scaleout);        // (B x F)
  fw.codes = &g_.forward(batch.properties);              // (U x M) unique rows only
  if (decode) fw.reconstruction = &h_.forward(*fw.codes);  // (U x N)
  assemble_combined(e, {}, *fw.codes, batch.prop_row, ws_.combined);

  fw.prediction_norm = &z_.forward(ws_.combined);  // (B x 1)
  ws_.prediction_raw = *fw.prediction_norm;
  ws_.prediction_raw.apply_inplace([this](double v) { return denormalize_target(v); });
  return fw;
}

double BellamyModel::reconstruction_mse(const nn::Matrix& reconstruction,
                                        const BellamyBatch& batch, nn::Matrix* grad) const {
  // MSE over the stacked (B*(m+n) x N) matrix, computed on the unique rows
  // weighted by multiplicity: duplicate rows reconstruct identically, so
  // their terms are the unique-row terms counted prop_weight times.
  const std::size_t u = batch.num_unique_properties();
  const std::size_t cols = config_.property_dim;
  const double denom =
      static_cast<double>(batch.prop_row.size()) * static_cast<double>(cols);
  if (grad) grad->resize(u, cols);
  double total = 0.0;
  for (std::size_t r = 0; r < u; ++r) {
    const double weight = batch.prop_weight[r];
    for (std::size_t c = 0; c < cols; ++c) {
      const double e = reconstruction(r, c) - batch.properties(r, c);
      total += weight * e * e;
      if (grad) (*grad)(r, c) = weight * 2.0 * e / denom;
    }
  }
  return total / denom;
}

BellamyLoss BellamyModel::runtime_losses(const ForwardView& fw, const BellamyBatch& batch,
                                         bool grad) {
  normalize_targets(batch.targets_raw, ws_.targets_norm);
  BellamyLoss loss;
  loss.huber = nn::huber_loss(*fw.prediction_norm, ws_.targets_norm, config_.huber_delta,
                              grad ? &ws_.grad_prediction : nullptr);
  loss.mae_seconds = nn::mae_loss(ws_.prediction_raw, batch.targets_raw, nullptr);
  return loss;
}

BellamyLoss BellamyModel::train_step(const BellamyBatch& batch, double reconstruction_weight) {
  // Only what the loss and the optimizer need is computed: the decoder h
  // runs only when the reconstruction term is weighted in, and gradients
  // flow only into components that have a trainable parameter (the
  // optimizer reads no other).  Every trainable gradient keeps its bits; h's
  // dropout stream feeds only h.
  const bool decode = reconstruction_weight > 0.0;
  const ForwardView fw = forward_pass(batch, /*training=*/true, decode);

  BellamyLoss loss = runtime_losses(fw, batch, /*grad=*/true);

  // z forms dL/d(combined) only when f or g trains.
  const bool into_f = f_.has_trainable();
  const bool into_g = g_.has_trainable();
  const nn::Matrix* grad_combined = nullptr;
  if (into_f || into_g) {
    grad_combined = &z_.backward(ws_.grad_prediction);
  } else {
    z_.backward_params(ws_.grad_prediction);
  }

  const std::size_t F = config_.scaleout_out;
  if (into_f) {
    grad_combined->slice_cols_into(0, F, ws_.grad_f);
    f_.backward_params(ws_.grad_f);
  }

  if (decode) {
    loss.reconstruction = reconstruction_mse(*fw.reconstruction, batch, &ws_.grad_recon);
    ws_.grad_recon *= reconstruction_weight;
  }

  if (into_g) {
    const std::size_t b = batch.batch_size;
    const std::size_t m = config_.num_essential;
    const std::size_t n = config_.num_optional;
    const std::size_t M = config_.code_dim;
    const std::size_t ppr = config_.props_per_sample();
    const nn::Matrix& gc = *grad_combined;
    // Scatter the code parts of grad_combined.  A unique property row that
    // serves several stacked slots receives the SUM of their gradients (its
    // code fed all of them), accumulated in slot order — the dedup-aware
    // equivalent of the stacked scatter.
    nn::Matrix& grad_codes = ws_.grad_codes;
    grad_codes.assign(batch.num_unique_properties(), M, 0.0);
    for (std::size_t i = 0; i < b; ++i) {
      for (std::size_t p = 0; p < m; ++p) {
        const std::size_t crow = batch.prop_row[i * ppr + p];
        for (std::size_t j = 0; j < M; ++j) {
          grad_codes(crow, j) += gc(i, F + p * M + j);
        }
      }
      for (std::size_t j = 0; j < M; ++j) {
        const double go = n ? gc(i, F + m * M + j) / static_cast<double>(n) : 0.0;
        for (std::size_t p = 0; p < n; ++p) {
          grad_codes(batch.prop_row[i * ppr + m + p], j) += go;
        }
      }
    }
    if (decode) grad_codes += h_.backward(ws_.grad_recon);
    g_.backward_params(grad_codes);
  } else if (decode) {
    h_.backward_params(ws_.grad_recon);
  }

  loss.total = loss.huber + reconstruction_weight * loss.reconstruction;
  return loss;
}

BellamyLoss BellamyModel::evaluate(const BellamyBatch& batch, double reconstruction_weight) {
  const bool decode = reconstruction_weight > 0.0;
  const ForwardView fw = forward_pass(batch, /*training=*/false, decode);
  BellamyLoss loss = runtime_losses(fw, batch, /*grad=*/false);
  if (decode) loss.reconstruction = reconstruction_mse(*fw.reconstruction, batch, nullptr);
  loss.total = loss.huber + reconstruction_weight * loss.reconstruction;
  return loss;
}

std::vector<double> BellamyModel::predict_batch(const std::vector<data::JobRun>& runs) const {
  if (runs.empty()) return {};
  require_normalization("BellamyModel::predict_batch");
  // Very large batches are split into contiguous chunks across the global
  // ThreadPool.  What a single B=4096 pass loses is allocator churn, not
  // memory bandwidth: its (B x width) temporaries cross glibc's mmap
  // threshold, so every call faults in fresh pages (~420-560 minor page
  // faults per serial call on a 4-vCPU Xeon host, ~7-10 per chunked call).
  // benchmark/'s parallel.chunked_over_serial measures the ratio on the
  // sweep workload.  Every output row's arithmetic is independent of the
  // batch it rides in and every chunk writes a disjoint output range, so the
  // chunked result is bit-identical under any schedule (chunks only need to
  // run exactly once).
  if (predict_chunk_threshold_ > 0 && runs.size() >= predict_chunk_threshold_ &&
      parallel::ThreadPool::global().size() > 1) {
    return predict_batch_chunked(runs);
  }
  return predict_batch_serial(runs);
}

void BellamyModel::assemble_combined(const nn::Matrix& e, std::span<const std::size_t> e_row,
                                     const nn::Matrix& codes,
                                     const std::vector<std::size_t>& prop_row,
                                     nn::Matrix& combined) const {
  const std::size_t m = config_.num_essential;
  const std::size_t n = config_.num_optional;
  const std::size_t M = config_.code_dim;
  const std::size_t F = config_.scaleout_out;
  const std::size_t ppr = config_.props_per_sample();
  const std::size_t b = prop_row.size() / ppr;

  combined.resize(b, config_.combined_dim());  // every element is written below
  for (std::size_t i = 0; i < b; ++i) {
    const std::size_t erow = e_row.empty() ? i : e_row[i];
    for (std::size_t j = 0; j < F; ++j) combined(i, j) = e(erow, j);
    for (std::size_t p = 0; p < m; ++p) {
      const std::size_t crow = prop_row[i * ppr + p];
      for (std::size_t j = 0; j < M; ++j) combined(i, F + p * M + j) = codes(crow, j);
    }
    for (std::size_t j = 0; j < M; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < n; ++p) acc += codes(prop_row[i * ppr + m + p], j);
      combined(i, F + m * M + j) = n ? acc / static_cast<double>(n) : 0.0;
    }
  }
}

std::vector<double> BellamyModel::predict_batch_serial(std::span<const data::JobRun> runs) const {
  // Inference needs the property codes but never the reconstruction, so the
  // decoder h is skipped entirely.  encode_runs dedups the property rows, so
  // the encoder g runs over the UNIQUE rows only, and f runs once per
  // distinct scale-out; both are gathered back per sample.  Only z costs
  // O(B).  Every module is row-wise, so each row's arithmetic is identical
  // to the stacked forward and predictions match the per-sample path bit
  // for bit.
  const BellamyEncodedRuns encoded = encode_runs(runs);
  std::unordered_map<int, std::size_t> scale_index;  // scale-out -> row of e
  std::vector<std::size_t> first_run;                // run that introduced each row
  std::vector<std::size_t> e_row(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto [it, inserted] = scale_index.try_emplace(runs[i].scale_out, first_run.size());
    if (inserted) first_run.push_back(i);
    e_row[i] = it->second;
  }

  nn::Matrix xs;
  normalize_scaleout(encoded.scaleout_raw.gather_rows(first_run), xs);
  const nn::Matrix e = f_.infer(xs);                      // (S x F), S distinct scale-outs
  const nn::Matrix codes = g_.infer(encoded.properties);  // (U x M)

  nn::Matrix combined;
  assemble_combined(e, e_row, codes, encoded.prop_row, combined);
  const nn::Matrix prediction = z_.infer(combined);  // (B x 1)
  std::vector<double> out(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) out[i] = denormalize_target(prediction(i, 0));
  return out;
}

std::uint64_t BellamyModel::state_stamp() const {
  // Stable hash over the architecture config, every parameter tensor, and
  // the normalization state — everything a prediction depends on.  The
  // optimizer mutates parameters through raw pointers, so the stamp is
  // recomputed from the values (one pass over ~2k doubles) rather than
  // tracked.  The config fields are included so two models that happen to
  // share parameter bytes but differ in architecture never share a stamp
  // (fields are hashed individually — raw struct bytes would include
  // indeterminate padding).
  std::uint64_t h = util::kFnv1a64Seed;
  const auto mix = [&h](const auto& v) { h = util::fnv1a64_bytes(&v, sizeof(v), h); };
  mix(config_.scaleout_input);
  mix(config_.scaleout_hidden);
  mix(config_.scaleout_out);
  mix(config_.property_dim);
  mix(config_.encoder_hidden);
  mix(config_.code_dim);
  mix(config_.predictor_hidden);
  mix(config_.num_essential);
  mix(config_.num_optional);
  mix(config_.dropout);
  mix(config_.huber_delta);
  mix(config_.init);
  mix(config_.standardize_target);
  auto* self = const_cast<BellamyModel*>(this);
  for (const nn::Parameter* p : self->parameters()) {
    const auto flat = p->value.flat();
    h = util::fnv1a64_bytes(flat.data(), flat.size() * sizeof(double), h);
  }
  h = util::fnv1a64_bytes(scaleout_min_.data(), 3 * sizeof(double), h);
  h = util::fnv1a64_bytes(scaleout_max_.data(), 3 * sizeof(double), h);
  h = util::fnv1a64_bytes(&target_mean_, sizeof(double), h);
  h = util::fnv1a64_bytes(&target_std_, sizeof(double), h);
  const unsigned char fitted = norm_fitted_ ? 1 : 0;
  return util::fnv1a64_bytes(&fitted, 1, h);
}

std::vector<double> BellamyModel::predict_batch_chunked(const std::vector<data::JobRun>& runs,
                                                        parallel::ThreadPool* pool,
                                                        std::size_t num_chunks) const {
  if (runs.empty()) return {};
  require_normalization("BellamyModel::predict_batch_chunked");
  parallel::ThreadPool& p = pool ? *pool : parallel::ThreadPool::global();
  const std::size_t b = runs.size();
  const std::size_t chunks = std::min(b, num_chunks ? num_chunks : std::max<std::size_t>(
                                                                       1, p.size()));
  // From inside the pool, nested fan-out would be safe (parallel_for helps
  // drain the queue) but the outer fan-out already owns the workers — run
  // inline instead of competing for them.
  if (chunks <= 1 || p.owns_current_thread()) return predict_batch_serial(runs);

  // Inference caches nothing, so every chunk reads this model directly, and
  // its queries in place: a chunk is a subspan, nothing is copied.
  const std::size_t chunk_size = (b + chunks - 1) / chunks;
  std::vector<double> out(b);
  parallel::parallel_for(
      chunks,
      [&](std::size_t c) {
        const std::size_t begin = c * chunk_size;
        if (begin >= b) return;
        const std::size_t end = std::min(b, begin + chunk_size);
        const auto preds = predict_batch_serial(std::span(runs).subspan(begin, end - begin));
        std::copy(preds.begin(), preds.end(), out.begin() + static_cast<std::ptrdiff_t>(begin));
      },
      &p);
  return out;
}

double BellamyModel::predict_one(const data::JobRun& run) const {
  require_normalization("BellamyModel::predict_one");
  return predict_batch_serial(std::span(&run, 1))[0];
}

std::vector<nn::Parameter*> BellamyModel::parameters() {
  std::vector<nn::Parameter*> ps;
  for (nn::Sequential* s : {&f_, &g_, &h_, &z_}) {
    const auto sub = s->parameters();
    ps.insert(ps.end(), sub.begin(), sub.end());
  }
  return ps;
}

void BellamyModel::set_trainable_components(bool f_on, bool g_on, bool h_on, bool z_on) {
  f_.set_trainable(f_on);
  g_.set_trainable(g_on);
  h_.set_trainable(h_on);
  z_.set_trainable(z_on);
}

void BellamyModel::reinit_f() {
  for (nn::Linear* l : f_linears_) l->reinitialize(config_.init, rng_);
}

void BellamyModel::reinit_z() {
  for (nn::Linear* l : z_linears_) l->reinitialize(config_.init, rng_);
}

void BellamyModel::release_training_workspace() {
  ws_ = {};
  for (nn::Sequential* s : {&f_, &g_, &h_, &z_}) s->release_buffers();
}

void BellamyModel::set_training(bool training) {
  f_.set_training(training);
  g_.set_training(training);
  h_.set_training(training);
  z_.set_training(training);
}

void BellamyModel::set_dropout_rate(double rate) {
  g_dropout_->set_rate(rate);
  h_dropout_->set_rate(rate);
}

nn::Checkpoint BellamyModel::to_checkpoint() const {
  nn::Checkpoint ckpt;
  auto* self = const_cast<BellamyModel*>(this);
  nn::store_parameters(ckpt, self->f_);
  nn::store_parameters(ckpt, self->g_);
  nn::store_parameters(ckpt, self->h_);
  nn::store_parameters(ckpt, self->z_);
  ckpt.matrices.emplace("norm.scaleout_min", scaleout_min_);
  ckpt.matrices.emplace("norm.scaleout_max", scaleout_max_);
  ckpt.matrices.emplace("norm.target", nn::Matrix{{target_mean_, target_std_}});

  const auto& c = config_;
  ckpt.meta["format"] = "bellamy-model";
  ckpt.meta["norm_fitted"] = norm_fitted_ ? "1" : "0";
  ckpt.meta["scaleout_hidden"] = std::to_string(c.scaleout_hidden);
  ckpt.meta["scaleout_out"] = std::to_string(c.scaleout_out);
  ckpt.meta["property_dim"] = std::to_string(c.property_dim);
  ckpt.meta["encoder_hidden"] = std::to_string(c.encoder_hidden);
  ckpt.meta["code_dim"] = std::to_string(c.code_dim);
  ckpt.meta["predictor_hidden"] = std::to_string(c.predictor_hidden);
  ckpt.meta["dropout"] = util::format("%.17g", c.dropout);
  ckpt.meta["huber_delta"] = util::format("%.17g", c.huber_delta);
  ckpt.meta["init"] = nn::init_name(c.init);
  ckpt.meta["standardize_target"] = c.standardize_target ? "1" : "0";
  return ckpt;
}

BellamyModel BellamyModel::from_checkpoint(const nn::Checkpoint& ckpt) {
  if (ckpt.meta_value("format") != "bellamy-model") {
    throw std::runtime_error("BellamyModel::from_checkpoint: not a bellamy-model checkpoint");
  }
  // A checkpoint may come off the wire, so nothing in it is trusted.  A valid
  // one stores every weight matrix, so no layer needs more values than the
  // checkpoint holds; widths that claim more cannot restore and must not size
  // an allocation first.
  std::size_t values = 0;
  for (const auto& [name, m] : ckpt.matrices) values += m.size();
  const auto width = [&](const char* key) {
    const std::size_t w = std::stoul(ckpt.meta_value(key));
    if (w > values) {
      throw std::runtime_error(std::string("BellamyModel::from_checkpoint: ") + key + " " +
                               std::to_string(w) + " exceeds the checkpoint's " +
                               std::to_string(values) + " values");
    }
    return w;
  };
  const auto norm = [&](const char* name, std::size_t cols) -> const nn::Matrix& {
    const nn::Matrix& m = ckpt.matrix(name);
    if (m.rows() != 1 || m.cols() != cols) {
      throw std::runtime_error(std::string("BellamyModel::from_checkpoint: '") + name +
                               "' is " + m.shape_str() + ", expected 1x" +
                               std::to_string(cols));
    }
    return m;
  };
  BellamyConfig cfg;
  cfg.scaleout_hidden = width("scaleout_hidden");
  cfg.scaleout_out = width("scaleout_out");
  cfg.property_dim = width("property_dim");
  cfg.encoder_hidden = width("encoder_hidden");
  cfg.code_dim = width("code_dim");
  cfg.predictor_hidden = width("predictor_hidden");
  const std::pair<std::size_t, std::size_t> layers[] = {
      {cfg.scaleout_input, cfg.scaleout_hidden}, {cfg.scaleout_hidden, cfg.scaleout_out},
      {cfg.property_dim, cfg.encoder_hidden},    {cfg.encoder_hidden, cfg.code_dim},
      {cfg.combined_dim(), cfg.predictor_hidden}};
  for (const auto& [in, out] : layers) {
    if (in != 0 && out > values / in) {
      throw std::runtime_error("BellamyModel::from_checkpoint: a " + std::to_string(in) + "x" +
                               std::to_string(out) + " layer exceeds the checkpoint's " +
                               std::to_string(values) + " values");
    }
  }
  cfg.dropout = util::parse_double(ckpt.meta_value("dropout"));
  cfg.huber_delta = util::parse_double(ckpt.meta_value("huber_delta"));
  // parse_double accepts "nan" and "inf"; the comparisons are written so
  // that NaN fails them.  A model with these values would load, then fail
  // (or train on NaN losses) at its first refit.
  if (!(cfg.huber_delta > 0.0 && std::isfinite(cfg.huber_delta))) {
    throw std::runtime_error("BellamyModel::from_checkpoint: huber_delta " +
                             ckpt.meta_value("huber_delta") + " is not finite and > 0");
  }
  if (!(cfg.dropout >= 0.0 && cfg.dropout < 1.0)) {
    throw std::runtime_error("BellamyModel::from_checkpoint: dropout " +
                             ckpt.meta_value("dropout") + " is outside [0, 1)");
  }
  if (ckpt.meta.count("standardize_target")) {
    cfg.standardize_target = ckpt.meta_value("standardize_target") == "1";
  }
  const std::string init = ckpt.meta_value("init");
  if (init == "he_normal") cfg.init = nn::Init::kHeNormal;
  else if (init == "lecun_normal") cfg.init = nn::Init::kLeCunNormal;
  else if (init == "xavier_normal") cfg.init = nn::Init::kXavierNormal;
  else throw std::runtime_error("BellamyModel::from_checkpoint: unknown init '" + init + "'");

  BellamyModel model(cfg, /*seed=*/0xbe11a3ULL);
  for (nn::Sequential* s : {&model.f_, &model.g_, &model.h_, &model.z_}) {
    nn::restore_parameters(ckpt, *s);
  }
  model.scaleout_min_ = norm("norm.scaleout_min", 3);
  model.scaleout_max_ = norm("norm.scaleout_max", 3);
  const nn::Matrix& t = norm("norm.target", 2);
  model.target_mean_ = t(0, 0);
  model.target_std_ = t(0, 1);
  model.norm_fitted_ = ckpt.meta_value("norm_fitted") == "1";
  return model;
}

void BellamyModel::save(const std::string& path) const { to_checkpoint().save_file(path); }

BellamyModel BellamyModel::load(const std::string& path) {
  return from_checkpoint(nn::Checkpoint::load_file(path));
}

std::vector<nn::Matrix> BellamyModel::snapshot_parameters() {
  std::vector<nn::Matrix> snap;
  for (nn::Parameter* p : parameters()) snap.push_back(p->value);
  return snap;
}

void BellamyModel::restore_parameters(const std::vector<nn::Matrix>& snapshot) {
  const auto params = parameters();
  if (snapshot.size() != params.size()) {
    throw std::invalid_argument("BellamyModel::restore_parameters: snapshot size mismatch");
  }
  for (std::size_t i = 0; i < params.size(); ++i) params[i]->value = snapshot[i];
}

}  // namespace bellamy::core

#pragma once
// Experiment drivers reproducing the paper's two evaluation series:
//
//  * run_cross_context   — §IV-C.1 "Ad Hoc Cross-Context Learning" on the
//    C3O-like traces (Figs. 5-7, training-time paragraph).
//  * run_cross_environment — §IV-C.2 "Potential of Ad Hoc Cross-Environment
//    Learning": pre-train on C3O-like cloud traces, reuse on Bell-like
//    private-cluster traces (Fig. 8, timing paragraph).
//
// Both emit flat per-prediction EvalRecords and per-fit FitRecords; the bench
// binaries aggregate them into the published tables/series.

#include <cstdint>
#include <string>
#include <vector>

#include "core/bellamy_config.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"

namespace bellamy::eval {

struct EvalRecord {
  std::string algorithm;
  std::string model;       ///< "NNLS", "Bell", "Bellamy (local)", ...
  std::string task;        ///< "interpolation" | "extrapolation"
  std::string context_key;
  std::size_t num_points = 0;
  double predicted = 0.0;
  double actual = 0.0;
  double abs_error = 0.0;
  double rel_error = 0.0;
};

struct FitRecord {
  std::string algorithm;
  std::string model;
  std::size_t num_points = 0;
  double fit_seconds = 0.0;
  std::size_t epochs = 0;  ///< fine-tuning epochs (0 for the closed-form baselines)
};

struct ExperimentResult {
  std::vector<EvalRecord> evals;
  std::vector<FitRecord> fits;
};

struct CrossContextConfig {
  std::vector<std::string> algorithms;         ///< empty = all in the dataset
  std::size_t contexts_per_algorithm = 7;      ///< paper: 7, each node type covered
  std::size_t max_splits = 200;                ///< unique splits per #points
  std::size_t max_points = 6;                  ///< training points swept 0..max
  bool include_nnls = true;
  bool include_bell = true;
  bool include_local = true;
  bool include_filtered = true;
  bool include_full = true;
  core::BellamyConfig model_config;
  core::PreTrainConfig pretrain;
  core::FineTuneConfig finetune;
  /// Cap on the pre-training corpus size (0 = use all runs).  Lets quick
  /// benchmark runs bound single-core pre-training cost.
  std::size_t pretrain_sample_cap = 0;
  std::uint64_t seed = 2021;
  /// Worker threads for cross-validation split evaluation.  <= 1 evaluates
  /// the splits in order on the calling thread; N > 1 fans them out over a
  /// ThreadPool.  Every split builds its contenders from the same
  /// deterministic seeds / checkpoints, so records are bit-identical at any
  /// thread count (fit wall-times differ, predictions do not).
  std::size_t eval_threads = 1;
};

ExperimentResult run_cross_context(const data::Dataset& c3o, const CrossContextConfig& cfg);

struct CrossEnvironmentConfig {
  std::vector<std::string> algorithms;  ///< empty = all common to both datasets
  std::size_t max_splits = 500;
  std::size_t max_points = 6;
  bool include_nnls = true;
  bool include_bell = true;
  core::BellamyConfig model_config;
  core::PreTrainConfig pretrain;
  core::FineTuneConfig finetune;
  std::size_t pretrain_sample_cap = 0;  ///< 0 = use the full corpus
  std::uint64_t seed = 2022;
  /// Same contract as CrossContextConfig::eval_threads.
  std::size_t eval_threads = 1;
};

/// Pre-trains one model per algorithm on ALL C3O runs of that algorithm and
/// evaluates the four reuse strategies plus a local model on the Bell traces.
ExperimentResult run_cross_environment(const data::Dataset& c3o, const data::Dataset& bell,
                                       const CrossEnvironmentConfig& cfg);

/// Pick up to `count` evaluation contexts such that every node type occurring
/// in the groups appears at least once (paper: "assuring that each node type
/// is present at least once in one of the contexts").
std::vector<std::size_t> select_evaluation_contexts(
    const std::vector<data::ContextGroup>& groups, std::size_t count, util::Rng& rng);

}  // namespace bellamy::eval

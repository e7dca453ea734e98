#pragma once
// Accuracy-vs-refit-time Pareto sweep for the reduction policies.
//
// For each evaluation context the sweep pre-trains a base model on every
// OTHER context (the paper's cross-context setup), holds out a slice of the
// context's runs for evaluation, and then refits the base model twice per
// grid cell: once on the FULL remaining history (the reference point) and
// once on each (policy, budget) coreset.  Each cell reports wall-clock refit
// time (reduction included) and held-out MAE, normalised against the full
// refit, so the docs can plot the Pareto frontier and tests/eval/test_experiment.cpp
// (`ReductionSweep.*`) can pin the headline "N x cheaper within 5 % MAE" claim.
//
// Everything except wall-clock timing is deterministic: contexts, splits and
// coresets all derive from `ReductionSweepConfig::seed`.

#include <cstdint>
#include <string>
#include <vector>

#include "core/bellamy_config.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "reduce/reduction.hpp"

namespace bellamy::eval {

struct ReductionSweepConfig {
  /// Policies on the grid (default: every active policy).
  std::vector<reduce::ReductionPolicy> policies = {
      reduce::ReductionPolicy::kUniform, reduce::ReductionPolicy::kRecency,
      reduce::ReductionPolicy::kCoverage, reduce::ReductionPolicy::kLossAware};
  /// Coreset budgets on the grid.  Budgets >= the history size collapse to
  /// the reference point and are still reported (speedup ~ 1).
  std::vector<std::size_t> budgets = {8, 16, 32};
  std::size_t contexts = 4;      ///< evaluation contexts (node-type covering)
  double eval_fraction = 0.25;   ///< held-out slice of each context's runs
  core::BellamyConfig model_config;
  core::PreTrainConfig pretrain;
  /// Applied identically to the full and the reduced refits; keep
  /// mae_target_seconds at 0 so both run the same epoch count and the timing
  /// ratio reflects the data reduction, not early stopping.
  core::FineTuneConfig finetune;
  std::uint64_t seed = 2021;
};

/// One cell of the sweep, aggregated over all evaluation contexts.
struct ReductionPoint {
  std::string policy;            ///< reduce::policy_name
  std::size_t budget = 0;        ///< 0 for the full-history reference
  std::size_t input_runs = 0;    ///< summed history size across contexts
  std::size_t kept_runs = 0;     ///< summed coreset size across contexts
  double refit_seconds = 0.0;    ///< summed wall-clock: reduce + finetune
  double mae_seconds = 0.0;      ///< held-out MAE across contexts
  double scaleout_coverage = 1.0;  ///< worst-case bin coverage across contexts
  double refit_speedup = 1.0;    ///< full.refit_seconds / refit_seconds
  double mae_ratio = 1.0;        ///< mae_seconds / full.mae_seconds
};

struct ReductionSweepResult {
  ReductionPoint full;                  ///< the full-history reference refit
  std::vector<ReductionPoint> points;   ///< one per (policy, budget) cell
};

ReductionSweepResult run_reduction_sweep(const data::Dataset& c3o,
                                         const ReductionSweepConfig& cfg);

}  // namespace bellamy::eval

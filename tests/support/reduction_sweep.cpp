#include "support/reduction_sweep.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "core/bellamy_model.hpp"
#include "core/variants.hpp"
#include "eval/experiment.hpp"
#include "eval/metrics.hpp"
#include "util/rng.hpp"

namespace bellamy::eval {
namespace {

/// One evaluation context, prepared once and reused by every grid cell: the
/// history/holdout split plus a base model pre-trained on every OTHER
/// context, with its post-pretrain parameters snapshotted so each refit
/// starts from the identical state.
struct PreparedContext {
  std::string key;
  std::vector<data::JobRun> history;
  std::vector<data::JobRun> holdout;
  std::unique_ptr<core::BellamyModel> model;
  std::vector<nn::Matrix> base;
};

/// Split a context's runs into history and held-out slices.  Membership is a
/// seeded draw; BOTH slices preserve the original run order so the recency
/// policy still sees a meaningful history axis.
void split_runs(const std::vector<data::JobRun>& runs, double eval_fraction, util::Rng& rng,
                std::vector<data::JobRun>& history, std::vector<data::JobRun>& holdout) {
  const auto n = runs.size();
  auto want = static_cast<std::size_t>(eval_fraction * static_cast<double>(n));
  want = std::clamp<std::size_t>(want, 1, n - 1);  // both sides non-empty
  std::vector<bool> held(n, false);
  for (const std::size_t i : rng.sample_without_replacement(n, want)) held[i] = true;
  for (std::size_t i = 0; i < n; ++i) (held[i] ? holdout : history).push_back(runs[i]);
}

/// Restore the base parameters, reduce the history, fine-tune, and score the
/// holdout.  Returns wall-clock seconds of reduce + finetune (restore and
/// evaluation are bookkeeping, not refit cost).
double refit_and_score(PreparedContext& ctx, const reduce::ReductionConfig& reduction,
                       const core::FineTuneConfig& finetune, ErrorAccumulator& errors,
                       reduce::ReductionReport* report) {
  ctx.model->restore_parameters(ctx.base);
  const core::FineTuneConfig tuned = core::apply_reuse_strategy(
      core::ReuseStrategy::kPartialUnfreeze, *ctx.model, finetune);

  const auto start = std::chrono::steady_clock::now();
  const std::vector<data::JobRun> kept =
      reduce::reduce_runs(ctx.history, reduction, ctx.model.get(), report);
  core::finetune(*ctx.model, kept, tuned);
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;

  const std::vector<double> predicted = ctx.model->predict_batch(ctx.holdout);
  for (std::size_t i = 0; i < ctx.holdout.size(); ++i) {
    errors.add(predicted[i], ctx.holdout[i].runtime_s);
  }
  return elapsed.count();
}

}  // namespace

ReductionSweepResult run_reduction_sweep(const data::Dataset& c3o,
                                         const ReductionSweepConfig& cfg) {
  const std::vector<data::ContextGroup> groups = c3o.contexts();
  if (groups.empty()) throw std::invalid_argument("reduction sweep: empty dataset");
  if (cfg.budgets.empty() || cfg.policies.empty()) {
    throw std::invalid_argument("reduction sweep: empty grid");
  }

  util::Rng rng(cfg.seed);
  std::vector<std::size_t> picked =
      select_evaluation_contexts(groups, std::max<std::size_t>(cfg.contexts, 1), rng);

  // Prepare every context up front so all cells share the same splits and
  // base checkpoints.
  std::vector<PreparedContext> contexts;
  for (const std::size_t gi : picked) {
    const data::ContextGroup& group = groups[gi];
    if (group.runs.size() < 2) continue;
    PreparedContext ctx;
    ctx.key = group.key;
    split_runs(group.runs, cfg.eval_fraction, rng, ctx.history, ctx.holdout);
    ctx.model = std::make_unique<core::BellamyModel>(cfg.model_config, cfg.seed);
    const data::Dataset corpus = c3o.exclude_context(group.key);
    core::pretrain(*ctx.model, corpus.runs().empty() ? group.runs : corpus.runs(),
                   cfg.pretrain);
    ctx.base = ctx.model->snapshot_parameters();
    contexts.push_back(std::move(ctx));
  }
  if (contexts.empty()) throw std::invalid_argument("reduction sweep: no usable contexts");

  ReductionSweepResult result;

  // Reference: full-history refit per context.
  result.full.policy = reduce::policy_name(reduce::ReductionPolicy::kNone);
  ErrorAccumulator full_errors;
  for (PreparedContext& ctx : contexts) {
    reduce::ReductionReport report;
    result.full.refit_seconds +=
        refit_and_score(ctx, reduce::ReductionConfig{}, cfg.finetune, full_errors, &report);
    result.full.input_runs += report.input_runs;
    result.full.kept_runs += report.kept_runs;
  }
  result.full.mae_seconds = full_errors.stats().mae;

  // The (policy, budget) grid.
  for (const reduce::ReductionPolicy policy : cfg.policies) {
    for (const std::size_t budget : cfg.budgets) {
      reduce::ReductionConfig reduction;
      reduction.policy = policy;
      reduction.budget = budget;
      reduction.seed = cfg.seed;

      ReductionPoint point;
      point.policy = reduce::policy_name(policy);
      point.budget = budget;
      ErrorAccumulator errors;
      for (PreparedContext& ctx : contexts) {
        reduce::ReductionReport report;
        point.refit_seconds += refit_and_score(ctx, reduction, cfg.finetune, errors, &report);
        point.input_runs += report.input_runs;
        point.kept_runs += report.kept_runs;
        point.scaleout_coverage = std::min(point.scaleout_coverage, report.scaleout_coverage());
      }
      point.mae_seconds = errors.stats().mae;
      point.refit_speedup =
          point.refit_seconds > 0.0 ? result.full.refit_seconds / point.refit_seconds : 1.0;
      point.mae_ratio =
          result.full.mae_seconds > 0.0 ? point.mae_seconds / result.full.mae_seconds : 1.0;
      result.points.push_back(std::move(point));
    }
  }
  return result;
}

}  // namespace bellamy::eval

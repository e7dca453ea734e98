#include "eval/experiment.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "data/bell_generator.hpp"
#include "data/c3o_generator.hpp"
#include "data/ground_truth.hpp"
#include "eval/reduction_sweep.hpp"
#include "eval/report.hpp"
#include "util/rng.hpp"

namespace bellamy::eval {
namespace {

// Deliberately tiny configuration so the whole driver runs in seconds.
CrossContextConfig tiny_cross_context() {
  CrossContextConfig cfg;
  cfg.algorithms = {"grep"};
  cfg.contexts_per_algorithm = 2;
  cfg.max_splits = 3;
  cfg.max_points = 3;
  cfg.pretrain.epochs = 40;
  cfg.finetune.max_epochs = 60;
  cfg.finetune.patience = 30;
  cfg.seed = 7;
  return cfg;
}

TEST(SelectEvaluationContexts, CoversEveryNodeType) {
  const auto ds = data::C3OGenerator().generate_algorithm("pagerank");
  const auto groups = ds.contexts();
  util::Rng rng(1);
  const auto chosen = select_evaluation_contexts(groups, 7, rng);
  ASSERT_EQ(chosen.size(), 7u);
  std::set<std::string> nodes;
  for (auto i : chosen) nodes.insert(groups[i].runs.front().node_type);
  EXPECT_EQ(nodes.size(), data::c3o_node_catalog().size());
}

TEST(SelectEvaluationContexts, NoDuplicates) {
  const auto ds = data::C3OGenerator().generate_algorithm("sgd");
  const auto groups = ds.contexts();
  util::Rng rng(2);
  const auto chosen = select_evaluation_contexts(groups, 10, rng);
  const std::set<std::size_t> uniq(chosen.begin(), chosen.end());
  EXPECT_EQ(uniq.size(), chosen.size());
}

TEST(SelectEvaluationContexts, CapsAtGroupCount) {
  const auto ds = data::C3OGenerator().generate_algorithm("grep", 3);
  const auto groups = ds.contexts();
  util::Rng rng(3);
  EXPECT_EQ(select_evaluation_contexts(groups, 10, rng).size(), 3u);
  EXPECT_TRUE(select_evaluation_contexts({}, 5, rng).empty());
}

class CrossContextFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::C3OGeneratorConfig gcfg;
    gcfg.seed = 11;
    ds_ = new data::Dataset(data::C3OGenerator(gcfg).generate_algorithm("grep", 4));
    result_ = new ExperimentResult(run_cross_context(*ds_, tiny_cross_context()));
  }
  static void TearDownTestSuite() {
    delete ds_;
    delete result_;
    ds_ = nullptr;
    result_ = nullptr;
  }
  static data::Dataset* ds_;
  static ExperimentResult* result_;
};

data::Dataset* CrossContextFixture::ds_ = nullptr;
ExperimentResult* CrossContextFixture::result_ = nullptr;

TEST_F(CrossContextFixture, ProducesEvalRecords) {
  EXPECT_FALSE(result_->evals.empty());
  EXPECT_FALSE(result_->fits.empty());
}

TEST_F(CrossContextFixture, AllFiveModelsPresent) {
  const auto models = distinct_models(result_->evals);
  const std::set<std::string> expected{"NNLS", "Bell", "Bellamy (local)",
                                       "Bellamy (filtered)", "Bellamy (full)"};
  EXPECT_EQ(std::set<std::string>(models.begin(), models.end()), expected);
}

TEST_F(CrossContextFixture, TasksAreInterpolationAndExtrapolation) {
  std::set<std::string> tasks;
  for (const auto& r : result_->evals) tasks.insert(r.task);
  EXPECT_TRUE(tasks.count("interpolation"));
  EXPECT_TRUE(tasks.count("extrapolation"));
}

TEST_F(CrossContextFixture, BaselinesRespectMinimumPoints) {
  for (const auto& r : result_->evals) {
    if (r.model == "Bell") EXPECT_GE(r.num_points, 3u);
    if (r.model == "NNLS") EXPECT_GE(r.num_points, 1u);
    if (r.model == "Bellamy (local)") EXPECT_GE(r.num_points, 1u);
  }
}

TEST_F(CrossContextFixture, PretrainedBellamyEvaluatedAtZeroPoints) {
  bool found = false;
  for (const auto& r : result_->evals) {
    if (r.model == "Bellamy (full)" && r.num_points == 0) {
      EXPECT_EQ(r.task, "extrapolation");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(CrossContextFixture, ErrorsAreConsistent) {
  for (const auto& r : result_->evals) {
    EXPECT_GT(r.actual, 0.0);
    EXPECT_NEAR(r.abs_error, std::abs(r.predicted - r.actual), 1e-9);
    EXPECT_NEAR(r.rel_error, r.abs_error / r.actual, 1e-9);
  }
}

TEST_F(CrossContextFixture, FitsRecordEpochsForBellamyOnly) {
  for (const auto& f : result_->fits) {
    if (f.model == "NNLS" || f.model == "Bell") {
      EXPECT_EQ(f.epochs, 0u);
    }
    EXPECT_GE(f.fit_seconds, 0.0);
  }
}

TEST_F(CrossContextFixture, AggregationHelpers) {
  const auto series = aggregate_series(result_->evals, "interpolation");
  EXPECT_FALSE(series.empty());
  for (const auto& [key, stats] : series) {
    EXPECT_GT(stats.count, 0u);
    EXPECT_GE(stats.mre, 0.0);
  }
  const auto overall = aggregate_overall(result_->evals, "extrapolation");
  EXPECT_FALSE(overall.empty());
  const auto times = mean_fit_seconds(result_->fits);
  EXPECT_TRUE(times.count("NNLS"));
  const auto epochs = epochs_by_algorithm_model(result_->fits);
  EXPECT_FALSE(epochs.empty());
}

TEST(CrossContext, UnknownAlgorithmThrows) {
  const auto ds = data::C3OGenerator().generate_algorithm("grep", 2);
  CrossContextConfig cfg = tiny_cross_context();
  cfg.algorithms = {"wordcount"};
  EXPECT_THROW(run_cross_context(ds, cfg), std::invalid_argument);
}

TEST(CrossEnvironment, ProducesAllVariants) {
  data::C3OGeneratorConfig gcfg;
  gcfg.seed = 13;
  const auto c3o = data::C3OGenerator(gcfg).generate_algorithm("grep", 3);
  data::BellGeneratorConfig bcfg;
  const auto bell = data::BellGenerator(bcfg).generate_algorithm("grep");

  CrossEnvironmentConfig cfg;
  cfg.algorithms = {"grep"};
  cfg.max_splits = 2;
  cfg.max_points = 2;
  cfg.pretrain.epochs = 40;
  cfg.finetune.max_epochs = 50;
  cfg.finetune.patience = 25;
  const auto result = run_cross_environment(c3o, bell, cfg);

  const auto models = distinct_models(result.evals);
  const std::set<std::string> model_set(models.begin(), models.end());
  EXPECT_TRUE(model_set.count("Bellamy (local)"));
  EXPECT_TRUE(model_set.count("Bellamy (partial-unfreeze)"));
  EXPECT_TRUE(model_set.count("Bellamy (full-unfreeze)"));
  EXPECT_TRUE(model_set.count("Bellamy (partial-reset)"));
  EXPECT_TRUE(model_set.count("Bellamy (full-reset)"));
  EXPECT_TRUE(model_set.count("NNLS"));
}

TEST(CrossEnvironment, MissingAlgorithmThrows) {
  const auto c3o = data::C3OGenerator().generate_algorithm("grep", 2);
  const auto bell = data::BellGenerator().generate_algorithm("grep");
  CrossEnvironmentConfig cfg;
  cfg.algorithms = {"sort"};
  EXPECT_THROW(run_cross_environment(c3o, bell, cfg), std::invalid_argument);
}

TEST(Report, AsciiBar) {
  EXPECT_EQ(ascii_bar(5.0, 10.0, 10), "#####-----");
  EXPECT_EQ(ascii_bar(10.0, 10.0, 4), "####");
  EXPECT_EQ(ascii_bar(0.0, 10.0, 4), "----");
  EXPECT_EQ(ascii_bar(20.0, 10.0, 4), "####");  // clamped
  EXPECT_EQ(ascii_bar(1.0, 0.0, 4), "----");    // degenerate maximum
}

// Training Data Reduction's claim (arXiv 2111.07904): some (policy, budget)
// cell refits at least 3x cheaper than the full history while its held-out
// MAE stays within 5 % of the full refit's.  This is the gate for the
// reduction grid in docs/BENCHMARKS.md.
TEST(ReductionSweep, SomeCellRefitsThreeTimesCheaperWithinFivePercentMae) {
  constexpr std::size_t kContexts = 4;
  data::C3OGeneratorConfig gen;
  gen.seed = 2021;
  gen.repetitions = 20;
  // Two extra contexts only feed pretraining, so every evaluated context has
  // a real foreign corpus.
  const auto c3o = data::C3OGenerator(gen).generate_algorithm("sgd", kContexts + 2);

  ReductionSweepConfig cfg;
  cfg.contexts = kContexts;
  cfg.budgets = {9, 18, 30};
  cfg.seed = 2021;
  cfg.pretrain.epochs = 60;
  cfg.finetune.max_epochs = 150;
  cfg.finetune.mae_target_seconds = 0.0;  // same epoch count in every cell
  cfg.finetune.patience = 150;
  const ReductionSweepResult sweep = run_reduction_sweep(c3o, cfg);
  ASSERT_EQ(sweep.points.size(), cfg.policies.size() * cfg.budgets.size());

  // The fastest cell still within 5 % of the full refit's MAE.
  const ReductionPoint* best = nullptr;
  for (const ReductionPoint& p : sweep.points) {
    if (p.mae_ratio > 1.05) continue;
    if (best == nullptr || p.refit_speedup > best->refit_speedup) best = &p;
  }
  ASSERT_NE(best, nullptr) << "no cell stayed within 5 % of the full-refit MAE";
  std::ostringstream cell;
  cell << best->policy << " @ budget " << best->budget << ": " << best->refit_speedup
       << "x cheaper refit, MAE ratio " << best->mae_ratio;
  RecordProperty("best_cell", cell.str());  // in the --gtest_output XML report
  EXPECT_GE(best->refit_speedup, 3.0) << "best cell " << cell.str();
}

}  // namespace
}  // namespace bellamy::eval

#include "core/resource_selector.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/ernest.hpp"

namespace bellamy::core {
namespace {

/// Deterministic stand-in model: runtime = 600 / x + 10 * x.
class FakeModel : public data::RuntimeModel {
 public:
  void fit(const std::vector<data::JobRun>&) override {}
  std::vector<double> predict_batch(const std::vector<data::JobRun>& queries) override {
    std::vector<double> out;
    for (const data::JobRun& q : queries) {
      const double x = q.scale_out;
      out.push_back(600.0 / x + 10.0 * x);
    }
    return out;
  }
  std::size_t min_training_points() const override { return 0; }
};

data::JobRun context_template() {
  data::JobRun r;
  r.algorithm = "sgd";
  r.scale_out = 0;
  return r;
}

TEST(ResourceSelector, PicksSmallestMeetingTarget) {
  FakeModel model;
  // Predictions: x=2 -> 320, x=4 -> 190, x=6 -> 160, x=8 -> 155, x=10 -> 160.
  const auto sel =
      select_scaleout(model, context_template(), {2, 4, 6, 8, 10}, 200.0);
  EXPECT_TRUE(sel.target_met);
  EXPECT_EQ(sel.chosen_scale_out, 4);
  EXPECT_NEAR(sel.predicted_runtime_s, 190.0, 1e-9);
}

TEST(ResourceSelector, FallsBackToFastestWhenTargetUnreachable) {
  FakeModel model;
  const auto sel = select_scaleout(model, context_template(), {2, 4, 6, 8, 10}, 100.0);
  EXPECT_FALSE(sel.target_met);
  EXPECT_EQ(sel.chosen_scale_out, 8);  // minimum of 600/x + 10x on the grid
  EXPECT_NEAR(sel.predicted_runtime_s, 155.0, 1e-9);
}

TEST(ResourceSelector, PredictionsReportedForAllCandidates) {
  FakeModel model;
  const auto sel = select_scaleout(model, context_template(), {6, 2, 4}, 1000.0);
  ASSERT_EQ(sel.predictions.size(), 3u);
  // Sorted ascending by scale-out.
  EXPECT_EQ(sel.predictions[0].scale_out, 2);
  EXPECT_EQ(sel.predictions[2].scale_out, 6);
}

TEST(ResourceSelector, DeduplicatesCandidates) {
  FakeModel model;
  const auto sel = select_scaleout(model, context_template(), {4, 4, 4}, 1000.0);
  EXPECT_EQ(sel.predictions.size(), 1u);
}

TEST(ResourceSelector, TargetJustMetAtBoundary) {
  FakeModel model;
  const auto sel = select_scaleout(model, context_template(), {2}, 320.0);
  EXPECT_TRUE(sel.target_met);
  EXPECT_EQ(sel.chosen_scale_out, 2);
}

TEST(ResourceSelector, InvalidInputsThrow) {
  FakeModel model;
  EXPECT_THROW(select_scaleout(model, context_template(), {}, 100.0),
               std::invalid_argument);
  EXPECT_THROW(select_scaleout(model, context_template(), {2}, 0.0),
               std::invalid_argument);
  EXPECT_THROW(select_scaleout(model, context_template(), {0}, 10.0),
               std::invalid_argument);
}

TEST(ResourceSelector, WorksWithErnestModel) {
  // End-to-end with a real baseline: fit Ernest on a U-shaped curve, then
  // pick resources for a runtime target.
  baselines::ErnestModel model;
  std::vector<data::JobRun> runs;
  for (int x = 2; x <= 12; x += 2) {
    data::JobRun r = context_template();
    r.scale_out = x;
    r.runtime_s = 30.0 + 900.0 / x + 20.0 * std::log(x) + 2.0 * x;
    runs.push_back(r);
  }
  model.fit(runs);
  const auto sel = select_scaleout(model, context_template(), {2, 4, 6, 8, 10, 12}, 300.0);
  EXPECT_TRUE(sel.target_met);
  // True runtimes: x=4 -> 290.7 meets 300; x=2 -> 497.9 does not.
  EXPECT_EQ(sel.chosen_scale_out, 4);
}

}  // namespace
}  // namespace bellamy::core

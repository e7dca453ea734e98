#include "baselines/bell_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace bellamy::baselines {
namespace {

data::JobRun run_at(int x, double rt) {
  data::JobRun r;
  r.algorithm = "sgd";
  r.scale_out = x;
  r.runtime_s = rt;
  return r;
}

TEST(InterpolationModel, ExactAtKnots) {
  InterpolationModel m;
  m.fit({run_at(2, 100.0), run_at(4, 60.0), run_at(8, 40.0)});
  EXPECT_DOUBLE_EQ(m.predict_scaleout(2.0), 100.0);
  EXPECT_DOUBLE_EQ(m.predict_scaleout(4.0), 60.0);
  EXPECT_DOUBLE_EQ(m.predict_scaleout(8.0), 40.0);
}

TEST(InterpolationModel, LinearBetweenKnots) {
  InterpolationModel m;
  m.fit({run_at(2, 100.0), run_at(4, 60.0)});
  EXPECT_DOUBLE_EQ(m.predict_scaleout(3.0), 80.0);
}

TEST(InterpolationModel, AveragesRepetitionsPerScaleOut) {
  InterpolationModel m;
  m.fit({run_at(2, 90.0), run_at(2, 110.0), run_at(4, 60.0)});
  EXPECT_DOUBLE_EQ(m.predict_scaleout(2.0), 100.0);
}

TEST(InterpolationModel, ExtrapolatesBoundarySegments) {
  InterpolationModel m;
  m.fit({run_at(2, 100.0), run_at(4, 60.0), run_at(6, 50.0)});
  // Left: slope -20/unit from (2,100)-(4,60).
  EXPECT_DOUBLE_EQ(m.predict_scaleout(1.0), 120.0);
  // Right: slope -5/unit from (4,60)-(6,50).
  EXPECT_DOUBLE_EQ(m.predict_scaleout(8.0), 40.0);
}

TEST(InterpolationModel, NeedsTwoDistinctScaleOuts) {
  InterpolationModel m;
  EXPECT_THROW(m.fit({run_at(2, 100.0), run_at(2, 90.0)}), std::invalid_argument);
}

TEST(InterpolationModel, PredictBeforeFitThrows) {
  InterpolationModel m;
  EXPECT_THROW(m.predict_scaleout(2.0), std::runtime_error);
}

TEST(BellModel, RequiresThreePoints) {
  BellModel m;
  EXPECT_EQ(m.min_training_points(), 3u);
  EXPECT_THROW(m.fit({run_at(2, 1.0), run_at(4, 2.0)}), std::invalid_argument);
}

TEST(BellModel, SelectsParametricOnErnestShapedData) {
  // Sparse Ernest-family data with a strong 1/x component: the parametric
  // model generalizes better in leave-one-out CV.
  std::vector<data::JobRun> runs;
  for (int x : {2, 4, 8, 12}) {
    const double rt = 20.0 + 600.0 / x + 3.0 * std::log(static_cast<double>(x)) + 1.0 * x;
    runs.push_back(run_at(x, rt));
  }
  BellModel m;
  m.fit(runs);
  EXPECT_EQ(m.selected(), "parametric");
  EXPECT_NEAR(m.predict_batch({run_at(6, 0.0)})[0],
              20.0 + 100.0 + 3.0 * std::log(6.0) + 6.0, 5.0);
}

TEST(BellModel, SelectsNonParametricOnDenseIrregularData) {
  // A shape outside the Ernest family (plateau then cliff) with dense
  // sampling: interpolation wins.
  std::vector<data::JobRun> runs;
  for (int x = 2; x <= 20; x += 2) {
    const double rt = x <= 10 ? 100.0 : 100.0 - 15.0 * (x - 10);
    runs.push_back(run_at(x, rt));
    runs.push_back(run_at(x, rt + 1.0));
  }
  BellModel m;
  m.fit(runs);
  EXPECT_EQ(m.selected(), "non-parametric");
  // Knot means: x=10 -> 100.5, x=12 -> 70.5; interpolation at 11 -> 85.5.
  EXPECT_NEAR(m.predict_batch({run_at(11, 0.0)})[0], 85.5, 5.0);
}

TEST(BellModel, PredictionsFollowSelectedModel) {
  std::vector<data::JobRun> runs{run_at(2, 100.0), run_at(4, 60.0), run_at(8, 45.0),
                                 run_at(12, 40.0)};
  BellModel m;
  m.fit(runs);
  // Whatever was selected, in-sample predictions stay near the data.
  for (const auto& r : runs) {
    EXPECT_NEAR(m.predict_batch({r})[0], r.runtime_s, 20.0);
  }
}

TEST(BellModel, HandlesRepeatedScaleOutsInCv) {
  // All repetitions concentrated on few distinct scale-outs must not crash
  // the internal leave-one-out loop.
  std::vector<data::JobRun> runs{run_at(2, 100.0), run_at(2, 104.0), run_at(6, 50.0),
                                 run_at(6, 52.0),  run_at(10, 40.0), run_at(10, 41.0)};
  BellModel m;
  EXPECT_NO_THROW(m.fit(runs));
  EXPECT_GT(m.predict_batch({run_at(4, 0.0)})[0], 0.0);
}

}  // namespace
}  // namespace bellamy::baselines

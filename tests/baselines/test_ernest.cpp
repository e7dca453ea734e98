#include "baselines/ernest.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "data/c3o_generator.hpp"
#include "util/rng.hpp"

namespace bellamy::baselines {
namespace {

data::JobRun run_at(int x, double rt) {
  data::JobRun r;
  r.algorithm = "sgd";
  r.scale_out = x;
  r.runtime_s = rt;
  return r;
}

std::vector<data::JobRun> from_theta(const std::array<double, 4>& theta,
                                     const std::vector<int>& xs) {
  std::vector<data::JobRun> runs;
  for (int x : xs) {
    const double xd = x;
    runs.push_back(run_at(
        x, theta[0] + theta[1] / xd + theta[2] * std::log(xd) + theta[3] * xd));
  }
  return runs;
}

TEST(ErnestFeatures, Values) {
  const auto f = ernest_features(4.0);
  EXPECT_DOUBLE_EQ(f[0], 1.0);
  EXPECT_DOUBLE_EQ(f[1], 0.25);
  EXPECT_NEAR(f[2], std::log(4.0), 1e-15);
  EXPECT_DOUBLE_EQ(f[3], 4.0);
}

TEST(ErnestFeatures, RejectsScaleOutBelowOne) {
  EXPECT_THROW(ernest_features(0.5), std::invalid_argument);
}

TEST(Ernest, RecoversGeneratingTheta) {
  const std::array<double, 4> theta{20.0, 400.0, 8.0, 2.0};
  ErnestModel model;
  model.fit(from_theta(theta, {2, 4, 6, 8, 10, 12}));
  for (std::size_t j = 0; j < 4; ++j) EXPECT_NEAR(model.theta()[j], theta[j], 1e-6);
}

TEST(Ernest, PredictsTrainingPointsExactly) {
  const std::array<double, 4> theta{10.0, 300.0, 4.0, 1.0};
  const auto runs = from_theta(theta, {2, 6, 10});
  ErnestModel model;
  model.fit(runs);
  for (const auto& r : runs) {
    EXPECT_NEAR(model.predict_batch({r})[0], r.runtime_s, 1e-6);
  }
}

TEST(Ernest, InterpolatesNoiseFreeCurve) {
  const std::array<double, 4> theta{15.0, 500.0, 3.0, 1.2};
  ErnestModel model;
  model.fit(from_theta(theta, {2, 4, 8, 12}));
  const double expect = theta[0] + theta[1] / 6.0 + theta[2] * std::log(6.0) + theta[3] * 6.0;
  EXPECT_NEAR(model.predict_scaleout(6.0), expect, 1e-6);
}

TEST(Ernest, ThetaIsNonNegative) {
  // Even on pathological decreasing-then-flat data, theta stays >= 0.
  ErnestModel model;
  model.fit({run_at(2, 100.0), run_at(4, 10.0), run_at(6, 200.0), run_at(8, 5.0)});
  for (double t : model.theta()) EXPECT_GE(t, 0.0);
}

TEST(Ernest, SinglePointFitIsDefined) {
  // Paper: "using NNLS with just one data point is by design unreasonable" —
  // but it must still produce a usable (if poor) model.
  ErnestModel model;
  model.fit({run_at(4, 120.0)});
  EXPECT_NEAR(model.predict_scaleout(4.0), 120.0, 1e-6);
  EXPECT_GE(model.predict_scaleout(8.0), 0.0);
}

TEST(Ernest, EmptyFitThrows) {
  ErnestModel model;
  EXPECT_THROW(model.fit({}), std::invalid_argument);
}

TEST(Ernest, PredictBeforeFitThrows) {
  ErnestModel model;
  EXPECT_THROW(model.predict_scaleout(4.0), std::runtime_error);
  EXPECT_THROW(model.predict_batch({data::JobRun{}}), std::runtime_error);
  // An empty batch needs no fitted state.
  EXPECT_TRUE(model.predict_batch({}).empty());
}

TEST(Ernest, MinTrainingPointsIsOne) {
  ErnestModel model;
  EXPECT_EQ(model.min_training_points(), 1u);
}

TEST(Ernest, ReasonableOnGeneratedContext) {
  // Fit on all points of one synthetic context; in-sample MRE should be low
  // because the generator's curves come from the same family.
  const auto ds = data::C3OGenerator().generate_algorithm("grep", 1);
  const auto group = ds.contexts().front();
  ErnestModel model;
  model.fit(group.runs);
  double mre = 0.0;
  for (const auto& r : group.runs) {
    mre += std::abs(model.predict_batch({r})[0] - r.runtime_s) / r.runtime_s;
  }
  mre /= static_cast<double>(group.runs.size());
  EXPECT_LT(mre, 0.15);
}

TEST(Ernest, RepeatedFitOverwritesState) {
  ErnestModel model;
  model.fit(from_theta({10.0, 100.0, 0.0, 0.0}, {2, 4, 6, 8}));
  const double before = model.predict_scaleout(5.0);
  model.fit(from_theta({50.0, 100.0, 0.0, 0.0}, {2, 4, 6, 8}));
  EXPECT_NEAR(model.predict_scaleout(5.0), before + 40.0, 1e-6);
}

}  // namespace
}  // namespace bellamy::baselines

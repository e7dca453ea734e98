#include "eval/splits.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "data/c3o_generator.hpp"
#include "util/rng.hpp"

namespace bellamy::eval {
namespace {

std::vector<data::JobRun> context_runs() {
  // One C3O-like context: scale-outs 2..12, 5 repetitions each (30 runs).
  const auto ds = data::C3OGenerator().generate_algorithm("sgd", 1);
  return ds.contexts().front().runs;
}

TEST(Splits, TrainScaleOutsPairwiseDifferent) {
  const auto runs = context_runs();
  util::Rng rng(1);
  const auto splits = generate_splits(runs, 3, 50, rng);
  ASSERT_FALSE(splits.empty());
  for (const auto& s : splits) {
    std::set<int> xs;
    for (std::size_t i : s.train) xs.insert(runs[i].scale_out);
    EXPECT_EQ(xs.size(), s.train.size());
  }
}

TEST(Splits, InterpolationTestInsideRange) {
  const auto runs = context_runs();
  util::Rng rng(2);
  const auto splits = generate_splits(runs, 3, 50, rng);
  for (const auto& s : splits) {
    if (!s.interpolation_test) continue;
    int lo = 1 << 30;
    int hi = 0;
    for (std::size_t i : s.train) {
      lo = std::min(lo, runs[i].scale_out);
      hi = std::max(hi, runs[i].scale_out);
    }
    const int x = runs[*s.interpolation_test].scale_out;
    EXPECT_GE(x, lo);
    EXPECT_LE(x, hi);
  }
}

TEST(Splits, ExtrapolationTestOutsideRange) {
  const auto runs = context_runs();
  util::Rng rng(3);
  const auto splits = generate_splits(runs, 3, 50, rng);
  for (const auto& s : splits) {
    if (!s.extrapolation_test) continue;
    int lo = 1 << 30;
    int hi = 0;
    for (std::size_t i : s.train) {
      lo = std::min(lo, runs[i].scale_out);
      hi = std::max(hi, runs[i].scale_out);
    }
    const int x = runs[*s.extrapolation_test].scale_out;
    EXPECT_TRUE(x < lo || x > hi);
  }
}

TEST(Splits, TestPointsNeverInTrainingSet) {
  const auto runs = context_runs();
  util::Rng rng(4);
  const auto splits = generate_splits(runs, 4, 50, rng);
  for (const auto& s : splits) {
    const std::set<std::size_t> train(s.train.begin(), s.train.end());
    if (s.interpolation_test) {
      EXPECT_FALSE(train.count(*s.interpolation_test));
    }
    if (s.extrapolation_test) {
      EXPECT_FALSE(train.count(*s.extrapolation_test));
    }
  }
}

TEST(Splits, UniqueSplits) {
  const auto runs = context_runs();
  util::Rng rng(5);
  const auto splits = generate_splits(runs, 2, 100, rng);
  std::set<std::string> signatures;
  for (const auto& s : splits) {
    std::string sig;
    auto train = s.train;
    std::sort(train.begin(), train.end());
    for (auto i : train) sig += std::to_string(i) + ",";
    sig += "|" + std::to_string(s.interpolation_test.value_or(9999));
    sig += "|" + std::to_string(s.extrapolation_test.value_or(9999));
    EXPECT_TRUE(signatures.insert(sig).second) << "duplicate split " << sig;
  }
}

TEST(Splits, RespectsMaxSplitsCap) {
  const auto runs = context_runs();
  util::Rng rng(6);
  EXPECT_LE(generate_splits(runs, 3, 10, rng).size(), 10u);
  EXPECT_TRUE(generate_splits(runs, 3, 0, rng).empty());
}

TEST(Splits, ZeroTrainingPointsGivesExtrapolationOnly) {
  const auto runs = context_runs();
  util::Rng rng(7);
  const auto splits = generate_splits(runs, 0, 20, rng);
  ASSERT_FALSE(splits.empty());
  for (const auto& s : splits) {
    EXPECT_TRUE(s.train.empty());
    EXPECT_FALSE(s.interpolation_test.has_value());
    EXPECT_TRUE(s.extrapolation_test.has_value());
  }
}

TEST(Splits, AllScaleOutsUsedNoExtrapolationPossible) {
  // Training on all 6 distinct scale-outs leaves no out-of-range point.
  const auto runs = context_runs();
  util::Rng rng(8);
  const auto splits = generate_splits(runs, 6, 50, rng);
  for (const auto& s : splits) {
    EXPECT_FALSE(s.extrapolation_test.has_value());
    EXPECT_TRUE(s.interpolation_test.has_value());
  }
}

TEST(Splits, MoreTrainPointsThanScaleOutsIsEmpty) {
  const auto runs = context_runs();
  util::Rng rng(9);
  EXPECT_TRUE(generate_splits(runs, 7, 50, rng).empty());
}

TEST(Splits, SingleTrainingPoint) {
  const auto runs = context_runs();
  util::Rng rng(10);
  const auto splits = generate_splits(runs, 1, 30, rng);
  ASSERT_FALSE(splits.empty());
  for (const auto& s : splits) {
    EXPECT_EQ(s.train.size(), 1u);
    // With one training point the "range" is that single scale-out; an
    // interpolation test can only be another repetition at the same x.
    if (s.interpolation_test) {
      EXPECT_EQ(runs[*s.interpolation_test].scale_out, runs[s.train[0]].scale_out);
    }
    EXPECT_TRUE(s.extrapolation_test.has_value());
  }
}

TEST(Splits, TrainRunsHelper) {
  const auto runs = context_runs();
  util::Rng rng(11);
  const auto splits = generate_splits(runs, 3, 5, rng);
  ASSERT_FALSE(splits.empty());
  const auto tr = train_runs(runs, splits[0]);
  ASSERT_EQ(tr.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(tr[i].runtime_s, runs[splits[0].train[i]].runtime_s);
  }
}

TEST(Splits, DeterministicGivenSeed) {
  const auto runs = context_runs();
  util::Rng rng1(12);
  util::Rng rng2(12);
  const auto a = generate_splits(runs, 3, 20, rng1);
  const auto b = generate_splits(runs, 3, 20, rng2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].train, b[i].train);
    EXPECT_EQ(a[i].interpolation_test, b[i].interpolation_test);
    EXPECT_EQ(a[i].extrapolation_test, b[i].extrapolation_test);
  }
}

TEST(Splits, EmptyRunsThrows) {
  util::Rng rng(13);
  EXPECT_THROW(generate_splits({}, 2, 10, rng), std::invalid_argument);
}

TEST(Splits, CapExhaustionTerminates) {
  // Tiny context (one scale-out, two reps): only a handful of unique splits
  // exist — generation must stop, not loop forever.
  std::vector<data::JobRun> runs(2);
  runs[0].scale_out = 2;
  runs[0].runtime_s = 10.0;
  runs[1].scale_out = 2;
  runs[1].runtime_s = 11.0;
  util::Rng rng(14);
  const auto splits = generate_splits(runs, 1, 100, rng);
  EXPECT_LE(splits.size(), 2u);
}

}  // namespace
}  // namespace bellamy::eval

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "data/bell_generator.hpp"
#include "data/c3o_generator.hpp"
#include "data/ground_truth.hpp"

namespace bellamy::data {
namespace {

/// Distinct (context, scale-out) experiment cells.
std::size_t experiment_cells(const Dataset& ds) {
  std::set<std::pair<std::string, int>> cells;
  for (const JobRun& r : ds.runs()) cells.emplace(r.context_key(), r.scale_out);
  return cells.size();
}

TEST(C3OGenerator, PaperCardinalities) {
  const C3OGenerator gen;
  const Dataset ds = gen.generate();
  // 155 contexts x 6 scale-outs = 930 unique experiments; x5 reps = 4650 rows.
  EXPECT_EQ(experiment_cells(ds), 930u);
  EXPECT_EQ(ds.size(), 4650u);
  EXPECT_EQ(ds.algorithms().size(), 5u);
}

TEST(C3OGenerator, PerAlgorithmContextCounts) {
  const C3OGenerator gen;
  for (const auto& algo : c3o_algorithms()) {
    const Dataset ds = gen.generate_algorithm(algo);
    EXPECT_EQ(ds.num_contexts(), c3o_context_count(algo)) << algo;
  }
}

TEST(C3OGenerator, ScaleOutsTwoToTwelve) {
  const C3OGenerator gen;
  EXPECT_EQ(gen.scale_outs(), (std::vector<int>{2, 4, 6, 8, 10, 12}));
  const Dataset ds = gen.generate_algorithm("grep");
  std::set<int> xs;
  for (const auto& r : ds.runs()) xs.insert(r.scale_out);
  EXPECT_EQ(xs, (std::set<int>{2, 4, 6, 8, 10, 12}));
}

TEST(C3OGenerator, FiveRepetitionsPerCell) {
  const C3OGenerator gen;
  const Dataset ds = gen.generate_algorithm("sort");
  const auto groups = ds.contexts();
  for (const auto& g : groups) {
    for (int x : g.scale_outs()) {
      EXPECT_EQ(g.runs_at(x).size(), 5u);
    }
  }
}

TEST(C3OGenerator, DeterministicGivenSeed) {
  C3OGeneratorConfig cfg;
  cfg.seed = 99;
  const Dataset a = C3OGenerator(cfg).generate_algorithm("sgd");
  const Dataset b = C3OGenerator(cfg).generate_algorithm("sgd");
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.runs()[i].runtime_s, b.runs()[i].runtime_s);
  }
}

TEST(C3OGenerator, DifferentSeedsDifferentRuntimes) {
  C3OGeneratorConfig a_cfg;
  a_cfg.seed = 1;
  C3OGeneratorConfig b_cfg;
  b_cfg.seed = 2;
  const Dataset a = C3OGenerator(a_cfg).generate_algorithm("grep");
  const Dataset b = C3OGenerator(b_cfg).generate_algorithm("grep");
  ASSERT_EQ(a.size(), b.size());
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff |= a.runs()[i].runtime_s != b.runs()[i].runtime_s;
  }
  EXPECT_TRUE(any_diff);
}

TEST(C3OGenerator, EveryNodeTypeAppears) {
  const Dataset ds = C3OGenerator().generate_algorithm("pagerank");
  std::set<std::string> nodes;
  for (const auto& r : ds.runs()) nodes.insert(r.node_type);
  EXPECT_EQ(nodes.size(), c3o_node_catalog().size());
}

TEST(C3OGenerator, RuntimesPositiveAndPlausible) {
  const Dataset ds = C3OGenerator().generate();
  for (const auto& r : ds.runs()) {
    EXPECT_GT(r.runtime_s, 0.0);
    EXPECT_LT(r.runtime_s, 100000.0);
  }
}

TEST(C3OGenerator, OptionalPropertiesMatchNodeCatalog) {
  const Dataset ds = C3OGenerator().generate_algorithm("kmeans");
  for (const auto& r : ds.runs()) {
    const NodeType& n = node_type_by_name(r.node_type);
    EXPECT_EQ(r.memory_mb, n.memory_mb);
    EXPECT_EQ(r.cpu_cores, n.cpu_cores);
    EXPECT_EQ(r.environment, "c3o-cloud");
  }
}

TEST(C3OGenerator, CustomContextCount) {
  const Dataset ds = C3OGenerator().generate_algorithm("grep", 3);
  EXPECT_EQ(ds.num_contexts(), 3u);
}

TEST(C3OGenerator, InvalidConfigThrows) {
  C3OGeneratorConfig cfg;
  cfg.repetitions = 0;
  EXPECT_THROW(C3OGenerator{cfg}, std::invalid_argument);
  C3OGeneratorConfig cfg2;
  cfg2.min_scaleout = 10;
  cfg2.max_scaleout = 2;
  EXPECT_THROW(C3OGenerator{cfg2}, std::invalid_argument);
}

TEST(C3OGenerator, RepetitionNoiseWithinSameCell) {
  const Dataset ds = C3OGenerator().generate_algorithm("sgd");
  const auto g = ds.contexts().front();
  const auto reps = g.runs_at(g.scale_outs().front());
  ASSERT_EQ(reps.size(), 5u);
  bool any_diff = false;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    any_diff |= reps[i].runtime_s != reps[0].runtime_s;
  }
  EXPECT_TRUE(any_diff);
}

TEST(BellGenerator, PaperStructure) {
  const BellGenerator gen;
  const Dataset ds = gen.generate();
  EXPECT_EQ(ds.algorithms().size(), 3u);
  // 3 algorithms x 1 context x 15 scale-outs x 7 reps = 315 rows.
  EXPECT_EQ(ds.size(), 315u);
  EXPECT_EQ(experiment_cells(ds), 45u);
}

TEST(BellGenerator, ScaleOutsFourToSixtyStepFour) {
  const BellGenerator gen;
  const auto xs = gen.scale_outs();
  EXPECT_EQ(xs.size(), 15u);
  EXPECT_EQ(xs.front(), 4);
  EXPECT_EQ(xs.back(), 60);
  EXPECT_EQ(xs[1] - xs[0], 4);
}

TEST(BellGenerator, SingleContextPerAlgorithm) {
  const BellGenerator gen;
  for (const auto& algo : BellGenerator::algorithms()) {
    EXPECT_EQ(gen.generate_algorithm(algo).num_contexts(), 1u) << algo;
  }
}

TEST(BellGenerator, SevenRepetitions) {
  const Dataset ds = BellGenerator().generate_algorithm("sgd");
  const auto g = ds.contexts().front();
  for (int x : g.scale_outs()) EXPECT_EQ(g.runs_at(x).size(), 7u);
}

TEST(BellGenerator, UsesBellEnvironment) {
  const Dataset ds = BellGenerator().generate();
  for (const auto& r : ds.runs()) {
    EXPECT_EQ(r.environment, "bell-cluster");
    EXPECT_EQ(r.node_type, bell_node_type().name);
  }
}

TEST(BellGenerator, UnsupportedAlgorithmThrows) {
  EXPECT_THROW(BellGenerator().generate_algorithm("sort"), std::invalid_argument);
}

TEST(BellGenerator, EnvironmentShiftRaisesRuntimes) {
  // Same algorithm, comparable scale-out: the Bell cluster (slower nodes +
  // overhead) should be slower than the fastest cloud contexts at equal x.
  BellGeneratorConfig cfg;
  const Dataset bell = BellGenerator(cfg).generate_algorithm("grep");
  double bell_at_8 = bell.contexts().front().mean_runtime_at(8);
  EXPECT_GT(bell_at_8, 0.0);
}

TEST(BellGenerator, Deterministic) {
  const Dataset a = BellGenerator().generate();
  const Dataset b = BellGenerator().generate();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.runs()[i].runtime_s, b.runs()[i].runtime_s);
  }
}

}  // namespace
}  // namespace bellamy::data

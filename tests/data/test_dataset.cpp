#include "data/dataset.hpp"

#include <gtest/gtest.h>

#include <set>

#include "util/rng.hpp"

namespace bellamy::data {
namespace {

JobRun run(const std::string& algo, const std::string& node, std::uint64_t size_mb,
           const std::string& params, const std::string& chars, int x, double rt) {
  JobRun r;
  r.algorithm = algo;
  r.node_type = node;
  r.dataset_size_mb = size_mb;
  r.job_parameters = params;
  r.data_characteristics = chars;
  r.scale_out = x;
  r.runtime_s = rt;
  return r;
}

Dataset make_dataset() {
  Dataset ds;
  // Context A: sgd on m4 with 10 GB.
  ds.add(run("sgd", "m4.xlarge", 10240, "25", "dense", 2, 400.0));
  ds.add(run("sgd", "m4.xlarge", 10240, "25", "dense", 2, 420.0));
  ds.add(run("sgd", "m4.xlarge", 10240, "25", "dense", 4, 250.0));
  // Context B: sgd on r4 with 20 GB.
  ds.add(run("sgd", "r4.xlarge", 20480, "100", "sparse", 2, 900.0));
  ds.add(run("sgd", "r4.xlarge", 20480, "100", "sparse", 6, 500.0));
  // Context C: grep.
  ds.add(run("grep", "m4.xlarge", 10240, "error", "logs", 4, 120.0));
  return ds;
}

TEST(Dataset, SizeAndAlgorithms) {
  const Dataset ds = make_dataset();
  EXPECT_EQ(ds.size(), 6u);
  EXPECT_EQ(ds.algorithms(), (std::vector<std::string>{"grep", "sgd"}));
}

TEST(Dataset, FilterAlgorithm) {
  const Dataset ds = make_dataset();
  EXPECT_EQ(ds.filter_algorithm("sgd").size(), 5u);
  EXPECT_EQ(ds.filter_algorithm("grep").size(), 1u);
  EXPECT_TRUE(ds.filter_algorithm("sort").empty());
}

TEST(Dataset, ContextGrouping) {
  const Dataset ds = make_dataset();
  const auto groups = ds.contexts();
  EXPECT_EQ(groups.size(), 3u);
  EXPECT_EQ(ds.num_contexts(), 3u);
}

TEST(Dataset, ContextGroupScaleOuts) {
  const auto groups = make_dataset().filter_algorithm("sgd").contexts();
  ASSERT_EQ(groups.size(), 2u);
  // Deterministic order by context key; m4 context has scale-outs {2, 4}.
  bool found = false;
  for (const auto& g : groups) {
    if (g.runs.front().node_type == "m4.xlarge") {
      EXPECT_EQ(g.scale_outs(), (std::vector<int>{2, 4}));
      EXPECT_DOUBLE_EQ(g.mean_runtime_at(2), 410.0);
      EXPECT_EQ(g.runs_at(2).size(), 2u);
      EXPECT_DOUBLE_EQ(g.mean_runtime_at(99), 0.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Dataset, ExcludeContext) {
  const Dataset ds = make_dataset();
  const std::string key = ds.runs().front().context_key();
  EXPECT_EQ(ds.exclude_context(key).size(), 3u);
}

TEST(Dataset, FilterDissimilarRequiresAllDifferent) {
  const Dataset ds = make_dataset();
  JobRun ref = run("sgd", "m4.xlarge", 10240, "25", "dense", 2, 0.0);
  const Dataset dissimilar = ds.filter_dissimilar(ref);
  // Only context B qualifies: different node, params, characteristics and
  // 100 % size difference.  Context A matches ref; grep is another algorithm.
  EXPECT_EQ(dissimilar.size(), 2u);
  for (const auto& r : dissimilar.runs()) EXPECT_EQ(r.node_type, "r4.xlarge");
}

TEST(Dataset, FilterDissimilarSizeThreshold) {
  Dataset ds;
  ds.add(run("sgd", "a-node", 10000, "p1", "c1", 2, 1.0));
  ds.add(run("sgd", "b-node", 11500, "p2", "c2", 2, 1.0));  // +15 % — too close
  ds.add(run("sgd", "c-node", 12500, "p3", "c3", 2, 1.0));  // +25 % — dissimilar
  // Node b-node/c-node contexts differ in everything but size from ref.
  JobRun ref = run("sgd", "a-node", 10000, "p1", "c1", 2, 0.0);
  // The catalog check: b excluded (size), c included.
  const Dataset out = ds.filter_dissimilar(ref);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.runs()[0].node_type, "c-node");
}

TEST(Dataset, AppendCombines) {
  Dataset a = make_dataset();
  Dataset b;
  b.add(run("sort", "m4.xlarge", 5120, "128", "uniform", 2, 80.0));
  a.append(b);
  EXPECT_EQ(a.size(), 7u);
  EXPECT_EQ(a.algorithms().size(), 3u);
}

TEST(Dataset, GenericFilter) {
  const Dataset ds = make_dataset();
  const Dataset big = ds.filter([](const JobRun& r) { return r.runtime_s > 300.0; });
  EXPECT_EQ(big.size(), 4u);
}

TEST(Dataset, SampleReturnsRequestedSubset) {
  const Dataset ds = make_dataset();
  util::Rng rng(1);
  const Dataset s = ds.sample(3, rng);
  EXPECT_EQ(s.size(), 3u);
  // Every sampled run exists in the source.
  for (const auto& r : s.runs()) {
    bool found = false;
    for (const auto& orig : ds.runs()) {
      found |= orig.context_key() == r.context_key() && orig.scale_out == r.scale_out &&
               orig.runtime_s == r.runtime_s;
    }
    EXPECT_TRUE(found);
  }
}

TEST(Dataset, SampleLargerThanSizeReturnsAll) {
  const Dataset ds = make_dataset();
  util::Rng rng(2);
  EXPECT_EQ(ds.sample(100, rng).size(), ds.size());
}

TEST(Dataset, SampleIsDeterministicPerSeed) {
  const Dataset ds = make_dataset();
  util::Rng a(3);
  util::Rng b(3);
  const Dataset s1 = ds.sample(4, a);
  const Dataset s2 = ds.sample(4, b);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_DOUBLE_EQ(s1.runs()[i].runtime_s, s2.runs()[i].runtime_s);
  }
}

TEST(Dataset, SampleDoesNotDuplicate) {
  Dataset ds;
  for (int i = 0; i < 10; ++i) ds.add(run("sgd", "n", 1, "p", "c", 2, 1.0 + i));
  util::Rng rng(4);
  const Dataset s = ds.sample(10, rng);
  std::set<double> runtimes;
  for (const auto& r : s.runs()) runtimes.insert(r.runtime_s);
  EXPECT_EQ(runtimes.size(), 10u);
}

TEST(Dataset, EmptyDatasetBehaviour) {
  const Dataset ds;
  EXPECT_TRUE(ds.empty());
  EXPECT_TRUE(ds.contexts().empty());
  EXPECT_TRUE(ds.algorithms().empty());
}

}  // namespace
}  // namespace bellamy::data

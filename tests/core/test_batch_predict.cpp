// The batched prediction engine's contract: predict_batch must equal the
// per-sample predict loop (to 1e-9) for every RuntimeModel — Bellamy, Ernest
// and Bell — including the B=0 and B=1 edges, and threaded split evaluation
// must be bit-identical to the serial reference path.

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/bell_model.hpp"
#include "baselines/ernest.hpp"
#include "core/predictor.hpp"
#include "core/trainer.hpp"
#include "data/c3o_generator.hpp"
#include "eval/experiment.hpp"
#include "parallel/thread_pool.hpp"
#include "util/rng.hpp"

namespace bellamy::core {
namespace {

struct Fixture {
  Fixture() {
    data::C3OGeneratorConfig cfg;
    cfg.seed = 47;
    ds = data::C3OGenerator(cfg).generate_algorithm("sort", 5);
    const auto groups = ds.contexts();
    target_runs = groups.front().runs;
    rest = ds.exclude_context(groups.front().key);
  }
  data::Dataset ds;
  std::vector<data::JobRun> target_runs;
  data::Dataset rest;
};

FineTuneConfig quick_finetune() {
  FineTuneConfig cfg;
  cfg.max_epochs = 120;
  cfg.patience = 60;
  return cfg;
}

BellamyModel quick_pretrained(const data::Dataset& corpus, std::uint64_t seed) {
  BellamyModel model(BellamyConfig{}, seed);
  PreTrainConfig pre;
  pre.epochs = 100;
  pretrain(model, corpus.runs(), pre);
  return model;
}

void expect_batch_matches_loop(data::RuntimeModel& model,
                               const std::vector<data::JobRun>& queries) {
  const auto batched = model.predict_batch(queries);
  ASSERT_EQ(batched.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const double scalar = model.predict(queries[i]);
    EXPECT_TRUE(std::isfinite(batched[i]));
    EXPECT_NEAR(batched[i], scalar, 1e-9) << "query " << i;
  }
}

TEST(BatchPredict, BellamyMatchesPerSampleLoop) {
  Fixture fx;
  const BellamyModel pretrained = quick_pretrained(fx.rest, 3);
  BellamyPredictor pred(pretrained, quick_finetune());
  pred.fit({fx.target_runs.begin(), fx.target_runs.begin() + 4});
  expect_batch_matches_loop(pred, fx.target_runs);
}

TEST(BatchPredict, BellamyModelDirectBatch) {
  Fixture fx;
  BellamyModel model = quick_pretrained(fx.rest, 5);
  const auto batched = model.predict_batch(fx.target_runs);
  ASSERT_EQ(batched.size(), fx.target_runs.size());
  for (std::size_t i = 0; i < fx.target_runs.size(); ++i) {
    EXPECT_NEAR(batched[i], model.predict_one(fx.target_runs[i]), 1e-9);
  }
}

TEST(BatchPredict, ErnestMatchesPerSampleLoop) {
  Fixture fx;
  baselines::ErnestModel model;
  model.fit(fx.target_runs);
  expect_batch_matches_loop(model, fx.target_runs);
}

TEST(BatchPredict, BellMatchesPerSampleLoop) {
  Fixture fx;
  baselines::BellModel model;
  model.fit(fx.target_runs);
  expect_batch_matches_loop(model, fx.target_runs);
}

TEST(BatchPredict, EmptyBatchYieldsEmptyVector) {
  Fixture fx;
  baselines::ErnestModel ernest;
  ernest.fit(fx.target_runs);
  EXPECT_TRUE(ernest.predict_batch({}).empty());

  baselines::BellModel bell;
  bell.fit(fx.target_runs);
  EXPECT_TRUE(bell.predict_batch({}).empty());

  BellamyModel bellamy = quick_pretrained(fx.rest, 9);
  EXPECT_TRUE(bellamy.predict_batch({}).empty());
  BellamyPredictor pred(bellamy, quick_finetune());
  pred.fit({});
  EXPECT_TRUE(pred.predict_batch({}).empty());
}

TEST(BatchPredict, SingleElementBatchMatchesScalar) {
  Fixture fx;
  const BellamyModel pretrained = quick_pretrained(fx.rest, 11);
  BellamyPredictor pred(pretrained, quick_finetune());
  pred.fit({fx.target_runs.begin(), fx.target_runs.begin() + 3});
  const std::vector<data::JobRun> one{fx.target_runs[0]};
  const auto batched = pred.predict_batch(one);
  ASSERT_EQ(batched.size(), 1u);
  EXPECT_NEAR(batched[0], pred.predict(fx.target_runs[0]), 1e-9);
}

// ---- chunked large-batch prediction ----------------------------------------

std::vector<data::JobRun> scaleout_sweep(const data::JobRun& context_template, std::size_t b) {
  std::vector<data::JobRun> queries;
  queries.reserve(b);
  for (std::size_t i = 0; i < b; ++i) {
    data::JobRun q = context_template;
    q.scale_out = static_cast<int>(1 + i % 60);
    queries.push_back(std::move(q));
  }
  return queries;
}

TEST(BatchPredict, ChunkedMatchesUnchunkedBitForBit) {
  Fixture fx;
  BellamyModel model = quick_pretrained(fx.rest, 17);
  const auto queries = scaleout_sweep(fx.target_runs.front(), 403);  // ragged chunks

  model.set_predict_chunk_threshold(0);  // force the single-pass path
  const auto unchunked = model.predict_batch(queries);

  parallel::ThreadPool pool(3);
  for (const std::size_t chunks : {std::size_t{2}, std::size_t{3}, std::size_t{7}}) {
    const auto chunked = model.predict_batch_chunked(queries, &pool, chunks);
    ASSERT_EQ(chunked.size(), unchunked.size()) << chunks << " chunks";
    // Bit-identical, not merely close: a prediction's arithmetic must not
    // depend on which chunk (or batch) the query rides in.
    EXPECT_EQ(chunked, unchunked) << chunks << " chunks";
  }
}

TEST(BatchPredict, AutoChunkThresholdRoutesThroughChunkedPath) {
  Fixture fx;
  BellamyModel model = quick_pretrained(fx.rest, 19);
  const auto queries = scaleout_sweep(fx.target_runs.front(), 96);

  model.set_predict_chunk_threshold(0);
  const auto baseline = model.predict_batch(queries);
  // A tiny threshold forces auto-chunking (when the global pool has >1
  // worker; with 1 worker predict_batch falls back to the serial path —
  // either way the contract is identical output).
  model.set_predict_chunk_threshold(8);
  EXPECT_EQ(model.predict_batch(queries), baseline);
  EXPECT_EQ(model.predict_chunk_threshold(), 8u);
}

TEST(BatchPredict, ChunkedSingleChunkAndEmptyEdges) {
  Fixture fx;
  BellamyModel model = quick_pretrained(fx.rest, 23);
  EXPECT_TRUE(model.predict_batch_chunked({}).empty());
  const auto queries = scaleout_sweep(fx.target_runs.front(), 5);
  parallel::ThreadPool pool(2);
  model.set_predict_chunk_threshold(0);
  const auto serial = model.predict_batch(queries);
  EXPECT_EQ(model.predict_batch_chunked(queries, &pool, 1), serial);
  // More chunks than queries degenerates to one query per chunk.
  EXPECT_EQ(model.predict_batch_chunked(queries, &pool, 64), serial);
}

// The resource-selection shape: a few contexts, each swept over scale-outs
// that repeat, shuffled so runs of one context are scattered.  Chunked and
// serial batches share per-context and per-scale-out work across queries;
// every prediction must still equal predict_one's bit for bit.
TEST(BatchPredict, SweepShapedBatchMatchesPredictOneBitForBit) {
  Fixture fx;
  BellamyModel model = quick_pretrained(fx.rest, 29);
  std::vector<data::JobRun> queries;
  for (const data::ContextGroup& group : fx.ds.contexts()) {
    for (int repeat = 0; repeat < 3; ++repeat) {
      for (int x = 1; x <= 16; ++x) {
        data::JobRun q = group.runs.front();
        q.scale_out = x;
        queries.push_back(std::move(q));
      }
    }
  }
  ASSERT_GE(fx.ds.contexts().size(), 3u);
  util::Rng rng(31);
  rng.shuffle(queries);

  model.set_predict_chunk_threshold(0);
  const auto serial = model.predict_batch(queries);
  parallel::ThreadPool pool(3);
  const auto chunked = model.predict_batch_chunked(queries, &pool, 5);
  ASSERT_EQ(serial.size(), queries.size());
  ASSERT_EQ(chunked.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const double one = model.predict_one(queries[i]);
    EXPECT_EQ(serial[i], one) << "query " << i;
    EXPECT_EQ(chunked[i], one) << "query " << i;
  }
}

// Tiny end-to-end experiment used by the determinism checks below.
eval::CrossContextConfig tiny_config(std::size_t eval_threads) {
  eval::CrossContextConfig cfg;
  cfg.algorithms = {"grep"};
  cfg.contexts_per_algorithm = 2;
  cfg.max_splits = 2;
  cfg.max_points = 2;
  cfg.pretrain.epochs = 30;
  cfg.finetune.max_epochs = 40;
  cfg.finetune.patience = 20;
  cfg.seed = 13;
  cfg.eval_threads = eval_threads;
  return cfg;
}

void expect_identical_records(const eval::ExperimentResult& a,
                              const eval::ExperimentResult& b) {
  ASSERT_EQ(a.evals.size(), b.evals.size());
  for (std::size_t i = 0; i < a.evals.size(); ++i) {
    const auto& ra = a.evals[i];
    const auto& rb = b.evals[i];
    EXPECT_EQ(ra.model, rb.model) << i;
    EXPECT_EQ(ra.task, rb.task) << i;
    EXPECT_EQ(ra.context_key, rb.context_key) << i;
    EXPECT_EQ(ra.num_points, rb.num_points) << i;
    // Bit-identical, not merely close: the threaded path must rebuild each
    // contender from the same seed/checkpoint and replay the same arithmetic.
    EXPECT_EQ(ra.predicted, rb.predicted) << i;
    EXPECT_EQ(ra.actual, rb.actual) << i;
  }
  ASSERT_EQ(a.fits.size(), b.fits.size());
  for (std::size_t i = 0; i < a.fits.size(); ++i) {
    EXPECT_EQ(a.fits[i].model, b.fits[i].model) << i;
    EXPECT_EQ(a.fits[i].num_points, b.fits[i].num_points) << i;
    EXPECT_EQ(a.fits[i].epochs, b.fits[i].epochs) << i;
  }
}

TEST(BatchPredict, ThreadedEvaluationMatchesSerial) {
  data::C3OGeneratorConfig gen;
  gen.seed = 23;
  const auto ds = data::C3OGenerator(gen).generate_algorithm("grep", 3);
  const auto serial = eval::run_cross_context(ds, tiny_config(1));
  const auto threaded = eval::run_cross_context(ds, tiny_config(3));
  ASSERT_FALSE(serial.evals.empty());
  expect_identical_records(serial, threaded);
}

TEST(BatchPredict, ThreadedEvaluationDeterministicAcrossRuns) {
  data::C3OGeneratorConfig gen;
  gen.seed = 29;
  const auto ds = data::C3OGenerator(gen).generate_algorithm("grep", 3);
  const auto first = eval::run_cross_context(ds, tiny_config(3));
  const auto second = eval::run_cross_context(ds, tiny_config(3));
  ASSERT_FALSE(first.evals.empty());
  expect_identical_records(first, second);
}

}  // namespace
}  // namespace bellamy::core

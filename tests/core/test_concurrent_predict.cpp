// Const inference contract: a BellamyModel's predict path caches nothing, so
// many threads may predict on ONE model at once and get the serial bits; and
// chunked prediction reads the model directly, so it serves the current
// weights after any mutation (a fine-tune, a predictor re-fit).

#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "core/bellamy_model.hpp"
#include "core/predictor.hpp"
#include "core/trainer.hpp"
#include "data/c3o_generator.hpp"
#include "parallel/thread_pool.hpp"

namespace bellamy::core {
namespace {

struct Fixture {
  Fixture() {
    data::C3OGeneratorConfig cfg;
    cfg.seed = 61;
    ds = data::C3OGenerator(cfg).generate_algorithm("sort", 5);
    const auto groups = ds.contexts();
    target_runs = groups.front().runs;
    rest = ds.exclude_context(groups.front().key);
    queries.reserve(64);
    for (std::size_t i = 0; i < 64; ++i) {
      data::JobRun q = target_runs.front();
      q.scale_out = static_cast<int>(1 + i % 60);
      queries.push_back(q);
    }
  }
  data::Dataset ds;
  std::vector<data::JobRun> target_runs;
  data::Dataset rest;
  std::vector<data::JobRun> queries;
};

BellamyModel quick_pretrained(const data::Dataset& corpus, std::uint64_t seed) {
  BellamyModel model(BellamyConfig{}, seed);
  PreTrainConfig pre;
  pre.epochs = 60;
  pretrain(model, corpus.runs(), pre);
  return model;
}

TEST(ConcurrentPredict, SharedConstModelMatchesSerialBits) {
  Fixture fx;
  BellamyModel trained = quick_pretrained(fx.rest, 11);
  trained.set_predict_chunk_threshold(0);  // every call is one serial pass
  const BellamyModel& model = trained;
  const auto serial = model.predict_batch(fx.queries);

  parallel::ThreadPool workers(8);
  std::vector<std::future<std::vector<double>>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(workers.submit([&] { return model.predict_batch(fx.queries); }));
  }
  for (auto& f : futures) {
    const auto preds = f.get();
    ASSERT_EQ(preds.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) EXPECT_EQ(preds[i], serial[i]);
  }
}

TEST(ConcurrentPredict, ChunkedAfterFineTuneMatchesSerial) {
  Fixture fx;
  BellamyModel model = quick_pretrained(fx.rest, 5);
  model.set_predict_chunk_threshold(0);
  parallel::ThreadPool pool(4);

  const auto before = model.predict_batch_chunked(fx.queries, &pool, 4);
  const std::uint64_t stamp_before = model.state_stamp();

  FineTuneConfig ft;
  ft.max_epochs = 30;
  ft.patience = 30;
  finetune(model, {fx.target_runs.begin(), fx.target_runs.begin() + 4}, ft);
  EXPECT_NE(model.state_stamp(), stamp_before);

  const auto serial_after = model.predict_batch(fx.queries);
  const auto chunked_after = model.predict_batch_chunked(fx.queries, &pool, 4);
  ASSERT_EQ(chunked_after.size(), serial_after.size());
  bool any_changed = false;
  for (std::size_t i = 0; i < serial_after.size(); ++i) {
    EXPECT_EQ(chunked_after[i], serial_after[i]) << "stale weights at query " << i;
    if (chunked_after[i] != before[i]) any_changed = true;
  }
  EXPECT_TRUE(any_changed) << "fine-tune did not change any prediction";
}

// BellamyPredictor re-emplaces its model on every fit(); chunked prediction
// after a re-fit serves the NEW model's weights, bit-identical to serial.
TEST(ConcurrentPredict, PredictorChunkedAfterRefitMatchesSerial) {
  Fixture fx;
  const BellamyModel pretrained = quick_pretrained(fx.rest, 13);
  FineTuneConfig ft;
  ft.max_epochs = 40;
  ft.patience = 40;
  BellamyPredictor pred(pretrained, ft);

  parallel::ThreadPool pool(2);
  pred.fit({fx.target_runs.begin(), fx.target_runs.begin() + 3});
  pred.model().set_predict_chunk_threshold(0);
  const auto first = pred.model().predict_batch_chunked(fx.queries, &pool, 2);

  pred.fit({fx.target_runs.begin(), fx.target_runs.begin() + 5});
  pred.model().set_predict_chunk_threshold(0);
  const auto serial = pred.model().predict_batch(fx.queries);
  const auto chunked = pred.model().predict_batch_chunked(fx.queries, &pool, 2);
  ASSERT_EQ(chunked.size(), serial.size());
  bool any_changed = false;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(chunked[i], serial[i]);
    if (chunked[i] != first[i]) any_changed = true;
  }
  EXPECT_TRUE(any_changed) << "re-fit did not change any prediction";
}

}  // namespace
}  // namespace bellamy::core

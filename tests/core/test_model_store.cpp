#include "core/model_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "data/c3o_generator.hpp"

namespace bellamy::core {
namespace {

class ModelStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("bellamy_store_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  BellamyModel make_model(std::uint64_t seed = 1) {
    BellamyModel model(BellamyConfig{}, seed);
    const auto ds = data::C3OGenerator().generate_algorithm("grep", 1);
    model.fit_normalization(ds.runs());
    return model;
  }

  std::string dir_;
};

TEST_F(ModelStoreTest, CreatesDirectory) {
  ModelStore store(dir_);
  EXPECT_TRUE(std::filesystem::exists(dir_));
}

TEST_F(ModelStoreTest, SaveLoadRoundTrip) {
  ModelStore store(dir_);
  BellamyModel model = make_model();
  store.save(model, "grep", "c3o-full");
  ASSERT_TRUE(store.contains("grep", "c3o-full"));

  BellamyModel loaded = store.load("grep", "c3o-full");
  const auto ds = data::C3OGenerator().generate_algorithm("grep", 1);
  const auto a = model.predict_batch(ds.runs());
  const auto b = loaded.predict_batch(ds.runs());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST_F(ModelStoreTest, ContainsFalseForMissing) {
  ModelStore store(dir_);
  EXPECT_FALSE(store.contains("sgd", "nope"));
}

TEST_F(ModelStoreTest, LoadMissingThrows) {
  ModelStore store(dir_);
  EXPECT_THROW(store.load("sgd", "nope"), std::runtime_error);
}

TEST_F(ModelStoreTest, LoadMissingNamesKeyAndPath) {
  ModelStore store(dir_);
  try {
    store.load("sgd", "nope");
    FAIL() << "load of a missing model must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sgd/nope"), std::string::npos) << what;
    EXPECT_NE(what.find(store.path_for("sgd", "nope")), std::string::npos) << what;
  }
}

TEST_F(ModelStoreTest, LoadCorruptFileNamesPathAndReason) {
  ModelStore store(dir_);
  {
    std::ofstream out(store.path_for("sgd", "bad"));
    out << "this is not a checkpoint\n";
  }
  try {
    store.load("sgd", "bad");
    FAIL() << "load of a corrupt model must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    // A corrupt file must be distinguishable from a missing one: the message
    // carries the path AND the parser's reason.
    EXPECT_NE(what.find(store.path_for("sgd", "bad")), std::string::npos) << what;
    EXPECT_NE(what.find("magic"), std::string::npos) << what;
  }
}

TEST_F(ModelStoreTest, SaveFailureNamesKeyAndBothPaths) {
  ModelStore store(dir_);
  // A directory squatting on the target path: the temp write succeeds, the
  // final rename fails.  The error must name the key AND both paths so the
  // operator can see exactly which file was mid-flight.
  std::filesystem::create_directories(store.path_for("sgd", "blocked"));
  try {
    store.save(make_model(), "sgd", "blocked");
    FAIL() << "save over a directory must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sgd/blocked"), std::string::npos) << what;
    EXPECT_NE(what.find(store.path_for("sgd", "blocked")), std::string::npos) << what;
    EXPECT_NE(what.find(store.path_for("sgd", "blocked") + ".tmp"), std::string::npos)
        << what;
  }
  // The failed save cleaned up after itself: no orphaned temp file.
  EXPECT_FALSE(
      std::filesystem::exists(store.path_for("sgd", "blocked") + ".tmp"));
}

TEST_F(ModelStoreTest, SaveLeavesNoTempFilesBehind) {
  ModelStore store(dir_);
  store.save(make_model(1), "sgd", "a");
  store.save(make_model(2), "sgd", "a");  // overwrite goes through a temp too
  store.save(make_model(3), "grep", "b");
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    ++files;
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
  EXPECT_EQ(files, 2u);
  EXPECT_EQ(store.list(), (std::vector<std::string>{"grep/b", "sgd/a"}));
}

TEST_F(ModelStoreTest, FailedSavePreservesTheExistingModel) {
  ModelStore store(dir_);
  BellamyModel original = make_model(1);
  store.save(original, "sgd", "v");

  // Block the TEMP path: the new write cannot even start, and the model
  // already on disk must survive untouched — the crash-safety contract.
  std::filesystem::create_directories(store.path_for("sgd", "v") + ".tmp");
  EXPECT_THROW(store.save(make_model(2), "sgd", "v"), std::runtime_error);

  BellamyModel loaded = store.load("sgd", "v");
  const auto ds = data::C3OGenerator().generate_algorithm("grep", 1);
  const auto a = original.predict_batch(ds.runs());
  const auto b = loaded.predict_batch(ds.runs());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST_F(ModelStoreTest, LoadCheckpointSharesTheStoredState) {
  ModelStore store(dir_);
  BellamyModel model = make_model(5);
  store.save(model, "sgd", "ck");
  const nn::Checkpoint ckpt = store.load_checkpoint("sgd", "ck");
  BellamyModel restored = BellamyModel::from_checkpoint(ckpt);
  EXPECT_EQ(restored.state_stamp(), model.state_stamp());
}

TEST_F(ModelStoreTest, ListSortedKeys) {
  ModelStore store(dir_);
  store.save(make_model(1), "sgd", "v1");
  store.save(make_model(2), "grep", "v1");
  store.save(make_model(3), "grep", "v2");
  EXPECT_EQ(store.list(),
            (std::vector<std::string>{"grep/v1", "grep/v2", "sgd/v1"}));
}

TEST_F(ModelStoreTest, RemoveDeletes) {
  ModelStore store(dir_);
  store.save(make_model(), "sgd", "tmp");
  store.remove("sgd", "tmp");
  EXPECT_FALSE(store.contains("sgd", "tmp"));
  EXPECT_TRUE(store.list().empty());
}

TEST_F(ModelStoreTest, RejectsPathTraversalKeys) {
  ModelStore store(dir_);
  EXPECT_THROW(store.path_for("../evil", "x"), std::invalid_argument);
  EXPECT_THROW(store.path_for("sgd", "a/b"), std::invalid_argument);
  EXPECT_THROW(store.path_for("", "x"), std::invalid_argument);
}

TEST_F(ModelStoreTest, OverwriteReplacesModel) {
  ModelStore store(dir_);
  store.save(make_model(1), "sgd", "v");
  BellamyModel second = make_model(2);
  store.save(second, "sgd", "v");
  BellamyModel loaded = store.load("sgd", "v");
  const auto ds = data::C3OGenerator().generate_algorithm("grep", 1);
  const auto a = second.predict_batch(ds.runs());
  const auto b = loaded.predict_batch(ds.runs());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

}  // namespace
}  // namespace bellamy::core

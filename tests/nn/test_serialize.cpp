#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>

#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "support/matrix_testing.hpp"
#include "util/rng.hpp"

namespace bellamy::nn {
namespace {

TEST(Checkpoint, RoundTripMeta) {
  Checkpoint ckpt;
  ckpt.meta["algorithm"] = "sgd";
  ckpt.meta["note"] = "value with spaces";
  std::stringstream ss;
  ckpt.save(ss);
  const Checkpoint back = Checkpoint::load(ss);
  EXPECT_EQ(back.meta_value("algorithm"), "sgd");
  EXPECT_EQ(back.meta_value("note"), "value with spaces");
}

TEST(Checkpoint, RoundTripMatricesBitExact) {
  util::Rng rng(1);
  Checkpoint ckpt;
  ckpt.matrices.emplace("w", Matrix::randn(7, 5, rng));
  ckpt.matrices.emplace("tiny", Matrix{{1e-300, -0.0, 3.14159265358979}});
  std::stringstream ss;
  ckpt.save(ss);
  const Checkpoint back = Checkpoint::load(ss);
  EXPECT_EQ(back.matrix("w"), ckpt.matrix("w"));  // exact (hex float format)
  EXPECT_EQ(back.matrix("tiny"), ckpt.matrix("tiny"));
}

TEST(Checkpoint, MissingMatrixThrows) {
  Checkpoint ckpt;
  EXPECT_THROW(ckpt.matrix("nope"), std::runtime_error);
  EXPECT_THROW(ckpt.meta_value("nope"), std::runtime_error);
  EXPECT_FALSE(ckpt.has_matrix("nope"));
}

TEST(Checkpoint, BadMagicThrows) {
  std::stringstream ss("not-a-checkpoint\n");
  EXPECT_THROW(Checkpoint::load(ss), std::runtime_error);
}

TEST(Checkpoint, TruncatedDataThrows) {
  Checkpoint ckpt;
  ckpt.matrices.emplace("w", Matrix(2, 2, 1.0));
  std::stringstream ss;
  ckpt.save(ss);
  std::string text = ss.str();
  text.resize(text.size() - 10);
  std::stringstream cut(text);
  EXPECT_THROW(Checkpoint::load(cut), std::runtime_error);
}

// A header whose rows * cols wraps around must not load as an empty matrix.
TEST(Checkpoint, LoadRejectsAShapeWhoseSizeOverflows) {
  std::stringstream ss(
      "bellamy-checkpoint v1\nmeta 0\nmatrices 1\nw 4294967296 4294967296\n");
  EXPECT_THROW(Checkpoint::load(ss), std::runtime_error);
}

// A few bytes of header claiming 10^16 values (80 PB) without the values must
// fail as truncated text, not size an allocation from the header.
TEST(Checkpoint, LoadReadsValuesBeforeAllocating) {
  std::stringstream ss(
      "bellamy-checkpoint v1\nmeta 0\nmatrices 1\nw 100000000 100000000\n");
  try {
    Checkpoint::load(ss);
    ADD_FAILURE() << "a header without values loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos) << e.what();
  }
}

TEST(Checkpoint, RejectsWhitespaceNames) {
  Checkpoint ckpt;
  ckpt.matrices.emplace("bad name", Matrix(1, 1));
  std::stringstream ss;
  EXPECT_THROW(ckpt.save(ss), std::invalid_argument);
}

TEST(Checkpoint, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "bellamy_ckpt_test.txt").string();
  Checkpoint ckpt;
  ckpt.meta["k"] = "v";
  ckpt.matrices.emplace("m", Matrix{{1.5, 2.5}});
  ckpt.save_file(path);
  const Checkpoint back = Checkpoint::load_file(path);
  EXPECT_EQ(back.matrix("m"), ckpt.matrix("m"));
  std::remove(path.c_str());
}

TEST(Checkpoint, LoadMissingFileThrows) {
  EXPECT_THROW(Checkpoint::load_file("/nonexistent/x.ckpt"), std::runtime_error);
}

TEST(StoreRestoreParameters, RoundTripThroughModule) {
  util::Rng rng(2);
  Sequential net;
  net.emplace<Linear>(3, 4, true, Init::kHeNormal, rng, "a");
  net.emplace<Selu>();
  net.emplace<Linear>(4, 2, true, Init::kHeNormal, rng, "b");

  Checkpoint ckpt;
  store_parameters(ckpt, net);
  EXPECT_EQ(ckpt.matrices.size(), 4u);

  // Perturb, then restore.
  for (Parameter* p : net.parameters()) p->value *= 2.0;
  restore_parameters(ckpt, net);
  const Matrix x = Matrix::randn(2, 3, rng);
  // A second net restored from the same checkpoint computes identically.
  util::Rng rng2(99);
  Sequential net2;
  net2.emplace<Linear>(3, 4, true, Init::kHeNormal, rng2, "a");
  net2.emplace<Selu>();
  net2.emplace<Linear>(4, 2, true, Init::kHeNormal, rng2, "b");
  restore_parameters(ckpt, net2);
  EXPECT_LT(max_abs_diff(net.forward(x), net2.forward(x)), 1e-15);
}

TEST(StoreRestoreParameters, ShapeMismatchThrows) {
  util::Rng rng(3);
  Sequential net;
  net.emplace<Linear>(3, 4, false, Init::kHeNormal, rng, "a");
  Checkpoint ckpt;
  ckpt.matrices.emplace("a.weight", Matrix(2, 2));
  EXPECT_THROW(restore_parameters(ckpt, net), std::runtime_error);
}

TEST(StoreRestoreParameters, DuplicateNameThrows) {
  util::Rng rng(4);
  Sequential net;
  net.emplace<Linear>(2, 2, false, Init::kHeNormal, rng, "dup");
  net.emplace<Linear>(2, 2, false, Init::kHeNormal, rng, "dup");
  Checkpoint ckpt;
  EXPECT_THROW(store_parameters(ckpt, net), std::runtime_error);
}

}  // namespace
}  // namespace bellamy::nn

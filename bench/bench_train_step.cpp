// Throughput of the batched training engine and the blocked GEMM kernels.
//
//   ./build/bench/bench_train_step [--epochs=N] [--json=PATH]
//
// Section 1 — GEMM: blocked matmul / matmul_tn / matmul_nt vs the naive
// matmul*_ref triple loops at 512x512x512 (acceptance floor: 3x for matmul).
//
// Section 2 — pre-training epochs at batch size 64: the per-sample baseline
// (one singleton train_step per run, gradients accumulated and scaled by
// 1/B — the pre-batching engine) vs the batched path (encode-once corpus,
// dedup gather per mini-batch, one stacked forward/backward).  Both modes
// follow the same parameter trajectory, so their final losses must agree to
// 1e-9; the acceptance floor for the epoch speedup is 4x.
//
// --json writes the measurements as a small JSON document (CI artifact;
// scripts/bench-compare.py diffs it against bench/baselines/).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/bellamy_model.hpp"
#include "core/trainer.hpp"
#include "data/c3o_generator.hpp"
#include "nn/matrix.hpp"
#include "nn/optimizer.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace bellamy;

namespace {

struct GemmResult {
  const char* name;
  double blocked_s;
  double ref_s;
  double max_diff;
  double speedup() const { return ref_s / std::max(blocked_s, 1e-12); }
};

template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    util::Timer timer;
    fn();
    best = std::min(best, timer.seconds());
  }
  return best;
}

GemmResult bench_gemm(const char* name, const nn::Matrix& a, const nn::Matrix& b,
                      nn::Matrix (*blocked)(const nn::Matrix&, const nn::Matrix&),
                      nn::Matrix (*ref)(const nn::Matrix&, const nn::Matrix&)) {
  nn::Matrix out_blocked = blocked(a, b);  // warm-up + correctness operand
  const nn::Matrix out_ref = ref(a, b);
  GemmResult res;
  res.name = name;
  res.max_diff = nn::Matrix::max_abs_diff(out_blocked, out_ref);
  res.blocked_s = best_of(3, [&] { out_blocked = blocked(a, b); });
  res.ref_s = best_of(3, [&] { out_blocked = ref(a, b); });
  return res;
}

struct EpochResult {
  double per_sample_s = 0.0;  ///< mean wall-clock per epoch, per-sample mode
  double batched_s = 0.0;     ///< mean wall-clock per epoch, batched mode
  double per_sample_loss = 0.0;
  double batched_loss = 0.0;
  double speedup() const { return per_sample_s / std::max(batched_s, 1e-12); }
  double loss_diff() const { return std::abs(per_sample_loss - batched_loss); }
};

// The pre-batching engine: one singleton train_step per sample, gradients
// accumulated across the mini-batch and scaled by 1/B before the Adam step.
// This follows the exact same parameter trajectory as the batched path.
double per_sample_epoch(core::BellamyModel& model, const std::vector<data::JobRun>& runs,
                        const std::vector<std::size_t>& order, std::size_t batch_size,
                        nn::Adam& optimizer) {
  double epoch_loss = 0.0;
  std::size_t batches = 0;
  const auto params = model.parameters();
  for (std::size_t begin = 0; begin < order.size(); begin += batch_size) {
    const std::size_t end = std::min(order.size(), begin + batch_size);
    const double inv_b = 1.0 / static_cast<double>(end - begin);
    optimizer.zero_grad();
    double batch_loss = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const auto loss = model.train_step(model.make_batch({runs[order[i]]}), 1.0);
      batch_loss += loss.total;
    }
    for (nn::Parameter* p : params) p->grad *= inv_b;
    optimizer.step();
    epoch_loss += batch_loss * inv_b;
    ++batches;
  }
  return epoch_loss / static_cast<double>(batches);
}

double batched_epoch(core::BellamyModel& model, const core::BellamyEncodedRuns& encoded,
                     const std::vector<std::size_t>& order, std::size_t batch_size,
                     nn::Adam& optimizer) {
  double epoch_loss = 0.0;
  std::size_t batches = 0;
  for (std::size_t begin = 0; begin < order.size(); begin += batch_size) {
    const std::size_t end = std::min(order.size(), begin + batch_size);
    const std::span<const std::size_t> indices(order.data() + begin, end - begin);
    optimizer.zero_grad();
    const auto loss = model.train_step(model.gather_batch(encoded, indices), 1.0);
    optimizer.step();
    epoch_loss += loss.total;
    ++batches;
  }
  return epoch_loss / static_cast<double>(batches);
}

EpochResult bench_epochs(const std::vector<data::JobRun>& runs, std::size_t epochs,
                         std::size_t batch_size) {
  EpochResult res;
  // Two identically seeded models so both modes train the same network.
  // Dropout 0: the equivalence requires the deterministic path (the batched
  // engine shares dropout masks across deduplicated rows by design).
  auto make_model = [&] {
    core::BellamyModel model(core::BellamyConfig{}, /*seed=*/71);
    model.fit_normalization(runs);
    model.set_dropout_rate(0.0);
    model.set_trainable_components(true, true, true, true);
    return model;
  };
  nn::Adam::Config adam;
  adam.lr = 1e-2;
  adam.weight_decay = 1e-3;

  {
    core::BellamyModel model = make_model();
    nn::Adam optimizer(model.parameters(), adam);
    util::Rng rng(7);
    std::vector<std::size_t> order(runs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    util::Timer timer;
    for (std::size_t e = 0; e < epochs; ++e) {
      rng.shuffle(order);
      res.per_sample_loss = per_sample_epoch(model, runs, order, batch_size, optimizer);
    }
    res.per_sample_s = timer.seconds() / static_cast<double>(epochs);
  }
  {
    core::BellamyModel model = make_model();
    nn::Adam optimizer(model.parameters(), adam);
    util::Rng rng(7);
    std::vector<std::size_t> order(runs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    const core::BellamyEncodedRuns encoded = model.encode_runs(runs);
    util::Timer timer;
    for (std::size_t e = 0; e < epochs; ++e) {
      rng.shuffle(order);
      res.batched_loss = batched_epoch(model, encoded, order, batch_size, optimizer);
    }
    res.batched_s = timer.seconds() / static_cast<double>(epochs);
  }
  return res;
}

void write_json(const std::string& path, const std::vector<GemmResult>& gemms,
                const EpochResult& epoch, std::size_t num_runs, std::size_t epochs,
                std::size_t batch_size) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"gemm_512\": {\n");
  for (std::size_t i = 0; i < gemms.size(); ++i) {
    const auto& g = gemms[i];
    std::fprintf(f,
                 "    \"%s\": {\"blocked_ms\": %.3f, \"ref_ms\": %.3f, "
                 "\"speedup\": %.2f, \"max_diff\": %.3e}%s\n",
                 g.name, g.blocked_s * 1e3, g.ref_s * 1e3, g.speedup(), g.max_diff,
                 i + 1 < gemms.size() ? "," : "");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f,
               "  \"pretrain_epoch\": {\"runs\": %zu, \"epochs\": %zu, \"batch_size\": %zu, "
               "\"per_sample_ms\": %.2f, \"batched_ms\": %.2f, \"speedup\": %.2f, "
               "\"final_loss_diff\": %.3e}\n}\n",
               num_runs, epochs, batch_size, epoch.per_sample_s * 1e3, epoch.batched_s * 1e3,
               epoch.speedup(), epoch.loss_diff());
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t epochs = 5;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--epochs=", 9) == 0) {
      epochs = std::max(1, std::atoi(argv[i] + 9));
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "usage: %s [--epochs=N] [--json=PATH]\n", argv[0]);
      return 2;
    }
  }

  // ---- Section 1: blocked GEMM vs naive reference at 512^3 -----------------
  util::Rng rng(3);
  const nn::Matrix a = nn::Matrix::randn(512, 512, rng);
  const nn::Matrix b = nn::Matrix::randn(512, 512, rng);
  std::vector<GemmResult> gemms;
  gemms.push_back(bench_gemm("matmul", a, b, &nn::Matrix::matmul, &nn::Matrix::matmul_ref));
  gemms.push_back(
      bench_gemm("matmul_tn", a, b, &nn::Matrix::matmul_tn, &nn::Matrix::matmul_tn_ref));
  gemms.push_back(
      bench_gemm("matmul_nt", a, b, &nn::Matrix::matmul_nt, &nn::Matrix::matmul_nt_ref));

  const double flops = 2.0 * 512.0 * 512.0 * 512.0;
  std::printf("GEMM 512x512x512 (blocked vs naive reference)\n");
  std::printf("%-10s %12s %12s %10s %10s %12s\n", "kernel", "blocked ms", "ref ms",
              "GFLOP/s", "speedup", "max |diff|");
  for (const auto& g : gemms) {
    std::printf("%-10s %12.1f %12.1f %10.2f %9.2fx %12.2e\n", g.name, g.blocked_s * 1e3,
                g.ref_s * 1e3, flops / g.blocked_s / 1e9, g.speedup(), g.max_diff);
  }
  std::printf("blocked matmul speedup: %.2fx (acceptance floor: 3x)\n\n",
              gemms[0].speedup());

  // ---- Section 2: pre-training epoch, per-sample vs batched ----------------
  data::C3OGeneratorConfig gen_cfg;
  gen_cfg.seed = 71;
  const data::Dataset history = data::C3OGenerator(gen_cfg).generate_algorithm("sort", 6);
  const auto& runs = history.runs();
  constexpr std::size_t kBatchSize = 64;
  std::printf("pre-training: %zu runs, batch size %zu, %zu epoch(s) per mode\n", runs.size(),
              kBatchSize, epochs);

  const EpochResult epoch = bench_epochs(runs, epochs, kBatchSize);
  std::printf("%-28s %12.1f ms/epoch\n", "per-sample baseline", epoch.per_sample_s * 1e3);
  std::printf("%-28s %12.1f ms/epoch\n", "batched (dedup gather)", epoch.batched_s * 1e3);
  std::printf("epoch speedup: %.2fx (acceptance floor: 4x)\n", epoch.speedup());
  std::printf("final epoch loss: per-sample %.12f vs batched %.12f (|diff| %.2e)\n",
              epoch.per_sample_loss, epoch.batched_loss, epoch.loss_diff());

  const bool losses_match = epoch.loss_diff() <= 1e-9;
  std::printf("losses match to 1e-9: %s\n\n", losses_match ? "yes" : "NO");

  if (!json_path.empty()) {
    write_json(json_path, gemms, epoch, runs.size(), epochs, kBatchSize);
  }
  return losses_match ? 0 : 1;
}

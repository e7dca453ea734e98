// Layer probes: each single layer timed in isolation at the shapes the model
// really uses, run after the workload in trace runs only.  They are the
// per-layer side of the benchmark's layer -> end-to-end map (README): a
// change that speeds a layer up should move its probe first.

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "bench.hpp"
#include "core/trainer.hpp"
#include "data/c3o_generator.hpp"
#include "nn/matrix.hpp"
#include "parallel/thread_pool.hpp"
#include "util/rng.hpp"

using namespace bellamy;

namespace bench {

namespace {

/// Median microseconds per call of `fn`: 7 rounds, each running enough calls
/// to last ~20 ms.
double time_us(const std::function<void()>& fn) {
  fn();  // warm caches and lazy state
  std::size_t calls = 1;
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn();
    if (seconds_between(t0, Clock::now()) >= 0.02 || calls >= (1u << 20)) break;
    calls *= 2;
  }
  std::vector<double> rounds;
  for (int r = 0; r < 7; ++r) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn();
    rounds.push_back(micros_between(t0, Clock::now()) / static_cast<double>(calls));
  }
  return median(std::move(rounds));
}

std::vector<data::JobRun> sweep_batch(const data::Dataset& history, std::size_t size) {
  std::vector<data::JobRun> batch;
  const auto groups = history.contexts();
  for (std::size_t i = 0; batch.size() < size; ++i) {
    data::JobRun q = groups[i % groups.size()].runs.front();
    q.scale_out = static_cast<int>(1 + (i / groups.size()) % 64);
    batch.push_back(std::move(q));
  }
  return batch;
}

}  // namespace

void run_layer_probes(const Options& options, const ProbeContext& context, Report& report) {
  util::Rng rng(options.seed ^ 0x9a0beULL);

  // ---- nn: the GEMM shapes of a B=4096 forward and a B=64 train step ----
  auto matmul_us = [&](std::size_t m, std::size_t k, std::size_t n) {
    const nn::Matrix a = nn::Matrix::rand_uniform(m, k, rng, -1.0, 1.0);
    const nn::Matrix b = nn::Matrix::rand_uniform(k, n, rng, -1.0, 1.0);
    return time_us([&] { nn::Matrix c = nn::Matrix::matmul(a, b); });
  };
  report.metric("nn.matmul_64x40x8_us", matmul_us(64, 40, 8), "us");
  const double us_4096x40x8 = matmul_us(4096, 40, 8);
  report.metric("nn.matmul_4096x40x8_us", us_4096x40x8, "us");
  report.metric("nn.matmul_4096x16x8_us", matmul_us(4096, 16, 8), "us");
  report.metric("nn.matmul_4096x28x8_us", matmul_us(4096, 28, 8), "us");
  report.metric("nn.gemm_4096x40x8_gflops", 2.0 * 4096 * 40 * 8 / (us_4096x40x8 * 1e3),
                "GFLOP/s");

  // ---- a probe model on the workload's seed ----
  data::C3OGeneratorConfig gen;
  gen.seed = options.seed;
  const data::Dataset history = data::C3OGenerator(gen).generate_algorithm("sgd", 64);
  const data::Dataset corpus = history.sample(600, rng);
  core::BellamyModel model(core::BellamyConfig{}, rng.next());
  core::PreTrainConfig pre;
  pre.epochs = 20;
  core::pretrain(model, corpus.runs(), pre);

  // ---- encoding / core data preparation ----
  std::vector<encoding::PropertyValue> properties;
  for (std::size_t i = 0; i < 64; ++i) {
    const data::JobRun& run = corpus.runs()[i];
    for (auto& p : core::essential_properties(run)) properties.push_back(std::move(p));
    for (auto& p : core::optional_properties(run)) properties.push_back(std::move(p));
  }
  const encoding::PropertyEncoder encoder;
  report.metric("encoding.vectorize_us", time_us([&] {
                  for (const auto& p : properties) encoder.encode(p);
                }) / static_cast<double>(properties.size()),
                "us");
  report.metric("core.encode_runs_ms",
                time_us([&] { model.encode_runs(corpus.runs()); }) / 1e3, "ms");

  // ---- core: the workload's pretrain, per train step (B=64) ----
  report.metric("core.pretrain_s", context.pretrain_seconds, "s");
  report.metric("core.train_step_us",
                context.pretrain_steps > 0
                    ? context.pretrain_seconds * 1e6 / static_cast<double>(context.pretrain_steps)
                    : 0.0,
                "us");

  // ---- core: inference forward at B=1, the observed serve fill, B=4096 ----
  const std::size_t fill =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(context.mean_batch_fill)));
  const std::vector<data::JobRun> big = sweep_batch(history, 4096);
  const std::vector<data::JobRun> one(big.begin(), big.begin() + 1);
  const std::vector<data::JobRun> filled(big.begin(), big.begin() + static_cast<long>(fill));
  const std::size_t threshold = model.predict_chunk_threshold();
  model.set_predict_chunk_threshold(0);  // single forward pass
  report.metric("core.forward_b1_us", time_us([&] { model.predict_batch(one); }), "us");
  const double fill_us = time_us([&] { model.predict_batch(filled); });
  report.metric("core.forward_fill_us", fill_us, "us");
  const double serial_us = time_us([&] { model.predict_batch(big); });
  report.metric("core.forward_b4096_us", serial_us, "us");
  const std::vector<double> serial = model.predict_batch(big);
  model.set_predict_chunk_threshold(threshold);
  report.metric("core.forward_share",
                context.serve_workers > 0
                    ? context.serve_window_batches_per_s * fill_us /
                          (1e6 * static_cast<double>(context.serve_workers))
                    : 0.0,
                "ratio");

  // ---- parallel: chunked predict over the global pool, task round trip ----
  const double chunked_us = time_us([&] { model.predict_batch(big); });
  report.gate("probe_chunked_equals_serial",
              bits_hash(model.predict_batch(big)) == bits_hash(serial), "B=4096 probe batch");
  report.metric("parallel.chunked_over_serial", serial_us / chunked_us, "ratio");
  parallel::ThreadPool& pool = parallel::ThreadPool::global();
  report.metric("parallel.submit_run_us", time_us([&] { pool.submit([] {}).get(); }), "us");
}

}  // namespace bench

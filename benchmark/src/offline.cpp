// The two offline workloads: `fit` (the paper's pretrain-then-fine-tune flow)
// and `sweep` (resource selection through batched prediction).  Neither
// touches the serve or net layers.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/trainer.hpp"
#include "core/variants.hpp"
#include "data/c3o_generator.hpp"
#include "data/ground_truth.hpp"
#include "util/rng.hpp"

using namespace bellamy;

namespace bench {

namespace {

// ---- fit -------------------------------------------------------------------

/// Contexts held out per algorithm, and runs observed per fine-tune.
constexpr std::size_t kHeldOutContexts = 7;
constexpr std::size_t kObservedRuns[] = {1, 3, 5};
constexpr std::size_t kPretrainEpochs = 300;
constexpr std::size_t kFineTuneEpochs = 200;

/// Ceiling on the fit workload's mean relative error over held-out runs.
/// Over 35 seeds it measured 0.08-0.20 (median 0.11); the ceiling leaves room
/// for seeds not tried but catches a model that systems work has broken.
constexpr double kFitMreCeiling = 0.35;

struct FitOp {
  std::size_t context = 0;  ///< index into FitAlgorithm::groups
  std::vector<data::JobRun> observed;
};

struct FitAlgorithm {
  std::vector<data::JobRun> corpus;  ///< runs of the contexts not held out
  std::vector<data::ContextGroup> groups;
  std::vector<FitOp> ops;            ///< held-out context x observed-run count
  std::uint64_t model_seed = 0;
  std::uint64_t pretrain_seed = 0;
};

core::BellamyConfig fit_model_config() {
  core::BellamyConfig config;
  config.standardize_target = false;  // raw seconds, as the reproduction benches use
  return config;
}

/// The default fine-tune recipe with early stopping off: every fine-tune runs
/// kFineTuneEpochs epochs (still restoring its best state), so its cost does
/// not depend on how fast the seed's traces happen to converge.
core::FineTuneConfig fit_finetune_config() {
  core::FineTuneConfig config;
  config.max_epochs = kFineTuneEpochs;
  config.patience = kFineTuneEpochs;
  config.mae_target_seconds = 0.0;
  return config;
}

std::vector<FitAlgorithm> make_fit_plan(std::uint64_t seed, Tracer& tracer) {
  SpanScope span(tracer, "data.generate_c3o", "data");
  data::C3OGeneratorConfig gen;
  gen.seed = seed;
  const data::C3OGenerator generator(gen);
  util::Rng rng(seed ^ 0xf17ULL);

  std::vector<FitAlgorithm> plan;
  for (const std::string& algorithm : data::c3o_algorithms()) {
    FitAlgorithm fa;
    fa.groups = generator.generate_algorithm(algorithm).contexts();
    std::vector<std::size_t> order(fa.groups.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);
    const std::size_t held = std::min(kHeldOutContexts, order.size() - 1);
    for (std::size_t i = held; i < order.size(); ++i) {
      const auto& runs = fa.groups[order[i]].runs;
      fa.corpus.insert(fa.corpus.end(), runs.begin(), runs.end());
    }
    for (std::size_t i = 0; i < held; ++i) {
      const data::ContextGroup& group = fa.groups[order[i]];
      for (const std::size_t k : kObservedRuns) {
        FitOp op;
        op.context = order[i];
        for (const std::size_t idx : rng.sample_without_replacement(group.runs.size(), k)) {
          op.observed.push_back(group.runs[idx]);
        }
        fa.ops.push_back(std::move(op));
      }
    }
    fa.model_seed = rng.next();
    fa.pretrain_seed = rng.next();
    plan.push_back(std::move(fa));
  }
  return plan;
}

struct FitOpResult {
  std::vector<double> predictions;
  nn::Checkpoint model;  ///< the fine-tuned weights, kept for verification
  double mre = 0.0;
  std::size_t epochs = 0;
  double fit_seconds = 0.0;
};

}  // namespace

ProbeContext run_fit(const Options& options, Tracer& tracer, Report& report) {
  std::vector<FitAlgorithm> plan;
  const std::vector<double> setup_seconds =
      timed_setups(options, [&] { plan = make_fit_plan(options.seed, tracer); });

  // The unit of work is one algorithm's cycle: pretrain once, then fine-tune
  // and predict every held-out context.  Its cost is set by the corpus size
  // and the epoch budgets, so it repeats across seeds.  A pass runs all five
  // cycles (~2 s); passes repeat identical work (and must give bit-identical
  // predictions) while the next one is expected to end inside the window.
  // The work is deterministic and single-threaded, so interference from the
  // host only ever adds time: the reported times are each algorithm's fastest
  // cycle and the fastest pass.  Over 12 seeds that cut the run-to-run spread
  // from 0.07-0.25 (medians over passes) to 0.02-0.03.
  const core::BellamyConfig model_config = fit_model_config();
  std::vector<FitOpResult> first_pass;
  std::vector<std::vector<double>> cycle_us(plan.size());  // [algorithm][pass]
  std::vector<double> finetune_ms;  // first pass
  std::vector<double> pass_seconds;
  std::vector<double> pass_pretrain_seconds;
  std::size_t pretrain_steps = 0;
  bool repeat_identical = true;

  WindowProbe window;
  window.begin(Clock::now());
  const std::uint64_t window_span = tracer.next_id();
  for (std::size_t pass = 0;; ++pass) {
    const Clock::time_point pass_start = Clock::now();
    double pretrain_sum = 0.0;
    std::size_t op_index = 0;
    for (std::size_t a = 0; a < plan.size(); ++a) {
      const FitAlgorithm& fa = plan[a];
      const Clock::time_point cycle_start = Clock::now();
      SpanScope cycle_span(tracer, "fit.cycle", "bench", window_span);
      core::BellamyModel model(model_config, fa.model_seed);
      core::PreTrainConfig pre;
      pre.epochs = kPretrainEpochs;
      pre.seed = fa.pretrain_seed;
      report.attempted += 1;
      {
        SpanScope span(tracer, "core.pretrain", "core", cycle_span.id());
        core::pretrain(model, fa.corpus, pre);
      }
      pretrain_sum += seconds_between(cycle_start, Clock::now());
      if (pass == 0) {
        pretrain_steps += pre.epochs * ((fa.corpus.size() + pre.batch_size - 1) / pre.batch_size);
      }
      const nn::Checkpoint base = model.to_checkpoint();

      for (const FitOp& op : fa.ops) {
        const std::vector<data::JobRun>& context_runs = fa.groups[op.context].runs;
        report.attempted += 1;
        const Clock::time_point t0 = Clock::now();
        const std::uint64_t request = tracer.next_id();
        core::BellamyModel tuned = core::BellamyModel::from_checkpoint(base);
        core::FineTuneResult tune;
        {
          SpanScope span(tracer, "core.finetune", "core", cycle_span.id(), request);
          const core::FineTuneConfig cfg = core::apply_reuse_strategy(
              core::ReuseStrategy::kPartialUnfreeze, tuned, fit_finetune_config());
          tune = core::finetune(tuned, op.observed, cfg);
        }
        std::vector<double> predictions;
        {
          SpanScope span(tracer, "core.predict_batch", "core", cycle_span.id(), request);
          predictions = tuned.predict_batch(context_runs);
        }
        if (predictions.size() != context_runs.size()) report.failed += 1;

        if (pass == 0) {
          finetune_ms.push_back(micros_between(t0, Clock::now()) / 1e3);
          FitOpResult r;
          double rel = 0.0;
          for (std::size_t i = 0; i < predictions.size(); ++i) {
            const double actual = context_runs[i].runtime_s;
            rel += std::abs(predictions[i] - actual) / actual;
          }
          r.mre = rel / static_cast<double>(std::max<std::size_t>(1, predictions.size()));
          r.epochs = tune.epochs_run;
          r.fit_seconds = tune.fit_seconds;
          r.model = tuned.to_checkpoint();
          r.predictions = std::move(predictions);
          first_pass.push_back(std::move(r));
        } else if (bits_hash(predictions) != bits_hash(first_pass[op_index].predictions)) {
          repeat_identical = false;
        }
        ++op_index;
      }
      cycle_us[a].push_back(micros_between(cycle_start, Clock::now()));
    }
    pass_seconds.push_back(seconds_between(pass_start, Clock::now()));
    pass_pretrain_seconds.push_back(pretrain_sum);
    const double elapsed = seconds_between(window.start, Clock::now());
    if (elapsed + pass_seconds.back() > options.seconds * 1.1) break;
  }
  window.end(Clock::now());
  tracer.record("fit.window", "bench", window.start, window.stop, window_span);

  // ---- verification (outside the window) ----
  std::size_t mismatches = 0;
  std::size_t op_index = 0;
  double mre_sum = 0.0;
  for (const FitAlgorithm& fa : plan) {
    for (const FitOp& op : fa.ops) {
      const FitOpResult& r = first_pass[op_index++];
      mre_sum += r.mre;
      core::BellamyModel model = core::BellamyModel::from_checkpoint(r.model);
      const std::vector<data::JobRun>& context_runs = fa.groups[op.context].runs;
      for (std::size_t i = 0; i < context_runs.size(); ++i) {
        double expected = model.predict_one(context_runs[i]);
        if (options.perturb_expected && op_index == 1 && i == 0) {
          expected = std::nextafter(expected, INFINITY);
        }
        if (expected != r.predictions[i]) ++mismatches;
      }
    }
  }
  const double fit_mre = mre_sum / static_cast<double>(first_pass.size());
  report.gate("predict_batch_equals_predict_one", mismatches == 0,
              std::to_string(mismatches) + " mismatching predictions");
  report.gate("passes_bit_identical", repeat_identical,
              std::to_string(pass_seconds.size()) + " passes");
  char detail[96];
  std::snprintf(detail, sizeof(detail), "fit_mre %.4f vs ceiling %.2f", fit_mre, kFitMreCeiling);
  report.gate("fit_mre_under_ceiling", fit_mre <= kFitMreCeiling, detail);

  std::vector<double> pass_rates;
  for (const double s : pass_seconds) pass_rates.push_back(static_cast<double>(plan.size()) / s);
  std::vector<double> fastest_cycle_us;  // per algorithm
  for (const std::vector<double>& passes : cycle_us) {
    fastest_cycle_us.push_back(*std::min_element(passes.begin(), passes.end()));
  }
  report_end_to_end(report, setup_seconds, window,
                    static_cast<double>(plan.size() * pass_seconds.size()),
                    *std::max_element(pass_rates.begin(), pass_rates.end()), fastest_cycle_us);
  window.report(report, thirds_trend_pct(pass_rates));

  std::vector<double> epochs;
  std::vector<double> us_per_epoch;
  for (const FitOpResult& r : first_pass) {
    epochs.push_back(static_cast<double>(r.epochs));
    if (r.epochs > 0) us_per_epoch.push_back(r.fit_seconds * 1e6 / static_cast<double>(r.epochs));
  }
  report.metric("core.fit_mre", fit_mre, "ratio");
  report.metric("core.finetune_p50_ms", quantile(finetune_ms, 0.5), "ms");
  report.metric("core.finetune_p90_ms", quantile(finetune_ms, 0.9), "ms");
  report.metric("core.finetune_epochs_p50", median(epochs), "count");
  report.metric("core.finetune_us_per_epoch", median(us_per_epoch), "us");

  ProbeContext context;
  context.pretrain_seconds = median(pass_pretrain_seconds);
  context.pretrain_steps = pretrain_steps;
  return context;
}

// ---- sweep -----------------------------------------------------------------

core::BellamyModel pretrain_base(const data::Dataset& history, std::uint64_t seed,
                                 Tracer& tracer, ProbeContext& context) {
  util::Rng rng(seed ^ 0xba5eULL);
  const data::Dataset corpus = history.sample(600, rng);
  core::BellamyModel model(core::BellamyConfig{}, rng.next());
  core::PreTrainConfig pre;
  pre.epochs = 200;
  pre.seed = rng.next();
  const Clock::time_point t0 = Clock::now();
  {
    SpanScope span(tracer, "core.pretrain", "core");
    core::pretrain(model, corpus.runs(), pre);
  }
  context.pretrain_seconds = seconds_between(t0, Clock::now());
  context.pretrain_steps = pre.epochs * ((corpus.size() + pre.batch_size - 1) / pre.batch_size);
  return model;
}

namespace {

constexpr std::size_t kSweepContexts = 64;
constexpr int kSweepScaleOuts = 64;
constexpr std::size_t kSweepOrders = 4;  ///< distinct query orders the calls rotate over

struct SweepSetup {
  std::optional<core::BellamyModel> model;
  std::vector<data::JobRun> queries;            ///< 64 contexts x scale-outs 1..64
  std::vector<std::vector<std::size_t>> orders; ///< permutations of `queries`
  std::vector<std::vector<data::JobRun>> batches;
};

SweepSetup make_sweep(std::uint64_t seed, Tracer& tracer, ProbeContext& context) {
  SweepSetup s;
  data::Dataset history;
  {
    SpanScope span(tracer, "data.generate_c3o", "data");
    data::C3OGeneratorConfig gen;
    gen.seed = seed;
    history = data::C3OGenerator(gen).generate_algorithm("sgd", kSweepContexts);
  }
  s.model.emplace(pretrain_base(history, seed, tracer, context));
  for (const data::ContextGroup& group : history.contexts()) {
    for (int x = 1; x <= kSweepScaleOuts; ++x) {
      data::JobRun q = group.runs.front();
      q.scale_out = x;
      q.runtime_s = 0.0;
      s.queries.push_back(std::move(q));
    }
  }
  util::Rng rng(seed ^ 0x5eedULL);
  for (std::size_t o = 0; o < kSweepOrders; ++o) {
    std::vector<std::size_t> order(s.queries.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);
    std::vector<data::JobRun> batch;
    batch.reserve(order.size());
    for (const std::size_t i : order) batch.push_back(s.queries[i]);
    s.orders.push_back(std::move(order));
    s.batches.push_back(std::move(batch));
  }
  return s;
}

}  // namespace

ProbeContext run_sweep(const Options& options, Tracer& tracer, Report& report) {
  SweepSetup s;
  ProbeContext context;
  const std::vector<double> setup_seconds =
      timed_setups(options, [&] { s = make_sweep(options.seed, tracer, context); });
  core::BellamyModel& model = *s.model;

  // Warm-up: replica pool, pool threads and caches settle before timing.
  const double warmup = std::min(2.0, options.seconds / 2.0);
  const Clock::time_point warm_end = Clock::now() + to_duration(warmup);
  std::size_t call = 0;
  while (Clock::now() < warm_end) model.predict_batch(s.batches[call++ % kSweepOrders]);

  std::vector<double> latency_us;
  std::vector<std::pair<std::size_t, std::uint64_t>> hashes;  // (order, output hash)
  std::vector<double> first_output;  // of order 0, for the chunked-vs-serial gate
  RateSeries rate;
  WindowProbe window;
  window.begin(Clock::now());
  rate.start(window.start, options.seconds);
  const std::uint64_t window_span = tracer.next_id();
  const Clock::time_point window_end = window.start + to_duration(options.seconds);
  for (call = 0; Clock::now() < window_end; ++call) {
    const std::size_t order = call % kSweepOrders;
    report.attempted += 1;
    const Clock::time_point t0 = Clock::now();
    std::vector<double> out;
    {
      SpanScope span(tracer, "core.predict_batch", "core", window_span, call + 1);
      out = model.predict_batch(s.batches[order]);
    }
    const Clock::time_point t1 = Clock::now();
    latency_us.push_back(micros_between(t0, t1));
    rate.add(t1, out.size());
    if (out.size() != s.batches[order].size()) report.failed += 1;
    hashes.emplace_back(order, bits_hash(out));
    if (order == 0 && first_output.empty()) first_output = std::move(out);
  }
  window.end(Clock::now());
  tracer.record("sweep.window", "bench", window.start, window.stop, window_span);

  // ---- verification (outside the window) ----
  std::vector<double> expected_by_query(s.queries.size());
  for (std::size_t i = 0; i < s.queries.size(); ++i) {
    expected_by_query[i] = model.predict_one(s.queries[i]);
  }
  if (options.perturb_expected) {
    expected_by_query[0] = std::nextafter(expected_by_query[0], INFINITY);
  }
  std::vector<std::uint64_t> expected_hash(kSweepOrders);
  for (std::size_t o = 0; o < kSweepOrders; ++o) {
    std::vector<double> expected;
    for (const std::size_t i : s.orders[o]) expected.push_back(expected_by_query[i]);
    expected_hash[o] = bits_hash(expected);
  }
  std::size_t mismatched_calls = 0;
  for (const auto& [order, hash] : hashes) mismatched_calls += hash != expected_hash[order];
  report.gate("swept_equals_predict_one", mismatched_calls == 0,
              std::to_string(mismatched_calls) + " of " + std::to_string(hashes.size()) +
                  " calls differ");

  const std::size_t threshold = model.predict_chunk_threshold();
  model.set_predict_chunk_threshold(0);
  const std::vector<double> serial = model.predict_batch(s.batches[0]);
  model.set_predict_chunk_threshold(threshold);
  report.gate("chunked_equals_serial", bits_hash(serial) == bits_hash(first_output),
              "B=" + std::to_string(serial.size()));

  const double predictions = static_cast<double>(call * s.queries.size());
  report_end_to_end(report, setup_seconds, window, predictions, rate.median_per_s(), latency_us);
  window.report(report, rate.trend_pct());
  return context;
}

}  // namespace bench

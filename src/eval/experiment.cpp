#include "eval/experiment.hpp"

#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "baselines/bell_model.hpp"
#include "baselines/ernest.hpp"
#include "core/predictor.hpp"
#include "core/variants.hpp"
#include "eval/metrics.hpp"
#include "eval/splits.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace bellamy::eval {

namespace {

/// A model under evaluation plus its bookkeeping handles.
struct Contender {
  std::string name;
  data::RuntimeModelPtr model;
  core::BellamyPredictor* bellamy = nullptr;  ///< non-null for Bellamy variants
};

/// Deterministic recipe for building one contender.  Every split evaluates
/// its own contender instances; because every fit() restarts from the
/// captured seed / checkpoint, an instance built from the same spec produces
/// bit-identical predictions no matter which thread (or how many times) it
/// is built.
struct ContenderSpec {
  enum class Kind { kNnls, kBell, kBellamyLocal, kBellamyPretrained };
  Kind kind = Kind::kNnls;
  std::string name;
  std::uint64_t seed = 0;                            ///< kBellamyLocal
  std::shared_ptr<const nn::Checkpoint> checkpoint = nullptr;  ///< kBellamyPretrained
  core::ReuseStrategy strategy = core::ReuseStrategy::kPartialUnfreeze;
};

std::vector<Contender> make_contenders(const std::vector<ContenderSpec>& specs,
                                       const core::BellamyConfig& model_config,
                                       const core::FineTuneConfig& finetune) {
  std::vector<Contender> out;
  out.reserve(specs.size());
  for (const ContenderSpec& spec : specs) {
    switch (spec.kind) {
      case ContenderSpec::Kind::kNnls:
        out.push_back({spec.name, std::make_unique<baselines::ErnestModel>(), nullptr});
        break;
      case ContenderSpec::Kind::kBell:
        out.push_back({spec.name, std::make_unique<baselines::BellModel>(), nullptr});
        break;
      case ContenderSpec::Kind::kBellamyLocal: {
        auto pred = std::make_unique<core::BellamyPredictor>(model_config, finetune, spec.seed);
        auto* handle = pred.get();
        out.push_back({spec.name, std::move(pred), handle});
        break;
      }
      case ContenderSpec::Kind::kBellamyPretrained: {
        auto pred =
            std::make_unique<core::BellamyPredictor>(spec.checkpoint, finetune, spec.strategy);
        auto* handle = pred.get();
        out.push_back({spec.name, std::move(pred), handle});
        break;
      }
    }
  }
  return out;
}

void evaluate_split(const std::vector<data::JobRun>& runs, const Split& split,
                    std::size_t num_points, const std::string& algorithm,
                    const std::string& context_key, std::vector<Contender>& contenders,
                    ExperimentResult& out) {
  const auto train = train_runs(runs, split);

  // Collect the split's test queries once; every fitted contender answers
  // them in a single predict_batch call.
  std::vector<const char*> tasks;
  std::vector<data::JobRun> queries;
  if (split.interpolation_test && num_points >= 1) {
    tasks.push_back("interpolation");
    queries.push_back(runs.at(*split.interpolation_test));
  }
  if (split.extrapolation_test) {
    tasks.push_back("extrapolation");
    queries.push_back(runs.at(*split.extrapolation_test));
  }

  for (auto& c : contenders) {
    if (train.size() < c.model->min_training_points()) continue;
    util::Timer fit_timer;
    // A model rejects a split it cannot use (e.g. degenerate NNLS) by
    // throwing; that contender sits this split out.
    try {
      c.model->fit(train);
    } catch (const std::exception&) {
      continue;
    }

    FitRecord fit;
    fit.algorithm = algorithm;
    fit.model = c.name;
    fit.num_points = num_points;
    fit.fit_seconds = c.bellamy ? c.bellamy->last_fit().fit_seconds : fit_timer.seconds();
    fit.epochs = c.bellamy ? c.bellamy->last_fit().epochs_run : 0;
    out.fits.push_back(fit);

    std::vector<double> predicted;
    std::vector<bool> answered(queries.size(), true);
    try {
      predicted = c.model->predict_batch(queries);
    } catch (const std::exception&) {
      // Batch failed as a whole — ask one query at a time so one
      // unanswerable query does not drop the records of its sibling.
      predicted.assign(queries.size(), 0.0);
      for (std::size_t i = 0; i < queries.size(); ++i) {
        try {
          predicted[i] = c.model->predict_batch({queries[i]}).at(0);
        } catch (const std::exception&) {
          answered[i] = false;
        }
      }
    }

    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (!answered[i]) continue;
      EvalRecord rec;
      rec.algorithm = algorithm;
      rec.model = c.name;
      rec.task = tasks[i];
      rec.context_key = context_key;
      rec.num_points = num_points;
      rec.actual = queries[i].runtime_s;
      rec.predicted = predicted[i];
      rec.abs_error = absolute_error(rec.predicted, rec.actual);
      rec.rel_error = relative_error(rec.predicted, rec.actual);
      out.evals.push_back(std::move(rec));
    }
  }
}

/// One split awaiting evaluation (splits are generated serially so the RNG
/// stream is identical whether evaluation later runs on 1 or N threads).
struct SplitTask {
  std::size_t num_points = 0;
  Split split;
};

/// Evaluate all splits of one context, each on its own contenders built
/// from `specs`: fanned out over `pool`, or in order on the calling thread
/// when `pool` is null.  Records are appended to `out` in split order either
/// way.
void evaluate_context(const std::vector<data::JobRun>& runs,
                      const std::vector<SplitTask>& split_tasks, const std::string& algorithm,
                      const std::string& context_key, const std::vector<ContenderSpec>& specs,
                      const core::BellamyConfig& model_config,
                      const core::FineTuneConfig& finetune, parallel::ThreadPool* pool,
                      ExperimentResult& out) {
  const auto evaluate = [&](const SplitTask& task) {
    auto contenders = make_contenders(specs, model_config, finetune);
    ExperimentResult local;
    evaluate_split(runs, task.split, task.num_points, algorithm, context_key, contenders,
                   local);
    return local;
  };
  // parallel_map returns partials in split_tasks order no matter how the
  // pool schedules the tasks (each writes its own slot).
  std::vector<ExperimentResult> partials;
  if (pool) {
    partials = parallel::parallel_map(split_tasks, evaluate, pool);
  } else {
    partials.reserve(split_tasks.size());
    for (const SplitTask& task : split_tasks) partials.push_back(evaluate(task));
  }
  for (const ExperimentResult& partial : partials) {
    out.evals.insert(out.evals.end(), partial.evals.begin(), partial.evals.end());
    out.fits.insert(out.fits.end(), partial.fits.begin(), partial.fits.end());
  }
}

}  // namespace

std::vector<std::size_t> select_evaluation_contexts(
    const std::vector<data::ContextGroup>& groups, std::size_t count, util::Rng& rng) {
  if (groups.empty()) return {};
  count = std::min(count, groups.size());

  // Bucket groups by node type, in deterministic order.
  std::map<std::string, std::vector<std::size_t>> by_node;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    by_node[groups[i].runs.front().node_type].push_back(i);
  }
  std::vector<std::size_t> chosen;
  std::vector<bool> taken(groups.size(), false);
  // One context per node type first (coverage requirement).
  for (auto& [node, idxs] : by_node) {
    if (chosen.size() >= count) break;
    const std::size_t pick = idxs[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(idxs.size()) - 1))];
    chosen.push_back(pick);
    taken[pick] = true;
  }
  // Fill the remainder randomly.
  std::vector<std::size_t> rest;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    if (!taken[i]) rest.push_back(i);
  }
  rng.shuffle(rest);
  for (std::size_t i = 0; i < rest.size() && chosen.size() < count; ++i) {
    chosen.push_back(rest[i]);
  }
  return chosen;
}

ExperimentResult run_cross_context(const data::Dataset& c3o, const CrossContextConfig& cfg) {
  ExperimentResult out;
  const auto algorithms = cfg.algorithms.empty() ? c3o.algorithms() : cfg.algorithms;
  std::optional<parallel::ThreadPool> pool;
  if (cfg.eval_threads > 1) pool.emplace(cfg.eval_threads);

  for (const auto& algorithm : algorithms) {
    const data::Dataset algo_data = c3o.filter_algorithm(algorithm);
    if (algo_data.empty()) {
      throw std::invalid_argument("run_cross_context: no data for algorithm '" + algorithm +
                                  "'");
    }
    util::Rng rng(cfg.seed ^ util::fnv1a64(algorithm));
    const auto groups = algo_data.contexts();
    const auto chosen = select_evaluation_contexts(groups, cfg.contexts_per_algorithm, rng);

    for (const std::size_t gi : chosen) {
      const data::ContextGroup& group = groups[gi];
      const data::JobRun& reference = group.runs.front();

      // Pre-train once per (context, scenario); every split restarts from
      // the stored checkpoint.  Seeds are drawn here, in fixed order, so the
      // RNG stream — and with it every split and every fit — is identical
      // whether evaluation later runs serial or threaded.
      std::vector<std::pair<core::PretrainScenario, std::string>> scenarios;
      if (cfg.include_local) scenarios.push_back({core::PretrainScenario::kLocal, "Bellamy (local)"});
      if (cfg.include_filtered) {
        scenarios.push_back({core::PretrainScenario::kFiltered, "Bellamy (filtered)"});
      }
      if (cfg.include_full) scenarios.push_back({core::PretrainScenario::kFull, "Bellamy (full)"});

      std::vector<ContenderSpec> specs;
      if (cfg.include_nnls) specs.push_back({.kind = ContenderSpec::Kind::kNnls, .name = "NNLS"});
      if (cfg.include_bell) specs.push_back({.kind = ContenderSpec::Kind::kBell, .name = "Bell"});
      for (const auto& [scenario, name] : scenarios) {
        if (scenario == core::PretrainScenario::kLocal) {
          ContenderSpec spec{.kind = ContenderSpec::Kind::kBellamyLocal, .name = name};
          spec.seed = rng.next();
          specs.push_back(std::move(spec));
        } else {
          core::PreTrainConfig pre = cfg.pretrain;
          pre.seed = rng.next();
          core::BellamyModel pretrained(cfg.model_config, rng.next());
          data::Dataset corpus = core::pretraining_corpus(scenario, algo_data, reference);
          if (cfg.pretrain_sample_cap > 0 && corpus.size() > cfg.pretrain_sample_cap) {
            corpus = corpus.sample(cfg.pretrain_sample_cap, rng);
          }
          if (!corpus.empty()) core::pretrain(pretrained, corpus.runs(), pre);
          ContenderSpec spec{.kind = ContenderSpec::Kind::kBellamyPretrained, .name = name};
          spec.checkpoint = std::make_shared<const nn::Checkpoint>(pretrained.to_checkpoint());
          spec.strategy = core::ReuseStrategy::kPartialUnfreeze;
          specs.push_back(std::move(spec));
        }
      }

      std::vector<SplitTask> split_tasks;
      for (std::size_t n = 0; n <= cfg.max_points; ++n) {
        for (auto& split : generate_splits(group.runs, n, cfg.max_splits, rng)) {
          split_tasks.push_back({n, std::move(split)});
        }
      }
      evaluate_context(group.runs, split_tasks, algorithm, group.key, specs, cfg.model_config,
                       cfg.finetune, pool ? &*pool : nullptr, out);
    }
  }
  return out;
}

ExperimentResult run_cross_environment(const data::Dataset& c3o, const data::Dataset& bell,
                                       const CrossEnvironmentConfig& cfg) {
  ExperimentResult out;
  std::optional<parallel::ThreadPool> pool;
  if (cfg.eval_threads > 1) pool.emplace(cfg.eval_threads);
  std::vector<std::string> algorithms = cfg.algorithms;
  if (algorithms.empty()) {
    for (const auto& a : bell.algorithms()) {
      if (!c3o.filter_algorithm(a).empty()) algorithms.push_back(a);
    }
  }

  for (const auto& algorithm : algorithms) {
    const data::Dataset cloud = c3o.filter_algorithm(algorithm);
    const data::Dataset cluster = bell.filter_algorithm(algorithm);
    if (cloud.empty() || cluster.empty()) {
      throw std::invalid_argument("run_cross_environment: missing data for '" + algorithm +
                                  "'");
    }
    util::Rng rng(cfg.seed ^ util::fnv1a64(algorithm));

    // Pre-train on ALL cloud contexts of this algorithm (the target context
    // lives in a different environment entirely).
    core::PreTrainConfig pre = cfg.pretrain;
    pre.seed = rng.next();
    core::BellamyModel pretrained(cfg.model_config, rng.next());
    data::Dataset corpus = cloud;
    if (cfg.pretrain_sample_cap > 0 && corpus.size() > cfg.pretrain_sample_cap) {
      corpus = corpus.sample(cfg.pretrain_sample_cap, rng);
    }
    core::pretrain(pretrained, corpus.runs(), pre);

    const auto pretrained_ckpt =
        std::make_shared<const nn::Checkpoint>(pretrained.to_checkpoint());

    const auto groups = cluster.contexts();  // Bell data: one context per algorithm
    for (const auto& group : groups) {
      std::vector<ContenderSpec> specs;
      if (cfg.include_nnls) specs.push_back({.kind = ContenderSpec::Kind::kNnls, .name = "NNLS"});
      if (cfg.include_bell) specs.push_back({.kind = ContenderSpec::Kind::kBell, .name = "Bell"});
      {
        ContenderSpec spec{.kind = ContenderSpec::Kind::kBellamyLocal, .name = "Bellamy (local)"};
        spec.seed = rng.next();
        specs.push_back(std::move(spec));
      }
      for (const auto strategy :
           {core::ReuseStrategy::kPartialUnfreeze, core::ReuseStrategy::kFullUnfreeze,
            core::ReuseStrategy::kPartialReset, core::ReuseStrategy::kFullReset}) {
        ContenderSpec spec{.kind = ContenderSpec::Kind::kBellamyPretrained,
                           .name = std::string("Bellamy (") + core::strategy_name(strategy) +
                                   ")"};
        spec.checkpoint = pretrained_ckpt;
        spec.strategy = strategy;
        specs.push_back(std::move(spec));
      }

      std::vector<SplitTask> split_tasks;
      for (std::size_t n = 1; n <= cfg.max_points; ++n) {
        for (auto& split : generate_splits(group.runs, n, cfg.max_splits, rng)) {
          split_tasks.push_back({n, std::move(split)});
        }
      }
      evaluate_context(group.runs, split_tasks, algorithm, group.key, specs, cfg.model_config,
                       cfg.finetune, pool ? &*pool : nullptr, out);
    }
  }
  return out;
}

}  // namespace bellamy::eval

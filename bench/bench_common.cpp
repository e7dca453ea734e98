#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "data/bell_generator.hpp"
#include "data/c3o_generator.hpp"
#include "util/string_utils.hpp"

namespace bellamy::bench {

BenchOptions parse_options(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--paper-scale") {
      opts.paper_scale = true;
    } else if (arg == "--no-cache") {
      opts.no_cache = true;
    } else if (arg.rfind("--seed=", 0) == 0) {
      opts.seed = std::stoull(arg.substr(7));
    } else if (arg.rfind("--cache-dir=", 0) == 0) {
      opts.cache_dir = arg.substr(12);
    } else if (arg.rfind("--threads=", 0) == 0) {
      opts.eval_threads = std::stoull(arg.substr(10));
      if (opts.eval_threads == 0) opts.eval_threads = 1;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--paper-scale] [--no-cache] [--seed=N] [--cache-dir=DIR] "
          "[--threads=N]\n",
          argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag '%s' (try --help)\n", arg.c_str());
      std::exit(2);
    }
  }
  return opts;
}

data::Dataset make_c3o_dataset(const BenchOptions& opts) {
  data::C3OGeneratorConfig cfg;
  cfg.seed = opts.seed;
  return data::C3OGenerator(cfg).generate();
}

data::Dataset make_bell_dataset(const BenchOptions& opts) {
  data::BellGeneratorConfig cfg;
  cfg.seed = opts.seed ^ 0xbe11ULL;
  return data::BellGenerator(cfg).generate();
}

eval::CrossContextConfig cross_context_config(const BenchOptions& opts) {
  eval::CrossContextConfig cfg;
  cfg.seed = opts.seed;
  cfg.eval_threads = opts.eval_threads;
  // Paper-faithful: the network predicts raw seconds (no target scaling).
  cfg.model_config.standardize_target = false;
  if (opts.paper_scale) {
    cfg.contexts_per_algorithm = 7;
    cfg.max_splits = 200;
    cfg.pretrain.epochs = 2500;
    cfg.finetune.max_epochs = 2500;
    cfg.finetune.patience = 1000;
    cfg.pretrain_sample_cap = 0;
  } else {
    // Quick mode trades epochs for learning rate so the reduced budget still
    // reaches the raw-seconds output scale.
    cfg.contexts_per_algorithm = 2;
    cfg.max_splits = 5;
    cfg.pretrain.epochs = 350;
    cfg.pretrain.learning_rate = 5e-2;
    cfg.pretrain_sample_cap = 600;
    cfg.finetune.max_epochs = 500;
    cfg.finetune.patience = 250;
    cfg.finetune.base_lr = 3e-3;
    cfg.finetune.max_lr = 3e-2;
  }
  return cfg;
}

eval::CrossEnvironmentConfig cross_environment_config(const BenchOptions& opts) {
  eval::CrossEnvironmentConfig cfg;
  cfg.seed = opts.seed ^ 0xc105edULL;
  cfg.eval_threads = opts.eval_threads;
  cfg.model_config.standardize_target = false;
  if (opts.paper_scale) {
    cfg.max_splits = 500;
    cfg.pretrain.epochs = 2500;
    cfg.finetune.max_epochs = 2500;
    cfg.finetune.patience = 1000;
  } else {
    cfg.max_splits = 5;
    cfg.pretrain.epochs = 300;
    cfg.pretrain.learning_rate = 5e-2;
    cfg.pretrain_sample_cap = 600;
    cfg.finetune.max_epochs = 500;
    cfg.finetune.patience = 250;
    cfg.finetune.base_lr = 3e-3;
    cfg.finetune.max_lr = 3e-2;
  }
  return cfg;
}

namespace {

std::string signature_of(const BenchOptions& opts, const char* kind) {
  return util::format("%s|paper=%d|seed=%llu|v4", kind, opts.paper_scale ? 1 : 0,
                      static_cast<unsigned long long>(opts.seed));
}

}  // namespace

void save_result(const std::string& path, const std::string& signature,
                 const eval::ExperimentResult& result) {
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  if (!out) return;  // cache failures are non-fatal
  out << "# " << signature << "\n";
  out << "evals\t" << result.evals.size() << "\n";
  for (const auto& r : result.evals) {
    out << r.algorithm << '\t' << r.model << '\t' << r.task << '\t' << r.context_key << '\t'
        << r.num_points << '\t' << util::format("%.17g", r.predicted) << '\t'
        << util::format("%.17g", r.actual) << '\n';
  }
  out << "fits\t" << result.fits.size() << "\n";
  for (const auto& f : result.fits) {
    out << f.algorithm << '\t' << f.model << '\t' << f.num_points << '\t'
        << util::format("%.17g", f.fit_seconds) << '\t' << f.epochs << '\n';
  }
}

bool load_result(const std::string& path, const std::string& signature,
                 eval::ExperimentResult& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  if (!std::getline(in, line) || line != "# " + signature) return false;

  auto split_tabs = [](const std::string& s) { return util::split(s, '\t'); };
  try {
    if (!std::getline(in, line)) return false;
    auto head = split_tabs(line);
    if (head.size() != 2 || head[0] != "evals") return false;
    const std::size_t n_evals = std::stoul(head[1]);
    out.evals.clear();
    out.evals.reserve(n_evals);
    for (std::size_t i = 0; i < n_evals; ++i) {
      if (!std::getline(in, line)) return false;
      const auto f = split_tabs(line);
      if (f.size() != 7) return false;
      eval::EvalRecord r;
      r.algorithm = f[0];
      r.model = f[1];
      r.task = f[2];
      r.context_key = f[3];
      r.num_points = std::stoul(f[4]);
      r.predicted = util::parse_double(f[5]);
      r.actual = util::parse_double(f[6]);
      r.abs_error = std::abs(r.predicted - r.actual);
      r.rel_error = r.actual != 0.0 ? r.abs_error / std::abs(r.actual) : 0.0;
      out.evals.push_back(std::move(r));
    }
    if (!std::getline(in, line)) return false;
    head = split_tabs(line);
    if (head.size() != 2 || head[0] != "fits") return false;
    const std::size_t n_fits = std::stoul(head[1]);
    out.fits.clear();
    out.fits.reserve(n_fits);
    for (std::size_t i = 0; i < n_fits; ++i) {
      if (!std::getline(in, line)) return false;
      const auto f = split_tabs(line);
      if (f.size() != 5) return false;
      eval::FitRecord rec;
      rec.algorithm = f[0];
      rec.model = f[1];
      rec.num_points = std::stoul(f[2]);
      rec.fit_seconds = util::parse_double(f[3]);
      rec.epochs = std::stoul(f[4]);
      out.fits.push_back(std::move(rec));
    }
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

eval::ExperimentResult cached_cross_context(const BenchOptions& opts) {
  const std::string sig = signature_of(opts, "cross-context");
  const std::string path = opts.cache_dir + "/cross_context.tsv";
  eval::ExperimentResult result;
  if (!opts.no_cache && load_result(path, sig, result)) {
    std::fprintf(stderr, "[bench] using cached cross-context run (%s)\n", path.c_str());
    return result;
  }
  std::fprintf(stderr, "[bench] running cross-context experiment (%s)...\n",
               opts.paper_scale ? "paper scale" : "quick scale");
  result = eval::run_cross_context(make_c3o_dataset(opts), cross_context_config(opts));
  save_result(path, sig, result);
  return result;
}

eval::ExperimentResult cached_cross_environment(const BenchOptions& opts) {
  const std::string sig = signature_of(opts, "cross-environment");
  const std::string path = opts.cache_dir + "/cross_environment.tsv";
  eval::ExperimentResult result;
  if (!opts.no_cache && load_result(path, sig, result)) {
    std::fprintf(stderr, "[bench] using cached cross-environment run (%s)\n", path.c_str());
    return result;
  }
  std::fprintf(stderr, "[bench] running cross-environment experiment (%s)...\n",
               opts.paper_scale ? "paper scale" : "quick scale");
  result = eval::run_cross_environment(make_c3o_dataset(opts), make_bell_dataset(opts),
                                       cross_environment_config(opts));
  save_result(path, sig, result);
  return result;
}

}  // namespace bellamy::bench

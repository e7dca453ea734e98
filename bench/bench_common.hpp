#pragma once
// Shared infrastructure for the figure/table benchmark binaries.
//
// Every binary accepts:
//   --paper-scale   run with the paper's full split/context/epoch counts
//                   (hours of single-core compute) instead of the quick
//                   defaults that finish in minutes
//   --no-cache      recompute even if a cached experiment result exists
//   --seed=N        master seed (default 2021)
//
// The fig5/fig6/fig7/time-to-fit binaries all consume the *same* underlying
// cross-context experiment, so its result is cached on disk after the first
// run (directory ./bellamy-bench-cache) and reused by the siblings.

#include <cstdio>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "eval/experiment.hpp"

namespace bellamy::bench {

struct BenchOptions {
  bool paper_scale = false;
  bool no_cache = false;
  std::uint64_t seed = 2021;
  std::string cache_dir = "bellamy-bench-cache";
  /// Split-evaluation worker threads (--threads=N); results are bit-identical
  /// to the serial path at any thread count.
  std::size_t eval_threads = 1;
};

/// Parses the common flags; unknown flags abort with a usage message.
BenchOptions parse_options(int argc, char** argv);

/// The C3O-like / Bell-like trace datasets used by all benches.
data::Dataset make_c3o_dataset(const BenchOptions& opts);
data::Dataset make_bell_dataset(const BenchOptions& opts);

/// Experiment configurations: quick (default) vs paper-scale.
eval::CrossContextConfig cross_context_config(const BenchOptions& opts);
eval::CrossEnvironmentConfig cross_environment_config(const BenchOptions& opts);

/// Cached cross-context / cross-environment runs, keyed by a config
/// signature; recomputes on mismatch or --no-cache.
eval::ExperimentResult cached_cross_context(const BenchOptions& opts);
eval::ExperimentResult cached_cross_environment(const BenchOptions& opts);

/// TSV (de)serialization of experiment results (used by the cache and handy
/// for piping results into plotting scripts).
void save_result(const std::string& path, const std::string& signature,
                 const eval::ExperimentResult& result);
bool load_result(const std::string& path, const std::string& signature,
                 eval::ExperimentResult& out);

}  // namespace bellamy::bench

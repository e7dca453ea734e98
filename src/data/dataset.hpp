#pragma once
// Dataset container with the grouping/filtering operations the evaluation
// needs: per-algorithm slices, context grouping, scale-out inventories, and
// the "filtered" pre-training selection of §IV-C.1 (keep only contexts that
// are as different as possible from a reference context).

#include <string>
#include <vector>

#include "data/record.hpp"

namespace bellamy::util {
class Rng;
}

namespace bellamy::data {

/// All runs belonging to one execution context.
struct ContextGroup {
  std::string key;
  std::vector<JobRun> runs;

  /// Distinct scale-outs present, ascending.
  std::vector<int> scale_outs() const;
  /// Mean runtime at one scale-out (0 if absent).
  double mean_runtime_at(int scale_out) const;
  /// All runs with the given scale-out.
  std::vector<JobRun> runs_at(int scale_out) const;
};

class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::vector<JobRun> runs);

  const std::vector<JobRun>& runs() const { return runs_; }
  std::size_t size() const { return runs_.size(); }
  bool empty() const { return runs_.empty(); }

  void add(JobRun run);
  void append(const Dataset& other);

  /// Distinct algorithm names, sorted.
  std::vector<std::string> algorithms() const;
  /// Runs of one algorithm.
  Dataset filter_algorithm(const std::string& algorithm) const;
  /// Generic predicate filter.
  template <typename Pred>
  Dataset filter(Pred&& pred) const {
    std::vector<JobRun> kept;
    for (const auto& r : runs_) {
      if (pred(r)) kept.push_back(r);
    }
    return Dataset(std::move(kept));
  }

  /// Group into contexts (stable order by context key).
  std::vector<ContextGroup> contexts() const;
  std::size_t num_contexts() const { return contexts().size(); }

  /// Every run except the given context.
  Dataset exclude_context(const std::string& context_key) const;

  /// The paper's "filtered" pre-training corpus: same algorithm, but only
  /// contexts where node type, data characteristics and job parameters all
  /// differ from `reference`, and the dataset size differs by >= 20 %.
  Dataset filter_dissimilar(const JobRun& reference) const;

  /// Random subset of n runs (all runs if n >= size), in random order.
  Dataset sample(std::size_t n, util::Rng& rng) const;

 private:
  std::vector<JobRun> runs_;
};

}  // namespace bellamy::data

#pragma once
// bellamy::reduce — training-data reduction for cheap refits.
//
// Under heavy traffic a context's run history grows without bound, and with
// it the cost of every `refit_async` fine-tune.  A ReductionConfig maps the
// full history to a bounded coreset BEFORE fine-tuning (arXiv 2111.07904:
// carefully reduced training sets preserve accuracy at a fraction of the
// training cost).  Four deterministic, seeded policies:
//
//   kUniform    seeded uniform subsample of the history
//   kRecency    recency-weighted sampling (weight halves every
//               `recency_half_life` runs of age; newest run has weight 1)
//   kCoverage   scale-out-coverage binning: stratify by scale_out and take
//               round-robin across bins so the interpolation range is never
//               hollowed out — every populated bin keeps at least one run
//               whenever budget >= #bins
//   kLossAware  score candidates by the current model's absolute prediction
//               error and keep the hardest (falls back to kUniform when no
//               model is available, e.g. a cold refit with no base)
//
// Determinism contract: same seed + same history => byte-identical coreset,
// independent of thread count (selection is single-threaded; the only model
// interaction, predict_batch, is itself bit-identical across chunkings).
// Kept runs always preserve their original history order.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "data/record.hpp"

namespace bellamy::core {
class BellamyModel;
}

namespace bellamy::reduce {

enum class ReductionPolicy : std::uint8_t {
  kNone = 0,       ///< identity: keep the full history
  kUniform = 1,    ///< seeded uniform subsample
  kRecency = 2,    ///< recency-weighted sampling
  kCoverage = 3,   ///< scale-out-coverage binning
  kLossAware = 4,  ///< keep the runs the current model predicts worst
};

/// Stable lowercase name ("none", "uniform", "recency", "coverage",
/// "loss-aware") for flags, JSON and logs.
const char* policy_name(ReductionPolicy policy);
/// Inverse of policy_name; std::nullopt for unknown names.
std::optional<ReductionPolicy> parse_policy(std::string_view name);

struct ReductionConfig {
  ReductionPolicy policy = ReductionPolicy::kNone;
  std::size_t budget = 0;    ///< max runs kept; 0 keeps everything
  std::uint64_t seed = 17;   ///< drives every stochastic policy
  /// kRecency: a run's weight halves every this-many runs of age.
  double recency_half_life = 64.0;

  /// True when this config can ever drop a run.
  bool active() const { return policy != ReductionPolicy::kNone && budget > 0; }
};

/// What one reduction did: sizes plus scale-out coverage stats, so callers
/// (registry stats, bench JSON, tests) can see whether the interpolation
/// range survived.
struct ReductionReport {
  ReductionPolicy policy = ReductionPolicy::kNone;
  std::size_t input_runs = 0;
  std::size_t kept_runs = 0;
  std::size_t dropped_runs = 0;
  std::size_t budget = 0;             ///< 0 = unbounded
  std::size_t input_scaleout_bins = 0;  ///< distinct scale-outs in the history
  std::size_t kept_scaleout_bins = 0;   ///< distinct scale-outs in the coreset
  int min_scaleout_kept = 0;
  int max_scaleout_kept = 0;

  /// Fraction of populated scale-out bins still represented (1.0 when the
  /// input is empty).
  double scaleout_coverage() const {
    if (input_scaleout_bins == 0) return 1.0;
    return static_cast<double>(kept_scaleout_bins) /
           static_cast<double>(input_scaleout_bins);
  }
};

/// Map `runs` to a coreset of at most `config.budget` runs (original order
/// preserved).  `model` is only consulted by kLossAware — pass the model the
/// refit is about to fine-tune; nullptr falls back to kUniform.  When the
/// config is inactive or the budget covers the history, the input is
/// returned unchanged (still reported).
std::vector<data::JobRun> reduce_runs(const std::vector<data::JobRun>& runs,
                                      const ReductionConfig& config,
                                      const core::BellamyModel* model = nullptr,
                                      ReductionReport* report = nullptr);

}  // namespace bellamy::reduce

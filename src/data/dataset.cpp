#include "data/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "util/rng.hpp"

namespace bellamy::data {

std::vector<int> ContextGroup::scale_outs() const {
  std::set<int> s;
  for (const auto& r : runs) s.insert(r.scale_out);
  return {s.begin(), s.end()};
}

double ContextGroup::mean_runtime_at(int scale_out) const {
  double total = 0.0;
  std::size_t n = 0;
  for (const auto& r : runs) {
    if (r.scale_out == scale_out) {
      total += r.runtime_s;
      ++n;
    }
  }
  return n ? total / static_cast<double>(n) : 0.0;
}

std::vector<JobRun> ContextGroup::runs_at(int scale_out) const {
  std::vector<JobRun> out;
  for (const auto& r : runs) {
    if (r.scale_out == scale_out) out.push_back(r);
  }
  return out;
}

Dataset::Dataset(std::vector<JobRun> runs) : runs_(std::move(runs)) {}

void Dataset::add(JobRun run) { runs_.push_back(std::move(run)); }

void Dataset::append(const Dataset& other) {
  runs_.insert(runs_.end(), other.runs_.begin(), other.runs_.end());
}

std::vector<std::string> Dataset::algorithms() const {
  std::set<std::string> s;
  for (const auto& r : runs_) s.insert(r.algorithm);
  return {s.begin(), s.end()};
}

Dataset Dataset::filter_algorithm(const std::string& algorithm) const {
  return filter([&](const JobRun& r) { return r.algorithm == algorithm; });
}

std::vector<ContextGroup> Dataset::contexts() const {
  std::map<std::string, ContextGroup> groups;
  for (const auto& r : runs_) {
    auto& g = groups[r.context_key()];
    g.key = r.context_key();
    g.runs.push_back(r);
  }
  std::vector<ContextGroup> out;
  out.reserve(groups.size());
  for (auto& [key, g] : groups) out.push_back(std::move(g));
  return out;
}

Dataset Dataset::exclude_context(const std::string& context_key) const {
  return filter([&](const JobRun& r) { return r.context_key() != context_key; });
}

Dataset Dataset::filter_dissimilar(const JobRun& reference) const {
  const double ref_size = static_cast<double>(reference.dataset_size_mb);
  return filter([&](const JobRun& r) {
    if (r.algorithm != reference.algorithm) return false;
    if (r.node_type == reference.node_type) return false;
    if (r.data_characteristics == reference.data_characteristics) return false;
    if (r.job_parameters == reference.job_parameters) return false;
    const double size = static_cast<double>(r.dataset_size_mb);
    const double rel = ref_size > 0.0 ? std::abs(size - ref_size) / ref_size : 1.0;
    return rel >= 0.20;  // "significantly larger or smaller (>= 20%)"
  });
}

Dataset Dataset::sample(std::size_t n, util::Rng& rng) const {
  if (n >= runs_.size()) return *this;
  const auto idx = rng.sample_without_replacement(runs_.size(), n);
  std::vector<JobRun> out;
  out.reserve(n);
  for (std::size_t i : idx) out.push_back(runs_[i]);
  return Dataset(std::move(out));
}

}  // namespace bellamy::data

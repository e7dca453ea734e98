#pragma once
// Shared plumbing of the end-to-end benchmark program (bellamy_bench):
// options, the span tracer, the metric report and its JSON form, and the
// host/process samplers every workload uses.
//
// The program only calls public library functions and times them from the
// outside; nothing here reaches into a layer.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/bellamy_model.hpp"
#include "data/dataset.hpp"

namespace bench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);
double micros_between(Clock::time_point a, Clock::time_point b);
Clock::duration to_duration(double seconds);

struct Options {
  Clock::time_point started = Clock::now();  ///< process start, for the first set-up
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;       ///< length of the measured window
  std::string trace_path;      ///< non-empty: record spans, write them here, run the layer probes
  std::string json_path;       ///< where the report goes
  bool perturb_expected = false;  ///< nudge one expected value by 1 ulp (gate self-test)
};

// ---------------------------------------------------------------------------
// Tracing: spans recorded around calls into library layers, kept in memory
// and written once at exit as Chrome trace-event JSON.  A disabled tracer
// costs one branch per call site.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  /// Fresh span id (ids are never 0; 0 means "no parent" / "no request").
  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  /// Record a finished span.  Thread-safe; no-op when disabled.
  void record(const char* name, const char* layer, Clock::time_point start,
              Clock::time_point end, std::uint64_t id, std::uint64_t parent = 0,
              std::uint64_t request = 0);
  std::size_t size() const;
  /// Self time per layer in ms: each span's duration minus the part of it
  /// its child spans cover, summed by layer.  Computed over every span.
  std::map<std::string, double> self_ms_by_layer() const;
  /// Chrome trace-event JSON.  Past kMaxWrittenSpans spans, only every k-th
  /// request's spans are written (all spans of a kept request, and every
  /// span without a request id); the self times above still see them all.
  bool write_chrome_json(const std::string& path) const;

  static constexpr std::size_t kMaxWrittenSpans = 200000;

 private:
  struct Span {
    const char* name;
    const char* layer;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request;
    std::uint32_t tid;
  };

  const bool enabled_;
  const Clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span on the calling thread.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, const char* layer, std::uint64_t parent = 0,
            std::uint64_t request = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  const char* name_;
  const char* layer_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_;
  std::uint64_t request_;
  Clock::time_point start_{};
};

// ---------------------------------------------------------------------------
// Report: every metric by name with its unit, the correctness gates, and the
// op counts.  Written as one JSON document that benchmark/run.py reads.
// ---------------------------------------------------------------------------

class Report {
 public:
  void metric(const std::string& name, double value, const char* unit);
  /// A correctness gate; any failed gate makes the run incorrect.
  void gate(const std::string& name, bool ok, const std::string& detail = "");
  /// A host-noise or validity warning (does not fail the run).
  void flag(const std::string& text);

  bool correct() const;
  bool write_json(const Options& options) const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  struct Gate {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Metric> metrics_;
  std::vector<Gate> gates_;
  std::vector<std::string> flags_;
};

// ---------------------------------------------------------------------------
// Samplers
// ---------------------------------------------------------------------------

/// q-quantile (q in [0, 1]) with linear interpolation; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// User + system CPU seconds of the whole process (all threads).
double process_cpu_seconds();
/// Peak resident set size of the process in MB (VmHWM).
double peak_rss_mb();

/// Aggregate CPU counters from /proc/stat; steal share between two samples.
struct HostCpu {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  static HostCpu now();
};
double steal_pct(const HostCpu& begin, const HostCpu& end);

/// Completions per whole second of a measured window, safe to bump from
/// several threads.  The trend compares the first and last thirds.
class RateSeries {
 public:
  void start(Clock::time_point window_start, double seconds);
  void add(Clock::time_point when, std::uint64_t n = 1);
  /// (mean of last third - mean of first third) / mean of first third, in %.
  double trend_pct() const;
  /// Median completions per second over the window's whole seconds.
  double median_per_s() const;

 private:
  static constexpr std::size_t kMaxBuckets = 128;
  Clock::time_point start_{};
  std::size_t buckets_ = 0;
  std::array<std::atomic<std::uint64_t>, kMaxBuckets> counts_{};
};

/// Relative change (last - first) / first in %, over the thirds of a series
/// (shared by RateSeries and per-pass series).
double thirds_trend_pct(const std::vector<double>& series);

/// Order-sensitive FNV-1a over the exact bytes of a vector of doubles: equal
/// hashes <=> (with overwhelming probability) bit-identical values.
std::uint64_t bits_hash(const std::vector<double>& values);

/// Window-level bookkeeping shared by every workload: steal, CPU and the
/// throughput series, plus the host-noise flag.
struct WindowProbe {
  void begin(Clock::time_point at);
  void end(Clock::time_point at);
  /// Emits host.steal_pct / loadgen.trend_pct and flags a drifting window.
  void report(Report& report, double trend_pct) const;

  Clock::time_point start{};
  Clock::time_point stop{};
  HostCpu host_begin, host_end;
  double cpu_begin = 0.0;
  double cpu_end = 0.0;
  double seconds() const { return seconds_between(start, stop); }
  double cpu_seconds() const { return cpu_end - cpu_begin; }
};

// ---------------------------------------------------------------------------
// Workloads and the layer probes.
// ---------------------------------------------------------------------------

/// Set-up runs at least kSetupRepeats times per process, and more while the
/// repetitions total under kSetupMinSeconds; setup_s is the median, so work
/// moved into set-up shows while one slow repetition (or a millisecond-scale
/// set-up's timer noise) does not.
constexpr int kSetupRepeats = 5;
constexpr double kSetupMinSeconds = 2.0;

/// Runs `setup` as above (the first repetition timed from process start)
/// and returns each duration in seconds.  The last repetition's state is
/// kept.
template <typename Fn>
std::vector<double> timed_setups(const Options& options, Fn&& setup) {
  std::vector<double> seconds;
  double total = 0.0;
  for (int i = 0; i < kSetupRepeats || total < kSetupMinSeconds; ++i) {
    const Clock::time_point t0 = i == 0 ? options.started : Clock::now();
    setup();
    seconds.push_back(seconds_between(t0, Clock::now()));
    total += seconds.back();
  }
  return seconds;
}

/// Shared epilogue of every workload: the metrics all of them report (the
/// end-to-end ones plus latency p90, CPU per op and the sample count).
/// `ops` is the workload's unit of work completed in the window, `ops_per_s`
/// its rate, and the latency samples are per op, in microseconds.
void report_end_to_end(Report& report, const std::vector<double>& setup_seconds,
                       const WindowProbe& window, double ops, double ops_per_s,
                       const std::vector<double>& latency_us);

/// What a workload hands to the layer probes (used by trace runs only).
struct ProbeContext {
  double mean_batch_fill = 0.0;   ///< observed serve batch fill (0 = no serving)
  double pretrain_seconds = 0.0;  ///< the workload's pretrain time (fit: one pass's five)
  std::size_t pretrain_steps = 0; ///< train steps those pretrains took
  double serve_window_batches_per_s = 0.0;  ///< micro-batches per second of window
  std::size_t serve_workers = 0;
};

/// The base model the sweep and serve workloads use: 200 pretrain epochs on
/// a 600-run sample of `history`.  Prediction cost does not depend on how
/// long the model trained.  Records the pretrain into `context`.
bellamy::core::BellamyModel pretrain_base(const bellamy::data::Dataset& history,
                                          std::uint64_t seed, Tracer& tracer,
                                          ProbeContext& context);

ProbeContext run_fit(const Options& options, Tracer& tracer, Report& report);
ProbeContext run_sweep(const Options& options, Tracer& tracer, Report& report);
/// serve-closed, serve-open and serve-mixed.
ProbeContext run_serve(const Options& options, Tracer& tracer, Report& report);

/// Isolated timings of single layers at the model's real shapes, plus the
/// shares that relate them to the workload just measured.
void run_layer_probes(const Options& options, const ProbeContext& context, Report& report);

}  // namespace bench

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <unordered_map>

#include "bench.hpp"

namespace bench {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

// ---- Tracer ----------------------------------------------------------------

namespace {

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// Text that reads back as exactly the same double (17 significant digits).
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

void Tracer::record(const char* name, const char* layer, Clock::time_point start,
                    Clock::time_point end, std::uint64_t id, std::uint64_t parent,
                    std::uint64_t request) {
  if (!enabled_) return;
  const Span span{name,
                  layer,
                  std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_).count(),
                  std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_).count(),
                  id,
                  parent,
                  request,
                  thread_index()};
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> self_ms;
  for (const Span& s : spans_) {
    std::int64_t covered = 0;
    if (const auto it = children.find(s.id); it != children.end()) {
      std::vector<const Span*> kids = it->second;
      std::sort(kids.begin(), kids.end(),
                [](const Span* a, const Span* b) { return a->start_ns < b->start_ns; });
      std::int64_t cursor = s.start_ns;
      for (const Span* c : kids) {
        const std::int64_t lo = std::max(c->start_ns, cursor);
        const std::int64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    self_ms[s.layer] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return self_ms;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t with_request = 0;
  for (const Span& s : spans_) with_request += s.request != 0;
  const std::size_t others = spans_.size() - with_request;
  std::uint64_t stride = 1;
  if (spans_.size() > kMaxWrittenSpans && with_request > 0) {
    const std::size_t budget = kMaxWrittenSpans - std::min(others, kMaxWrittenSpans / 2);
    stride = (with_request + budget - 1) / budget;
  }
  out << "{\"displayTimeUnit\": \"ns\", \"otherData\": {\"request_sampling\": " << stride
      << "}, \"traceEvents\": [\n";
  char buf[512];
  bool first = true;
  for (const Span& s : spans_) {
    if (s.request != 0 && s.request % stride != 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                  "\"dur\": %.3f, \"pid\": 1, \"tid\": %u, \"args\": {\"id\": %llu, "
                  "\"parent\": %llu, \"request\": %llu}}\n",
                  first ? "" : ",", s.name, s.layer, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out << buf;
    first = false;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

SpanScope::SpanScope(Tracer& tracer, const char* name, const char* layer,
                     std::uint64_t parent, std::uint64_t request)
    : tracer_(tracer), name_(name), layer_(layer), parent_(parent), request_(request) {
  if (!tracer_.enabled()) return;
  id_ = tracer_.next_id();
  start_ = Clock::now();
}

SpanScope::~SpanScope() {
  if (!tracer_.enabled()) return;
  tracer_.record(name_, layer_, start_, Clock::now(), id_, parent_, request_);
}

// ---- Report ----------------------------------------------------------------

void Report::metric(const std::string& name, double value, const char* unit) {
  metrics_.push_back({name, value, unit});
}

void Report::gate(const std::string& name, bool ok, const std::string& detail) {
  gates_.push_back({name, ok, detail});
  std::fprintf(stderr, "[gate] %-28s %s%s%s\n", name.c_str(), ok ? "ok" : "FAILED",
               detail.empty() ? "" : "  ", detail.c_str());
}

void Report::flag(const std::string& text) {
  flags_.push_back(text);
  std::fprintf(stderr, "[flag] %s\n", text.c_str());
}

bool Report::correct() const {
  return failed == 0 && std::all_of(gates_.begin(), gates_.end(),
                                    [](const Gate& g) { return g.ok; });
}

bool Report::write_json(const Options& options) const {
  std::ofstream out(options.json_path);
  if (!out) return false;
  out << "{\n  \"workload\": \"" << json_escape(options.workload) << "\",\n"
      << "  \"seed\": " << options.seed << ",\n"
      << "  \"seconds\": " << json_number(options.seconds) << ",\n"
      << "  \"traced\": " << (options.trace_path.empty() ? "false" : "true") << ",\n"
      << "  \"correct\": " << (correct() ? "true" : "false") << ",\n"
      << "  \"attempted\": " << attempted << ",\n"
      << "  \"failed\": " << failed << ",\n  \"gates\": [";
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    out << (i ? ", " : "") << "{\"name\": \"" << json_escape(gates_[i].name)
        << "\", \"ok\": " << (gates_[i].ok ? "true" : "false") << ", \"detail\": \""
        << json_escape(gates_[i].detail) << "\"}";
  }
  out << "],\n  \"flags\": [";
  for (std::size_t i = 0; i < flags_.size(); ++i) {
    out << (i ? ", " : "") << "\"" << json_escape(flags_[i]) << "\"";
  }
  out << "],\n  \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    out << (i ? ",\n    " : "\n    ") << "\"" << json_escape(metrics_[i].name)
        << "\": {\"value\": " << json_number(metrics_[i].value) << ", \"unit\": \""
        << json_escape(metrics_[i].unit) << "\"}";
  }
  out << "\n  }\n}\n";
  return static_cast<bool>(out);
}

// ---- Samplers --------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across exec,
  // so a small process would report the peak of the one that started it.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

HostCpu HostCpu::now() {
  HostCpu sample;
  std::ifstream stat("/proc/stat");
  std::string label;
  if (!(stat >> label) || label != "cpu") return sample;
  // user nice system idle iowait irq softirq steal (guest time is folded into user)
  std::uint64_t fields[8] = {};
  for (std::uint64_t& f : fields) {
    if (!(stat >> f)) break;
  }
  for (const std::uint64_t f : fields) sample.total += f;
  sample.steal = fields[7];
  return sample;
}

double steal_pct(const HostCpu& begin, const HostCpu& end) {
  if (end.total <= begin.total) return 0.0;
  return 100.0 * static_cast<double>(end.steal - begin.steal) /
         static_cast<double>(end.total - begin.total);
}

void RateSeries::start(Clock::time_point window_start, double seconds) {
  start_ = window_start;
  buckets_ = std::min(kMaxBuckets, static_cast<std::size_t>(std::max(1.0, std::floor(seconds))));
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
}

void RateSeries::add(Clock::time_point when, std::uint64_t n) {
  if (when < start_) return;
  const auto idx = static_cast<std::size_t>(seconds_between(start_, when));
  if (idx < buckets_) counts_[idx].fetch_add(n, std::memory_order_relaxed);
}

double RateSeries::trend_pct() const {
  std::vector<double> series;
  for (std::size_t i = 0; i < buckets_; ++i) {
    series.push_back(static_cast<double>(counts_[i].load(std::memory_order_relaxed)));
  }
  return thirds_trend_pct(series);
}

double RateSeries::median_per_s() const {
  std::vector<double> series;
  for (std::size_t i = 0; i < buckets_; ++i) {
    series.push_back(static_cast<double>(counts_[i].load(std::memory_order_relaxed)));
  }
  return median(std::move(series));
}

double thirds_trend_pct(const std::vector<double>& series) {
  if (series.size() < 2) return 0.0;
  const std::size_t third = std::max<std::size_t>(1, series.size() / 3);
  double first = 0.0;
  double last = 0.0;
  for (std::size_t i = 0; i < third; ++i) {
    first += series[i];
    last += series[series.size() - 1 - i];
  }
  return first > 0.0 ? 100.0 * (last - first) / first : 0.0;
}

std::uint64_t bits_hash(const std::vector<double>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

void WindowProbe::begin(Clock::time_point at) {
  start = at;
  host_begin = HostCpu::now();
  cpu_begin = process_cpu_seconds();
}

void WindowProbe::end(Clock::time_point at) {
  stop = at;
  host_end = HostCpu::now();
  cpu_end = process_cpu_seconds();
}

void WindowProbe::report(Report& report, double trend_pct) const {
  report.metric("host.steal_pct", steal_pct(host_begin, host_end), "%");
  report.metric("loadgen.trend_pct", trend_pct, "%");
  if (std::abs(trend_pct) > 5.0) {
    char text[160];
    std::snprintf(text, sizeof(text),
                  "throughput drifted %.1f%% between the first and last third of the window "
                  "(host steal %.1f%%)",
                  trend_pct, steal_pct(host_begin, host_end));
    report.flag(text);
  }
}

void report_end_to_end(Report& report, const std::vector<double>& setup_seconds,
                       const WindowProbe& window, double ops, double ops_per_s,
                       const std::vector<double>& latency_us) {
  const double safe_ops = std::max(ops, 1.0);
  report.metric("setup_s", median(setup_seconds), "s");
  report.metric("throughput_per_s", ops_per_s, "1/s");
  report.metric("latency_p50_us", quantile(latency_us, 0.50), "us");
  report.metric("latency_p90_us", quantile(latency_us, 0.90), "us");
  report.metric("cpu_us_per_op", window.cpu_seconds() * 1e6 / safe_ops, "us");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("loadgen.samples", static_cast<double>(latency_us.size()), "count");
}

}  // namespace bench

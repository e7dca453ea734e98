// The three serving workloads.  One in-process node (ModelRegistry +
// PredictionService + DriftMonitor + ServeServer on an ephemeral loopback
// port) serves one pretrained base model published under 8 context keys;
// all load comes from this process over at most 2 connections and 2 caller
// threads.
//
//   serve-closed  2 connections x async window 32, closed loop
//   serve-open    Poisson 4,000 req/s, single requests on 1 connection;
//                 latency is timed from each request's due time
//   serve-mixed   Poisson 20,000 req/s predictions on 1 connection, while a
//                 second connection refits (every 500 ms), publishes a fresh
//                 key (every 1 s) and reports observed runs (100/s)

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/trainer.hpp"
#include "data/c3o_generator.hpp"
#include "net/net.hpp"
#include "reduce/reduction.hpp"
#include "serve/serve.hpp"
#include "util/rng.hpp"

using namespace bellamy;
using namespace std::chrono_literals;

namespace bench {

namespace {

constexpr std::size_t kModels = 8;
constexpr int kScaleOuts = 60;
constexpr std::size_t kClosedWindow = 32;
constexpr std::size_t kServeWorkers = 2;
constexpr double kOpenRate = 4000.0;
constexpr double kMixedRate = 20000.0;
constexpr auto kRefitEvery = 500ms;
constexpr auto kPublishEvery = 1000ms;
constexpr auto kReportEvery = 10ms;
constexpr std::size_t kRefitBudget = 9;

/// One serving node: the library defaults plus workers=2, a monitor-only
/// drift monitor for report_run, and uniform@9 training-data reduction for
/// refits.  Teardown order: server, service, monitor, registry.
struct Node {
  Node() {
    registry.set_default_reduction(
        {.policy = reduce::ReductionPolicy::kUniform, .budget = kRefitBudget});
    serve::ServeOptions options;
    options.workers = kServeWorkers;
    service.emplace(registry, options);
    drift.emplace(registry);
    net::ServerOptions server_options;
    server_options.drift_monitor = &*drift;
    server.emplace(registry, *service, server_options);
    std::string error;
    if (!server->start(error)) throw std::runtime_error("server start failed: " + error);
  }
  ~Node() {
    server->stop();
    server.reset();
    service.reset();
  }
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  serve::ModelRegistry registry;
  std::optional<serve::DriftMonitor> drift;
  std::optional<serve::PredictionService> service;
  std::optional<net::ServeServer> server;
};

std::unique_ptr<net::NetClient> connect(const Node& node) {
  auto client = std::make_unique<net::NetClient>();
  std::string error;
  if (!client->connect("127.0.0.1", node.server->port(), error)) {
    throw std::runtime_error("connect failed: " + error);
  }
  return client;
}

struct ServeSetup {
  std::vector<data::ContextGroup> contexts;  ///< the 8 served contexts
  std::optional<core::BellamyModel> base;
  std::vector<serve::ModelKey> keys;
  std::vector<std::vector<double>> expected;  ///< [model][scale-out] base predictions
  std::unique_ptr<Node> node;
  std::vector<std::unique_ptr<net::NetClient>> clients;  ///< [0] load, [1] second caller
  std::vector<double> publish_ms;
};

ServeSetup make_serve(std::uint64_t seed, std::size_t connections, Tracer& tracer,
                      ProbeContext& context) {
  ServeSetup s;
  data::Dataset history;
  {
    SpanScope span(tracer, "data.generate_c3o", "data");
    data::C3OGeneratorConfig gen;
    gen.seed = seed;
    history = data::C3OGenerator(gen).generate_algorithm("sgd");
  }
  s.base.emplace(pretrain_base(history, seed, tracer, context));

  std::vector<data::ContextGroup> groups = history.contexts();
  util::Rng rng(seed ^ 0x5e7eULL);
  rng.shuffle(groups);
  groups.resize(kModels);
  s.contexts = std::move(groups);
  for (std::size_t m = 0; m < kModels; ++m) {
    s.keys.push_back({"sgd", "bench-" + std::to_string(m)});
    std::vector<double> row(kScaleOuts + 1, 0.0);
    for (int x = 1; x <= kScaleOuts; ++x) {
      data::JobRun q = s.contexts[m].runs.front();
      q.scale_out = x;
      row[static_cast<std::size_t>(x)] = s.base->predict_one(q);
    }
    s.expected.push_back(std::move(row));
  }

  s.node = std::make_unique<Node>();
  for (std::size_t c = 0; c < connections; ++c) {
    SpanScope span(tracer, "net.connect", "net");
    s.clients.push_back(connect(*s.node));
  }
  for (const serve::ModelKey& key : s.keys) {
    const Clock::time_point t0 = Clock::now();
    SpanScope span(tracer, "net.publish", "net");
    const auto published = s.clients[0]->publish(key, *s.base);
    if (!published.ok()) throw std::runtime_error("publish failed: " + published.error_text());
    s.publish_ms.push_back(micros_between(t0, Clock::now()) / 1e3);
  }
  return s;
}

data::JobRun query_for(const ServeSetup& s, std::size_t model, int scale_out) {
  data::JobRun q = s.contexts[model].runs.front();
  q.scale_out = scale_out;
  return q;
}

/// Window phase boundaries shared by every load thread.
struct Phases {
  Clock::time_point warm_start;
  Clock::time_point window_start;
  Clock::time_point window_end;
  bool in_window(Clock::time_point t) const { return t >= window_start && t < window_end; }
};

/// What one load thread measured.  Merged by the main thread after join.
struct LoadStats {
  std::vector<double> latency_us;  ///< per request in the window (from due time when open loop)
  std::vector<double> rtt_us;      ///< send -> response, per request in the window
  std::vector<double> lag_us;      ///< open loop: send - due
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::uint64_t base_mismatches = 0;  ///< responses equal to no base prediction
  /// Distinct non-base values seen per (model, scale-out): after a refit
  /// these must equal the refit model's predictions.
  std::map<std::pair<std::size_t, int>, std::set<double>> other_values;
  std::string error;
};

struct InFlight {
  Clock::time_point due;
  Clock::time_point sent;
  std::size_t model;
  int scale_out;
  std::uint64_t request;
  std::future<serve::ServeResult<double>> future;
};

/// Checks one response and records it when it completed inside the window.
void harvest(const ServeSetup& s, const Phases& phases, InFlight& f, Clock::time_point done,
             bool allow_refit, LoadStats& stats, RateSeries& rate, Tracer& tracer,
             std::uint64_t window_span) {
  const serve::ServeResult<double> r = f.future.get();
  if (!r.ok()) {
    stats.failed += 1;
    if (stats.error.empty()) stats.error = r.error_text();
    return;
  }
  if (r.value() != s.expected[f.model][static_cast<std::size_t>(f.scale_out)]) {
    if (allow_refit) {
      stats.other_values[{f.model, f.scale_out}].insert(r.value());
    } else {
      stats.base_mismatches += 1;
    }
  }
  if (!phases.in_window(f.due)) return;
  stats.latency_us.push_back(micros_between(f.due, done));
  stats.rtt_us.push_back(micros_between(f.sent, done));
  rate.add(done);
  tracer.record("net.predict", "net", f.due, done, f.request, window_span, f.request);
}

/// Closed loop on one connection: keep `kClosedWindow` requests in flight,
/// wait for the oldest, send the next.
void closed_loop(const ServeSetup& s, net::NetClient& client, std::uint64_t stream_seed,
                 const Phases& phases, LoadStats& stats, RateSeries& rate, Tracer& tracer,
                 std::uint64_t window_span) {
  util::Rng rng(stream_seed);
  std::deque<InFlight> window;
  for (;;) {
    const Clock::time_point now = Clock::now();
    if (now >= phases.window_end) break;
    if (window.size() < kClosedWindow) {
      const auto model = static_cast<std::size_t>(rng.uniform_int(0, kModels - 1));
      const int x = static_cast<int>(rng.uniform_int(1, kScaleOuts));
      const std::uint64_t request = tracer.enabled() ? tracer.next_id() : 0;
      stats.sent += 1;
      window.push_back({now, now, model, x, request,
                        client.predict_async(s.keys[model], query_for(s, model, x))});
      continue;
    }
    window.front().future.wait();
    harvest(s, phases, window.front(), Clock::now(), false, stats, rate, tracer, window_span);
    window.pop_front();
  }
  while (!window.empty()) {
    window.front().future.wait();
    harvest(s, phases, window.front(), Clock::now(), false, stats, rate, tracer, window_span);
    window.pop_front();
  }
}

/// Open loop on one connection: Poisson arrivals at `rate_per_s`, sent on
/// schedule however late the responses are.  Between sends the thread waits
/// on the oldest response (responses arrive in request order), so each
/// completion is stamped when it lands.
void open_loop(const ServeSetup& s, net::NetClient& client, double rate_per_s,
               std::uint64_t stream_seed, bool allow_refit, const Phases& phases,
               LoadStats& stats, RateSeries& rate, Tracer& tracer, std::uint64_t window_span) {
  // Timed waits otherwise wake up to 50 us late (default timer slack), which
  // would read as generator lag and as latency.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  util::Rng rng(stream_seed);
  auto gap = [&] { return to_duration(-std::log(1.0 - rng.uniform()) / rate_per_s); };
  std::deque<InFlight> in_flight;
  Clock::time_point next_due = phases.warm_start + gap();
  while (next_due < phases.window_end) {
    const Clock::time_point now = Clock::now();
    if (now >= next_due) {
      const auto model = static_cast<std::size_t>(rng.uniform_int(0, kModels - 1));
      const int x = static_cast<int>(rng.uniform_int(1, kScaleOuts));
      const std::uint64_t request = tracer.enabled() ? tracer.next_id() : 0;
      stats.sent += 1;
      in_flight.push_back({next_due, now, model, x, request,
                           client.predict_async(s.keys[model], query_for(s, model, x))});
      if (phases.in_window(next_due)) stats.lag_us.push_back(micros_between(next_due, now));
      next_due += gap();
      continue;
    }
    if (in_flight.empty()) {
      std::this_thread::sleep_until(next_due);
      continue;
    }
    if (in_flight.front().future.wait_until(next_due) == std::future_status::ready) {
      harvest(s, phases, in_flight.front(), Clock::now(), allow_refit, stats, rate, tracer,
              window_span);
      in_flight.pop_front();
    }
  }
  while (!in_flight.empty()) {
    in_flight.front().future.wait();
    harvest(s, phases, in_flight.front(), Clock::now(), allow_refit, stats, rate, tracer,
            window_span);
    in_flight.pop_front();
  }
}

/// What the mixed workload's write connection measured.
struct WriteStats {
  std::vector<double> refit_ms;
  std::vector<double> publish_ms;
  std::vector<double> report_us;
  std::vector<core::FineTuneResult> refits;
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::string error;
};

/// Refits, publishes and observed-run reports on the second connection, each
/// on its own cadence; the calls are synchronous, so a slow refit delays the
/// reports queued behind it (they then catch up).
void write_loop(const ServeSetup& s, net::NetClient& client, const Phases& phases,
                WriteStats& stats, Tracer& tracer, std::uint64_t window_span) {
  Clock::time_point next_refit = phases.warm_start + kRefitEvery;
  Clock::time_point next_publish = phases.warm_start + kPublishEvery;
  Clock::time_point next_report = phases.warm_start + kReportEvery;
  std::size_t refits = 0;
  std::size_t publishes = 0;
  std::size_t reports = 0;
  auto note = [&](bool ok, const std::string& error) {
    stats.sent += 1;
    if (ok) return;
    stats.failed += 1;
    if (stats.error.empty()) stats.error = error;
  };
  for (;;) {
    const Clock::time_point due = std::min({next_refit, next_publish, next_report});
    if (due >= phases.window_end) break;
    std::this_thread::sleep_until(due);
    const Clock::time_point t0 = Clock::now();
    const bool timed = phases.in_window(t0);
    if (due == next_refit) {
      const std::size_t m = refits++ % kModels;
      const auto r = client.refit(s.keys[m], s.contexts[m].runs, core::FineTuneConfig{});
      const Clock::time_point t1 = Clock::now();
      note(r.ok(), r.error_text());
      if (timed) {
        stats.refit_ms.push_back(micros_between(t0, t1) / 1e3);
        if (r.ok()) stats.refits.push_back(r.value());
        tracer.record("net.refit", "net", t0, t1, tracer.next_id(), window_span);
      }
      next_refit += kRefitEvery;
    } else if (due == next_publish) {
      const serve::ModelKey key{"sgd", "fresh-" + std::to_string(publishes++)};
      const auto r = client.publish(key, *s.base);
      const Clock::time_point t1 = Clock::now();
      note(r.ok(), r.error_text());
      if (timed) {
        stats.publish_ms.push_back(micros_between(t0, t1) / 1e3);
        tracer.record("net.publish", "net", t0, t1, tracer.next_id(), window_span);
      }
      next_publish += kPublishEvery;
    } else {
      const std::size_t m = reports % kModels;
      const auto& runs = s.contexts[m].runs;
      const auto r = client.report_run(s.keys[m], runs[(reports / kModels) % runs.size()]);
      ++reports;
      const Clock::time_point t1 = Clock::now();
      note(r.ok(), r.error_text());
      if (timed) {
        stats.report_us.push_back(micros_between(t0, t1));
        tracer.record("net.report_run", "net", t0, t1, tracer.next_id(), window_span);
      }
      next_report += kReportEvery;
    }
  }
}

/// Per-handle serving counters summed (or maxed) over the 8 served keys.
struct ServeTotals {
  double requests = 0, responses = 0, batches = 0, coalesced = 0, deadline_flushes = 0;
  double starved = 0, replica_hits = 0, replica_misses = 0, replica_invalidations = 0;
  double max_queue_depth = 0, max_dispatch_lag_us = 0;
  double latency_weight = 0, latency_p50_sum = 0, latency_p99_sum = 0;
  bool balanced = true;  ///< requests == responses on every handle

  static ServeTotals collect(Node& node, const std::vector<serve::ModelKey>& keys) {
    ServeTotals t;
    for (const serve::ModelKey& key : keys) {
      const auto handle = node.registry.find(key);
      if (!handle.ok()) continue;
      const auto metrics = node.service->metrics(handle.value());
      if (!metrics.ok()) continue;
      const serve::ServeMetrics& m = metrics.value();
      t.requests += static_cast<double>(m.requests);
      t.responses += static_cast<double>(m.responses);
      t.balanced = t.balanced && m.requests == m.responses;
      t.batches += static_cast<double>(m.batches);
      t.coalesced += static_cast<double>(m.coalesced);
      t.deadline_flushes += static_cast<double>(m.deadline_flushes);
      t.starved += static_cast<double>(m.starved_flushes);
      t.replica_hits += static_cast<double>(m.replica_hits);
      t.replica_misses += static_cast<double>(m.replica_misses);
      t.replica_invalidations += static_cast<double>(m.replica_invalidations);
      t.max_queue_depth = std::max(t.max_queue_depth, static_cast<double>(m.max_queue_depth));
      t.max_dispatch_lag_us =
          std::max(t.max_dispatch_lag_us, static_cast<double>(m.max_dispatch_lag_us));
      const auto w = static_cast<double>(m.latency_count);
      t.latency_weight += w;
      t.latency_p50_sum += w * static_cast<double>(m.latency_p50_us);
      t.latency_p99_sum += w * static_cast<double>(m.latency_p99_us);
    }
    return t;
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Closed-loop in-process rate: the serve-closed stream sent straight to
/// PredictionService::predict_async (2 threads x window 32), for comparing
/// against the same stream over TCP.
double inproc_rate(ServeSetup& s, std::uint64_t seed, double seconds) {
  std::vector<serve::ModelHandle> handles;
  for (const serve::ModelKey& key : s.keys) handles.push_back(s.node->registry.find(key).value());
  const Clock::time_point start = Clock::now() + 500ms;  // warm-up
  const Clock::time_point end = start + to_duration(seconds);
  std::atomic<std::uint64_t> completed{0};
  std::vector<std::jthread> threads;
  threads.reserve(2);
  for (std::uint64_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      util::Rng rng(seed ^ (0x1a9ULL + t));
      std::deque<std::future<serve::ServeResult<double>>> window;
      for (;;) {
        if (window.size() < kClosedWindow && Clock::now() < end) {
          const auto model = static_cast<std::size_t>(rng.uniform_int(0, kModels - 1));
          const int x = static_cast<int>(rng.uniform_int(1, kScaleOuts));
          window.push_back(s.node->service->predict_async(handles[model], query_for(s, model, x)));
          continue;
        }
        if (window.empty()) break;
        window.front().wait();
        const Clock::time_point done = Clock::now();
        if (done >= start && done < end && window.front().get().ok()) {
          completed.fetch_add(1, std::memory_order_relaxed);
        }
        window.pop_front();
      }
    });
  }
  for (std::jthread& t : threads) t.join();
  return static_cast<double>(completed.load()) / seconds;
}

}  // namespace

ProbeContext run_serve(const Options& options, Tracer& tracer, Report& report) {
  const bool closed = options.workload == "serve-closed";
  const bool mixed = options.workload == "serve-mixed";
  const std::size_t connections = closed || mixed ? 2 : 1;

  ProbeContext context;
  ServeSetup s;
  const std::vector<double> setup_seconds = timed_setups(options, [&] {
    s.clients.clear();  // tear the previous node down before building the next
    s.node.reset();
    s = make_serve(options.seed, connections, tracer, context);
  });
  if (options.perturb_expected) {
    s.expected[0][1] = std::nextafter(s.expected[0][1], INFINITY);
  }

  // Every serve workload starts with a discarded warm-up, so connections,
  // lanes, replica pools and the adaptive scheduler reach steady state (and
  // serve-mixed has refit every model once) before timing.
  Phases phases;
  phases.warm_start = Clock::now();
  phases.window_start = phases.warm_start + to_duration(std::min(5.0, options.seconds / 2.0));
  phases.window_end = phases.window_start + to_duration(options.seconds);
  const std::uint64_t window_span = tracer.next_id();

  RateSeries rate;
  rate.start(phases.window_start, options.seconds);
  std::vector<LoadStats> load(closed ? 2 : 1);
  WriteStats writes;
  std::vector<std::jthread> threads;  // joined on every exit path
  threads.reserve(2);
  if (closed) {
    for (std::size_t c = 0; c < 2; ++c) {
      threads.emplace_back([&, c] {
        closed_loop(s, *s.clients[c], options.seed ^ (0xc105edULL + c), phases, load[c], rate,
                    tracer, window_span);
      });
    }
  } else {
    const double rate_per_s = mixed ? kMixedRate : kOpenRate;
    threads.emplace_back([&, rate_per_s] {
      open_loop(s, *s.clients[0], rate_per_s, options.seed ^ 0x09e4ULL, mixed, phases, load[0],
                rate, tracer, window_span);
    });
    if (mixed) {
      threads.emplace_back(
          [&] { write_loop(s, *s.clients[1], phases, writes, tracer, window_span); });
    }
  }

  std::this_thread::sleep_until(phases.window_start);
  WindowProbe window;
  window.begin(Clock::now());
  const ServeTotals before = ServeTotals::collect(*s.node, s.keys);
  const net::ServerStats net_before = s.node->server->stats();
  std::this_thread::sleep_until(phases.window_end);
  window.end(Clock::now());
  const ServeTotals during = ServeTotals::collect(*s.node, s.keys);
  const net::ServerStats net_during = s.node->server->stats();
  for (std::jthread& t : threads) t.join();
  tracer.record("serve.window", "bench", window.start, window.stop, window_span);

  // ---- merge the load threads ----
  LoadStats all;
  for (LoadStats& l : load) {
    all.latency_us.insert(all.latency_us.end(), l.latency_us.begin(), l.latency_us.end());
    all.rtt_us.insert(all.rtt_us.end(), l.rtt_us.begin(), l.rtt_us.end());
    all.lag_us.insert(all.lag_us.end(), l.lag_us.begin(), l.lag_us.end());
    all.sent += l.sent;
    all.failed += l.failed;
    all.base_mismatches += l.base_mismatches;
    for (auto& [key, values] : l.other_values) all.other_values[key].merge(values);
    if (all.error.empty()) all.error = l.error;
  }
  report.attempted = all.sent + writes.sent;
  report.failed = all.failed + writes.failed;
  if (!all.error.empty()) report.flag("predict failed: " + all.error);
  if (!writes.error.empty()) report.flag("write failed: " + writes.error);

  // ---- verification (outside the window) ----
  std::size_t mismatches = all.base_mismatches;
  if (mixed) {
    // A value that is not the base prediction must be the refit model's, bit
    // for bit: replay each model's refit through a local registry with the
    // node's reduction (every refit of a model starts from the same base
    // with the same runs, so there is one refit state per model).
    serve::ModelRegistry local;
    local.set_default_reduction(
        {.policy = reduce::ReductionPolicy::kUniform, .budget = kRefitBudget});
    std::map<std::size_t, std::shared_ptr<serve::detail::RegistryEntry>> refitted;
    for (auto& [key, values] : all.other_values) {
      const auto [model, x] = key;
      auto it = refitted.find(model);
      if (it == refitted.end()) {
        const auto handle = local.publish(s.keys[model], *s.base).value();
        if (!local.refit(handle, s.contexts[model].runs, core::FineTuneConfig{}).ok()) {
          mismatches += values.size();
          continue;
        }
        it = refitted.emplace(model, local.resolve(handle)).first;
      }
      const double refit_value = it->second->model->predict_one(query_for(s, model, x));
      for (const double v : values) mismatches += v != refit_value;
    }
  }
  report.gate("served_equals_predict_one", mismatches == 0,
              std::to_string(mismatches) + " mismatching responses");
  const ServeTotals after = ServeTotals::collect(*s.node, s.keys);
  report.gate("requests_equal_responses", after.balanced,
              "requests " + std::to_string(static_cast<std::uint64_t>(after.requests)) +
                  ", responses " + std::to_string(static_cast<std::uint64_t>(after.responses)));

  // ---- metrics ----
  const double completed = static_cast<double>(all.latency_us.size());
  report_end_to_end(report, setup_seconds, window, completed, rate.median_per_s(), all.latency_us);
  window.report(report, rate.trend_pct());

  const double batches = during.batches - before.batches;
  const double mean_fill = ratio(during.responses - before.responses, batches);
  const double serve_p50 = ratio(after.latency_p50_sum, after.latency_weight);
  const double rtt_p50 = quantile(all.rtt_us, 0.5);
  report.metric("serve.batches", batches, "count");
  report.metric("serve.mean_batch_fill", mean_fill, "count");
  report.metric("serve.coalesced_share", ratio(during.coalesced - before.coalesced, batches),
                "ratio");
  report.metric("serve.deadline_flush_share",
                ratio(during.deadline_flushes - before.deadline_flushes, batches), "ratio");
  report.metric("serve.max_queue_depth", after.max_queue_depth, "count");
  report.metric("serve.max_dispatch_lag_us", after.max_dispatch_lag_us, "us");
  report.metric("serve.starved_flushes", during.starved - before.starved, "count");
  const double hits = during.replica_hits - before.replica_hits;
  report.metric("serve.replica_hit_ratio",
                ratio(hits, hits + during.replica_misses - before.replica_misses), "ratio");
  report.metric("serve.replica_invalidations",
                during.replica_invalidations - before.replica_invalidations, "count");
  report.metric("serve.latency_p50_us", serve_p50, "us");
  report.metric("serve.latency_p99_us", ratio(after.latency_p99_sum, after.latency_weight), "us");
  report.metric("net.rtt_p50_us", rtt_p50, "us");
  report.metric("net.self_p50_us", rtt_p50 - serve_p50, "us");
  report.metric("net.frames_in", static_cast<double>(net_during.frames_in - net_before.frames_in),
                "count");
  report.metric("net.frames_out",
                static_cast<double>(net_during.frames_out - net_before.frames_out), "count");
  report.metric("net.protocol_errors", static_cast<double>(net_during.protocol_errors), "count");
  report.metric("net.io_timeouts", static_cast<double>(net_during.io_timeouts), "count");
  report.metric("loadgen.p99_us", quantile(all.latency_us, 0.99), "us");
  const double lag_p99 = quantile(all.lag_us, 0.99);
  report.metric("loadgen.lag_p50_us", quantile(all.lag_us, 0.5), "us");
  report.metric("loadgen.lag_p99_us", lag_p99, "us");
  if (lag_p99 > 1000.0) {
    report.flag("open-loop sender ran late: lag p99 " + std::to_string(lag_p99) + " us");
  }

  if (mixed) {
    std::vector<double> epochs;
    std::vector<double> us_per_epoch;
    for (const core::FineTuneResult& r : writes.refits) {
      epochs.push_back(static_cast<double>(r.epochs_run));
      if (r.epochs_run > 0) {
        us_per_epoch.push_back(r.fit_seconds * 1e6 / static_cast<double>(r.epochs_run));
      }
    }
    double reductions = 0, dropped = 0, last_kept = 0;
    for (const serve::ModelKey& key : s.keys) {
      const auto handle = s.node->registry.find(key).value();
      const auto [count, runs_dropped] = s.node->registry.reduction_counters(handle);
      reductions += static_cast<double>(count);
      dropped += static_cast<double>(runs_dropped);
      last_kept = std::max(last_kept,
                           static_cast<double>(s.node->registry.last_reduction(handle).kept_runs));
    }
    report.metric("serve.refit_p50_ms", quantile(writes.refit_ms, 0.5), "ms");
    report.metric("serve.publish_p50_ms", quantile(writes.publish_ms, 0.5), "ms");
    report.metric("net.report_run_p50_us", quantile(writes.report_us, 0.5), "us");
    report.metric("core.finetune_epochs_p50", median(epochs), "count");
    report.metric("core.finetune_us_per_epoch", median(us_per_epoch), "us");
    report.metric("reduce.reductions", reductions, "count");
    report.metric("reduce.runs_dropped", dropped, "count");
    report.metric("reduce.last_kept", last_kept, "count");
  } else {
    report.metric("serve.publish_p50_ms", quantile(s.publish_ms, 0.5), "ms");
  }

  if (tracer.enabled()) {
    const double inproc = inproc_rate(s, options.seed, 2.0);
    report.metric("serve.inproc_per_s", inproc, "1/s");
    if (closed) report.metric("net.tcp_over_inproc", ratio(rate.median_per_s(), inproc), "ratio");
  }

  context.mean_batch_fill = mean_fill;
  context.serve_window_batches_per_s = batches / window.seconds();
  context.serve_workers = kServeWorkers;
  return context;
}

}  // namespace bench

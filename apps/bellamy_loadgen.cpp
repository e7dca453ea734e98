// bellamy_loadgen — load generator + acceptance client for bellamy_serverd.
//
//   ./build/apps/bellamy_loadgen [--host=HOST] [--port=N] [--clients=N]
//                                [--requests=N] [--probes=N] [--io-timeout-ms=N]
//                                [--drain] [--no-publish] [--drain-only]
//                                [--drift-smoke]
//
// Drives a server over REAL sockets:
//
//   1. Pre-trains a deterministic model locally, publishes it over the wire,
//      and verifies every served value BIT-IDENTICALLY against the local
//      model — the checkpoint text round-trip plus the service's coalescing
//      transparency, proven end-to-end through TCP.
//   2. Throughput cell: N pipelined client connections, closed-loop async
//      windows.
//   3. QoS scenario: three bulk-flood connections saturate a kBulk model
//      while a paced probe connection measures a kInteractive one; QoS is
//      configured over the wire, client-side p50/p99 come from the probe's
//      own clock, and SERVER-side p50/p95/p99 come from the ServeMetrics
//      latency percentiles fetched via MetricsRequest.
//
// Results go to stderr; the exit code is the bit-identity verdict.  The
// calibrated serving measurements live in benchmark/ (`serve-*` workloads).
// --drain gracefully drains the server afterwards: the CI loopback smoke runs
// serverd + loadgen --drain as one self-terminating cycle.
//
// --no-publish runs the same scenarios WITHOUT publishing first: the server
// must already have the models — or pull them off an exchange peer on the
// first miss.  Since the local reference model is deterministic, the
// bit-identical check then proves the peer-exchanged checkpoints exactly
// (the two-node CI smoke publishes at node A and loadgens node B with
// --no-publish).  --drain-only just drains the server and exits — used to
// shut the remaining node of a mesh down.
//
// --drift-smoke replaces the load scenarios with the drift-monitor
// acceptance: stream ACCURATE observed runtimes first (the monitor must stay
// quiet), then runtimes skewed to 3x the model's prediction, and poll the
// wire metrics until the server's drift-triggered reduced refit lands.
// Exits non-zero when a stable report triggers a refit, when the skew never
// does, or when the refit does not land.  Run it against a serverd started
// with --drift-threshold (and typically --refit-budget).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "core/trainer.hpp"
#include "data/c3o_generator.hpp"
#include "net/net.hpp"
#include "serve/serve.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"

using namespace bellamy;

namespace {

constexpr std::size_t kWindow = 32;  ///< async requests in flight per connection

struct QuantileSet {
  double p50 = 0, p99 = 0;
};

QuantileSet quantiles(std::vector<double>& sorted_us) {
  std::sort(sorted_us.begin(), sorted_us.end());
  QuantileSet q;
  if (sorted_us.empty()) return q;
  q.p50 = sorted_us[sorted_us.size() / 2];
  q.p99 = sorted_us[(sorted_us.size() * 99) / 100];
  return q;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 7113;
  std::size_t clients = 4;
  std::size_t requests = 512;
  std::size_t probes = 150;
  bool drain = false;
  bool publish = true;
  bool drain_only = false;
  bool drift_smoke = false;
  std::chrono::milliseconds io_timeout{0};

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (util::int_flag(arg, "--port", 1, 65535, port) ||
        util::int_flag(arg, "--clients", 1, 256, clients) ||
        util::int_flag(arg, "--requests", 1, 100'000'000, requests) ||
        util::int_flag(arg, "--probes", 10, 100'000'000, probes) ||
        util::int_flag(arg, "--io-timeout-ms", 0, 86'400'000, io_timeout)) {
      continue;
    }
    if (std::strncmp(argv[i], "--host=", 7) == 0) {
      host = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--drain") == 0) {
      drain = true;
    } else if (std::strcmp(argv[i], "--no-publish") == 0) {
      publish = false;
    } else if (std::strcmp(argv[i], "--drain-only") == 0) {
      drain_only = true;
    } else if (std::strcmp(argv[i], "--drift-smoke") == 0) {
      drift_smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--host=HOST] [--port=N] [--clients=N] [--requests=N]\n"
                   "          [--probes=N] [--io-timeout-ms=N] [--drain]\n"
                   "          [--no-publish] [--drain-only] [--drift-smoke]\n",
                   argv[0]);
      return 2;
    }
  }

  // Every connection this process opens shares the same deadline budget:
  // connect, per-op socket stalls, and the end-to-end request timeout.
  net::ClientOptions client_options;
  client_options.io_timeout = io_timeout;

  if (drain_only) {  // no model needed just to shut a node down
    net::NetClient control(client_options);
    std::string error;
    if (!control.connect(host, port, error)) {
      std::fprintf(stderr, "cannot connect to %s:%u: %s\n", host.c_str(), port,
                   error.c_str());
      return 1;
    }
    const auto drained = control.drain();
    std::fprintf(stderr, "drain: %s\n",
                 drained.ok() ? "ok" : drained.error_text().c_str());
    control.close();
    return drained.ok() ? 0 : 1;
  }

  // Deterministic reference model: a fixed generator and model seed, so every
  // loadgen run (and every node of a mesh) predicts with the same weights.
  data::C3OGeneratorConfig gen_cfg;
  gen_cfg.seed = 71;
  const data::Dataset history = data::C3OGenerator(gen_cfg).generate_algorithm("sgd", 6);
  core::BellamyModel model(core::BellamyConfig{}, /*seed=*/71);
  core::PreTrainConfig pre;
  pre.epochs = 60;
  core::pretrain(model, history.runs(), pre);
  const data::JobRun context_template = history.runs().front();

  std::vector<double> expected_by_scaleout(61, 0.0);
  for (int x = 1; x <= 60; ++x) {
    data::JobRun q = context_template;
    q.scale_out = x;
    expected_by_scaleout[static_cast<std::size_t>(x)] = model.predict_one(q);
  }

  const serve::ModelKey bench_key{"sgd", "net-bench"};
  const serve::ModelKey bulk_key{"sgd", "net-bulk"};
  const serve::ModelKey interactive_key{"sgd", "net-interactive"};

  net::NetClient control(client_options);
  std::string error;
  if (!control.connect(host, port, error)) {
    std::fprintf(stderr, "cannot connect to %s:%u: %s\n", host.c_str(), port,
                 error.c_str());
    return 1;
  }
  if (publish) {
    for (const serve::ModelKey& key : {bench_key, bulk_key, interactive_key}) {
      const auto published = control.publish(key, model);
      if (!published.ok()) {
        std::fprintf(stderr, "publish %s failed: %s\n", key.str().c_str(),
                     published.error_text().c_str());
        return 1;
      }
    }
    std::fprintf(stderr, "bellamy_loadgen: published 3 models to %s:%u\n", host.c_str(),
                 port);
  } else {
    std::fprintf(stderr, "bellamy_loadgen: --no-publish, expecting %s:%u to resolve "
                         "the models (locally or via its exchange peers)\n",
                 host.c_str(), port);
  }

  if (drift_smoke) {
    // Phase 1 — stable traffic: observed runtime == the model's own
    // prediction.  A refit here means the monitor fires on healthy clusters.
    for (std::size_t i = 0; i < 16; ++i) {
      data::JobRun run = history.runs()[i % history.runs().size()];
      run.runtime_s = model.predict_one(run);
      const auto obs = control.report_run(bench_key, run);
      if (!obs.ok()) {
        std::fprintf(stderr, "report_run failed: %s\n", obs.error_text().c_str());
        return 1;
      }
      if (obs.value().refit_triggered) {
        std::fprintf(stderr, "drift smoke: STABLE report %zu triggered a refit "
                             "(ewma %.4f)\n",
                     i, obs.value().error_ewma);
        return 1;
      }
    }
    std::fprintf(stderr, "drift smoke: 16 stable reports, no refit (correct)\n");

    // Phase 2 — injected drift: observed runtimes 3x the prediction push the
    // relative-error EWMA towards 2/3; the server must trigger exactly once.
    bool triggered = false;
    std::size_t skewed = 0;
    for (; skewed < 64 && !triggered; ++skewed) {
      data::JobRun run = history.runs()[skewed % history.runs().size()];
      run.runtime_s = 3.0 * model.predict_one(run);
      const auto obs = control.report_run(bench_key, run);
      if (!obs.ok()) {
        std::fprintf(stderr, "report_run failed: %s\n", obs.error_text().c_str());
        return 1;
      }
      triggered = obs.value().refit_triggered;
    }
    if (!triggered) {
      std::fprintf(stderr, "drift smoke: 64 skewed reports never triggered a refit "
                           "(is the server running with --drift-threshold?)\n");
      return 1;
    }
    std::fprintf(stderr, "drift smoke: refit triggered after %zu skewed report(s)\n",
                 skewed);

    // Phase 3 — the background refit must LAND.  drift_refits increments at
    // queue time; the reduction counter only moves once the refit drain task has
    // actually reduced the window and swapped, so THAT is what we poll (the
    // smoke therefore requires a serverd running with --refit-budget).
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
    serve::ServeMetrics seen;
    while (true) {
      const auto metrics = control.metrics(bench_key);
      if (!metrics.ok()) {
        std::fprintf(stderr, "metrics failed: %s\n", metrics.error_text().c_str());
        return 1;
      }
      seen = metrics.value();
      if (seen.drift_refits >= 1 && seen.reductions >= 1) break;
      if (std::chrono::steady_clock::now() >= deadline) {
        std::fprintf(stderr, "drift smoke: triggered refit never landed\n");
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::fprintf(stderr,
                 "drift smoke: refit landed (drift ewma %.4f over %llu reports; "
                 "%llu reduction(s), last kept %llu, dropped %llu)\n",
                 seen.drift_error_ewma, (unsigned long long)seen.drift_reports,
                 (unsigned long long)seen.reductions,
                 (unsigned long long)seen.reduction_last_kept,
                 (unsigned long long)seen.reduction_runs_dropped);

    if (drain) {
      const auto drained = control.drain();
      std::fprintf(stderr, "drain: %s\n",
                   drained.ok() ? "ok" : drained.error_text().c_str());
      if (!drained.ok()) return 1;
    }
    control.close();
    return 0;
  }

  std::atomic<bool> all_identical{true};

  // ---- throughput cell: N pipelined connections, closed-loop windows ----
  double predict_per_s = 0.0;
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    util::Timer timer;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        net::NetClient client(client_options);
        std::string err;
        if (!client.connect(host, port, err)) {
          std::fprintf(stderr, "client %zu: connect failed: %s\n", c, err.c_str());
          all_identical.store(false);
          return;
        }
        std::deque<std::pair<int, std::future<serve::ServeResult<double>>>> window;
        auto drain_one = [&] {
          auto [scale_out, future] = std::move(window.front());
          window.pop_front();
          const serve::ServeResult<double> r = future.get();
          if (!r.ok() ||
              r.value() != expected_by_scaleout[static_cast<std::size_t>(scale_out)]) {
            all_identical.store(false);
          }
        };
        for (std::size_t i = 0; i < requests; ++i) {
          data::JobRun q = context_template;
          q.scale_out = static_cast<int>(1 + (c * requests + i) % 60);
          window.emplace_back(q.scale_out, client.predict_async(bench_key, q));
          if (window.size() >= kWindow) drain_one();
        }
        while (!window.empty()) drain_one();
        client.close();
      });
    }
    for (std::thread& t : threads) t.join();
    const double seconds = timer.seconds();
    predict_per_s =
        static_cast<double>(clients * requests) / std::max(seconds, 1e-12);
    std::fprintf(stderr,
                 "throughput: %zu clients x %zu requests -> %.0f predictions/s over "
                 "TCP (bit-identical: %s)\n",
                 clients, requests, predict_per_s,
                 all_identical.load() ? "yes" : "NO");
  }

  // ---- QoS scenario: saturated bulk lanes vs a paced interactive probe ----
  serve::HandleQos bulk_qos;
  bulk_qos.qos = serve::QosClass::kBulk;
  bulk_qos.weight = 0.25;
  bulk_qos.max_lag = std::chrono::microseconds(20000);  // aging cap (PR 6)
  serve::HandleQos interactive_qos;
  interactive_qos.qos = serve::QosClass::kInteractive;
  interactive_qos.weight = 4.0;
  if (!control.set_qos(bulk_key, bulk_qos).ok() ||
      !control.set_qos(interactive_key, interactive_qos).ok()) {
    std::fprintf(stderr, "set_qos over the wire failed\n");
    return 1;
  }

  auto probe_pass = [&](std::vector<double>& out_us) {
    net::NetClient probe(client_options);
    std::string err;
    if (!probe.connect(host, port, err)) {
      all_identical.store(false);
      return;
    }
    out_us.clear();
    out_us.reserve(probes);
    for (std::size_t i = 0; i < probes; ++i) {
      data::JobRun q = context_template;
      q.scale_out = static_cast<int>(1 + i % 60);
      const auto start = std::chrono::steady_clock::now();
      const auto r = probe.predict(interactive_key, q);
      const auto end = std::chrono::steady_clock::now();
      if (!r.ok() ||
          r.value() != expected_by_scaleout[static_cast<std::size_t>(q.scale_out)]) {
        all_identical.store(false);
      }
      out_us.push_back(std::chrono::duration<double, std::micro>(end - start).count());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    probe.close();
  };

  std::vector<double> lat_us;
  probe_pass(lat_us);
  const QuantileSet unloaded = quantiles(lat_us);

  std::atomic<bool> stop_flood{false};
  std::atomic<std::uint64_t> bulk_ok{0};
  std::vector<std::thread> flood;
  for (int t = 0; t < 3; ++t) {
    flood.emplace_back([&, t] {
      net::NetClient client(client_options);
      std::string err;
      if (!client.connect(host, port, err)) return;
      std::deque<std::future<serve::ServeResult<double>>> window;
      std::size_t i = static_cast<std::size_t>(t) * 1000;
      while (!stop_flood.load(std::memory_order_relaxed)) {
        data::JobRun q = context_template;
        q.scale_out = static_cast<int>(1 + i++ % 60);
        window.push_back(client.predict_async(bulk_key, q));
        if (window.size() >= 48) {
          if (window.front().get().ok()) bulk_ok.fetch_add(1, std::memory_order_relaxed);
          window.pop_front();
        }
      }
      while (!window.empty()) {
        if (window.front().get().ok()) bulk_ok.fetch_add(1, std::memory_order_relaxed);
        window.pop_front();
      }
      client.close();
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  probe_pass(lat_us);
  stop_flood.store(true);
  for (std::thread& t : flood) t.join();
  const QuantileSet loaded = quantiles(lat_us);

  const auto interactive_metrics = control.metrics(interactive_key);
  const auto bulk_metrics = control.metrics(bulk_key);
  if (!interactive_metrics.ok() || !bulk_metrics.ok()) {
    std::fprintf(stderr, "metrics over the wire failed\n");
    return 1;
  }
  const serve::ServeMetrics& im = interactive_metrics.value();
  const serve::ServeMetrics& bm = bulk_metrics.value();

  std::fprintf(stderr,
               "qos: interactive p50/p99 %.0f/%.0f us unloaded -> %.0f/%.0f us under "
               "bulk saturation (%llu bulk responses)\n"
               "     server-side interactive p50/p95/p99 %llu/%llu/%llu us over %llu "
               "responses; bulk p99 %llu us, max dispatch lag %llu us\n",
               unloaded.p50, unloaded.p99, loaded.p50, loaded.p99,
               (unsigned long long)bulk_ok.load(), (unsigned long long)im.latency_p50_us,
               (unsigned long long)im.latency_p95_us, (unsigned long long)im.latency_p99_us,
               (unsigned long long)im.latency_count, (unsigned long long)bm.latency_p99_us,
               (unsigned long long)bm.max_dispatch_lag_us);
  std::fprintf(stderr, "bit-identical to the local model: %s\n",
               all_identical.load() ? "yes" : "NO");

  if (drain) {
    const auto drained = control.drain();
    std::fprintf(stderr, "drain: %s\n",
                 drained.ok() ? "ok" : drained.error_text().c_str());
  }
  control.close();
  return all_identical.load() ? 0 : 1;
}

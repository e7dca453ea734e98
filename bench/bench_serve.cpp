// Throughput of the serving facade: N client threads hammer ONE published
// model through the micro-batching PredictionService, with coalescing
// disabled (max_batch = 1 — every request runs its own forward pass) vs
// enabled at several flush deadlines.  This is the acceptance bench for the
// serve subsystem: coalescing must beat batch-size-1 aggregate throughput at
// >= 4 client threads, and every served value must be bit-identical to a
// serial predict loop over the same query stream.
//
//   ./build/bench/bench_serve [--requests=N] [--workers=N] [--json=PATH|-]
//
// Each client keeps a small async window in flight (a closed loop of
// depth 32), which is what a real frontend holding many concurrent user
// requests looks like — and what gives the dispatcher something to coalesce.
// ALL human-readable progress goes to stderr; --json writes the
// machine-parseable document ("-" = stdout).
//
// Beyond the throughput grid the bench exercises the QoS scheduler: a "qos"
// scenario saturates a kBulk handle while probing a kInteractive one,
// reporting the interactive lane's p50/p99 latency loaded vs unloaded plus
// both lanes' starvation counters — the measured form of the starvation
// acceptance test.
// See docs/BENCHMARKS.md for the full --json schema.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/trainer.hpp"
#include "data/c3o_generator.hpp"
#include "serve/serve.hpp"
#include "util/timer.hpp"

using namespace bellamy;

namespace {

constexpr std::size_t kWindow = 32;  ///< async requests in flight per client

std::vector<data::JobRun> make_queries(const data::JobRun& context_template, std::size_t n,
                                       std::size_t client) {
  std::vector<data::JobRun> queries;
  queries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    data::JobRun q = context_template;
    q.scale_out = static_cast<int>(1 + (client * n + i) % 60);
    queries.push_back(std::move(q));
  }
  return queries;
}

struct CellResult {
  double per_s = 0.0;
  bool identical = true;
};

/// One grid cell: `clients` threads, each issuing `requests` queries through
/// `service`, results checked bit-exactly against `expected` per scale-out.
CellResult run_cell(serve::PredictionService& service, const serve::ModelHandle& handle,
                    const data::JobRun& context_template, std::size_t clients,
                    std::size_t requests, const std::vector<double>& expected_by_scaleout) {
  std::vector<std::thread> threads;
  std::vector<char> ok(clients, 1);
  threads.reserve(clients);
  util::Timer timer;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const std::vector<data::JobRun> queries = make_queries(context_template, requests, c);
      std::vector<std::pair<std::size_t, std::future<serve::ServeResult<double>>>> window;
      auto drain_one = [&] {
        auto [index, future] = std::move(window.front());
        window.erase(window.begin());
        serve::ServeResult<double> r = future.get();
        if (!r.ok() || r.value() != expected_by_scaleout[queries[index].scale_out]) {
          ok[c] = 0;
        }
      };
      for (std::size_t i = 0; i < queries.size(); ++i) {
        window.emplace_back(i, service.predict_async(handle, queries[i]));
        if (window.size() >= kWindow) drain_one();
      }
      while (!window.empty()) drain_one();
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds = timer.seconds();

  CellResult cell;
  cell.per_s = static_cast<double>(clients * requests) / std::max(seconds, 1e-12);
  for (const char c : ok) cell.identical = cell.identical && c;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t requests = 1024;
  std::size_t workers = 2;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--requests=", 11) == 0) {
      requests = static_cast<std::size_t>(std::atoi(argv[i] + 11));
      if (requests == 0) requests = 1;
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      workers = static_cast<std::size_t>(std::atoi(argv[i] + 10));
      if (workers == 0) workers = 1;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "usage: %s [--requests=N] [--workers=N] [--json=PATH|-]\n",
                   argv[0]);
      return 2;
    }
  }

  // A quick pre-trained model; serving cost does not depend on how long it
  // trained.
  data::C3OGeneratorConfig gen_cfg;
  gen_cfg.seed = 71;
  const data::Dataset history = data::C3OGenerator(gen_cfg).generate_algorithm("sgd", 6);
  core::BellamyModel model(core::BellamyConfig{}, /*seed=*/71);
  core::PreTrainConfig pre;
  pre.epochs = 60;
  core::pretrain(model, history.runs(), pre);
  const data::JobRun context_template = history.runs().front();

  // Serial reference: the per-sample predict loop, one value per scale-out.
  std::vector<double> expected_by_scaleout(61, 0.0);
  for (int x = 1; x <= 60; ++x) {
    data::JobRun q = context_template;
    q.scale_out = x;
    expected_by_scaleout[static_cast<std::size_t>(x)] = model.predict_one(q);
  }

  serve::ModelRegistry registry;
  const serve::ModelHandle handle = registry.publish({"sgd", "bench"}, model).unwrap();

  struct Mode {
    const char* name;     ///< JSON key prefix
    std::size_t max_batch;
    std::chrono::microseconds deadline;
  };
  const std::vector<Mode> modes = {
      {"batch1", 1, std::chrono::microseconds(100)},
      {"coalesced_100us", 64, std::chrono::microseconds(100)},
      {"coalesced_500us", 64, std::chrono::microseconds(500)},
      {"coalesced_2000us", 64, std::chrono::microseconds(2000)},
  };
  const std::vector<std::size_t> client_counts = {1, 2, 4, 8};

  std::fprintf(stderr, "bench_serve: %zu requests/client, %zu dispatcher worker(s)\n",
               requests, workers);
  std::fprintf(stderr, "%8s %14s %18s %18s %18s %10s\n", "clients", "batch1 p/s",
               "coal 100us p/s", "coal 500us p/s", "coal 2000us p/s", "speedup");

  bool all_identical = true;
  double speedup_at_4 = 0.0;
  struct Row {
    std::size_t clients;
    std::vector<double> per_s;  ///< one per mode
    double speedup;             ///< coalesced_500us / batch1
  };
  std::vector<Row> rows;
  for (const std::size_t clients : client_counts) {
    Row row;
    row.clients = clients;
    for (const Mode& mode : modes) {
      serve::ServeOptions cfg;
      cfg.max_batch = mode.max_batch;
      cfg.flush_deadline = mode.deadline;
      cfg.workers = workers;
      cfg.max_queue = kWindow * clients + 64;
      serve::PredictionService service(registry, cfg);
      const CellResult cell = run_cell(service, handle, context_template, clients, requests,
                                       expected_by_scaleout);
      all_identical = all_identical && cell.identical;
      if (!cell.identical) {
        std::fprintf(stderr, "clients=%zu mode=%s: PREDICTION MISMATCH vs serial loop\n",
                     clients, mode.name);
      }
      row.per_s.push_back(cell.per_s);
    }
    row.speedup = row.per_s[2] / std::max(row.per_s[0], 1e-12);
    if (clients == 4) speedup_at_4 = row.speedup;
    std::fprintf(stderr, "%8zu %14.0f %18.0f %18.0f %18.0f %9.2fx\n", clients, row.per_s[0],
                 row.per_s[1], row.per_s[2], row.per_s[3], row.speedup);
    rows.push_back(std::move(row));
  }

  // ---- QoS scenario: a saturated kBulk handle next to a probed
  // kInteractive handle — the measured form of the starvation test.
  struct QosResult {
    double unloaded_p50_us = 0, unloaded_p99_us = 0;
    double loaded_p50_us = 0, loaded_p99_us = 0;
    std::uint64_t bulk_responses = 0;
    serve::ServeMetrics interactive;
    serve::ServeMetrics bulk;
  } qos;
  {
    const serve::ModelHandle bulk =
        registry.publish({"sgd", "bench-bulk"}, model).unwrap();
    const serve::ModelHandle interactive =
        registry.publish({"sgd", "bench-interactive"}, model).unwrap();
    serve::ServeOptions cfg;
    cfg.max_batch = 16;
    cfg.max_queue = 256;
    cfg.flush_deadline = std::chrono::microseconds(500);
    cfg.workers = 1;  // one dispatcher makes cross-handle ordering decisive
    serve::PredictionService service(registry, cfg);
    service.set_qos(bulk, serve::HandleQos{serve::QosClass::kBulk, 1.0}).expect();
    service.set_qos(interactive, serve::HandleQos{serve::QosClass::kInteractive, 4.0})
        .expect();

    const std::size_t probes = std::min<std::size_t>(200, requests);
    auto probe_us = [&](std::vector<double>& out) {
      out.clear();
      out.reserve(probes);
      for (std::size_t i = 0; i < probes; ++i) {
        data::JobRun q = context_template;
        q.scale_out = static_cast<int>(1 + i % 60);
        const auto start = std::chrono::steady_clock::now();
        const auto r = service.predict(interactive, q);
        const auto end = std::chrono::steady_clock::now();
        if (!r.ok() || r.value() != expected_by_scaleout[q.scale_out]) {
          all_identical = false;
        }
        out.push_back(std::chrono::duration<double, std::micro>(end - start).count());
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      std::sort(out.begin(), out.end());
    };
    std::vector<double> lat;
    probe_us(lat);
    qos.unloaded_p50_us = lat[probes / 2];
    qos.unloaded_p99_us = lat[(probes * 99) / 100];

    std::atomic<bool> stop_flood{false};
    std::atomic<std::uint64_t> bulk_ok{0};
    std::vector<std::thread> flood;
    for (int t = 0; t < 3; ++t) {
      flood.emplace_back([&, t] {
        std::deque<std::future<serve::ServeResult<double>>> window;
        std::size_t i = static_cast<std::size_t>(t) * 1000;
        while (!stop_flood.load(std::memory_order_relaxed)) {
          data::JobRun q = context_template;
          q.scale_out = static_cast<int>(1 + i++ % 60);
          window.push_back(service.predict_async(bulk, q));
          if (window.size() >= 48) {
            if (window.front().get().ok()) bulk_ok.fetch_add(1, std::memory_order_relaxed);
            window.pop_front();
          }
        }
        while (!window.empty()) {
          if (window.front().get().ok()) bulk_ok.fetch_add(1, std::memory_order_relaxed);
          window.pop_front();
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    probe_us(lat);
    stop_flood.store(true);
    for (std::thread& t : flood) t.join();
    qos.loaded_p50_us = lat[probes / 2];
    qos.loaded_p99_us = lat[(probes * 99) / 100];
    qos.bulk_responses = bulk_ok.load();
    qos.interactive = service.metrics(interactive).unwrap();
    qos.bulk = service.metrics(bulk).unwrap();
    std::fprintf(stderr,
                 "qos: %s p50/p99 %0.f/%.0f us unloaded -> %.0f/%.0f us under "
                 "%s saturation (%llu bulk responses; interactive starved %llu, max "
                 "dispatch lag %llu us)\n",
                 serve::to_string(service.qos(interactive).unwrap().qos),
                 qos.unloaded_p50_us, qos.unloaded_p99_us, qos.loaded_p50_us,
                 qos.loaded_p99_us, serve::to_string(service.qos(bulk).unwrap().qos),
                 static_cast<unsigned long long>(qos.bulk_responses),
                 static_cast<unsigned long long>(qos.interactive.starved_flushes),
                 static_cast<unsigned long long>(qos.interactive.max_dispatch_lag_us));
  }

  std::fprintf(stderr, "predictions identical to the serial loop: %s\n",
               all_identical ? "yes" : "NO");
  std::fprintf(stderr,
               "coalescing speedup over batch-size-1 at 4 clients: %.2fx "
               "(acceptance floor: > 1.0x)\n",
               speedup_at_4);

  if (!json_path.empty()) {
    std::FILE* f = json_path == "-" ? stdout : std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    } else {
      std::fprintf(f,
                   "{\n  \"requests_per_client\": %zu,\n  \"workers\": %zu,\n"
                   "  \"identical\": %s,\n  \"grid\": [\n",
                   requests, workers, all_identical ? "true" : "false");
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        std::fprintf(f, "    {\"clients\": %zu", r.clients);
        for (std::size_t m = 0; m < modes.size(); ++m) {
          std::fprintf(f, ", \"%s_per_s\": %.0f", modes[m].name, r.per_s[m]);
        }
        std::fprintf(f, ", \"coalesce_speedup\": %.2f}%s\n", r.speedup,
                     i + 1 < rows.size() ? "," : "");
      }
      std::fprintf(f, "  ],\n");
      std::fprintf(
          f,
          "  \"qos\": {\"interactive_unloaded_p50_us\": %.1f, "
          "\"interactive_unloaded_p99_us\": %.1f,\n"
          "    \"interactive_loaded_p50_us\": %.1f, \"interactive_loaded_p99_us\": %.1f,\n"
          "    \"p99_load_factor\": %.2f, \"bulk_responses\": %llu,\n"
          "    \"interactive_starved_flushes\": %llu, \"bulk_starved_flushes\": %llu,\n"
          "    \"interactive_max_dispatch_lag_us\": %llu, "
          "\"bulk_max_dispatch_lag_us\": %llu}\n",
          qos.unloaded_p50_us, qos.unloaded_p99_us, qos.loaded_p50_us, qos.loaded_p99_us,
          qos.unloaded_p99_us > 0 ? qos.loaded_p99_us / qos.unloaded_p99_us : 0.0,
          static_cast<unsigned long long>(qos.bulk_responses),
          static_cast<unsigned long long>(qos.interactive.starved_flushes),
          static_cast<unsigned long long>(qos.bulk.starved_flushes),
          static_cast<unsigned long long>(qos.interactive.max_dispatch_lag_us),
          static_cast<unsigned long long>(qos.bulk.max_dispatch_lag_us));
      std::fprintf(f, "}\n");
      if (f != stdout) {
        std::fclose(f);
        std::fprintf(stderr, "wrote %s\n", json_path.c_str());
      }
    }
  }
  return all_identical ? 0 : 1;
}

// End-to-end loopback tests: a real ServeServer on an ephemeral port, real
// NetClient connections, and the acceptance invariants of the net layer:
//
//   * multi-client predict/predict_many over TCP is BIT-IDENTICAL to the
//     local model (checkpoint-text publish + coalescing transparency),
//   * every request gets exactly one response (metrics agree),
//   * admin operations (set_qos, metrics, erase) work over the wire with
//     typed error propagation,
//   * a background refit over the wire produces the same weights as the
//     same refit in-process (deferred RefitResponse event),
//   * graceful drain: concurrent in-flight traffic either completes or
//     fails kShutdown — nothing hangs, nothing is answered twice.
//
// Runs under ASan/UBSan in CI (label "net").

#include "net/net.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/predictor.hpp"
#include "core/trainer.hpp"
#include "data/c3o_generator.hpp"
#include "nn/serialize.hpp"
#include "serve/serve.hpp"

namespace bellamy::net {
namespace {

core::FineTuneConfig quick_finetune() {
  core::FineTuneConfig cfg;
  cfg.max_epochs = 80;
  cfg.patience = 40;
  return cfg;
}

/// One pre-trained model + a running server on an ephemeral port.  Pass
/// DriftOptions to attach a DriftMonitor (the report_run wire path).
struct Loopback {
  explicit Loopback(std::optional<serve::DriftOptions> drift = std::nullopt) {
    data::C3OGeneratorConfig gen;
    gen.seed = 61;
    ds = data::C3OGenerator(gen).generate_algorithm("sgd", 4);
    target_runs = ds.contexts().front().runs;

    model.emplace(core::BellamyConfig{}, /*seed=*/17);
    core::PreTrainConfig pre;
    pre.epochs = 60;
    core::pretrain(*model, ds.runs(), pre);

    serve::ServeOptions options;
    options.max_batch = 8;
    options.flush_deadline = std::chrono::microseconds(200);
    options.workers = 2;
    service.emplace(registry, options);

    ServerOptions server_options;
    if (drift) {
      monitor.emplace(registry, *drift);
      server_options.drift_monitor = &*monitor;
    }
    server.emplace(registry, *service, server_options);
    std::string error;
    if (!server->start(error)) throw std::runtime_error("server start: " + error);
  }

  ~Loopback() {
    server->stop();
    server.reset();
    service.reset();
  }

  void connect(NetClient& client) {
    std::string error;
    if (!client.connect("127.0.0.1", server->port(), error)) {
      throw std::runtime_error("connect: " + error);
    }
  }

  data::JobRun query(int scale_out) const {
    data::JobRun q = ds.runs().front();
    q.scale_out = scale_out;
    return q;
  }

  data::Dataset ds;
  std::vector<data::JobRun> target_runs;
  std::optional<core::BellamyModel> model;
  serve::ModelRegistry registry;
  std::optional<serve::DriftMonitor> monitor;  ///< must outlive the server
  std::optional<serve::PredictionService> service;
  std::optional<ServeServer> server;
};

TEST(Loopback, MultiClientPredictManyIsBitIdenticalToTheLocalModel) {
  Loopback loop;
  const serve::ModelKey key{"sgd", "loopback"};
  NetClient control;
  loop.connect(control);
  ASSERT_TRUE(control.publish(key, *loop.model).ok());

  std::vector<double> expected(61, 0.0);
  for (int x = 1; x <= 60; ++x) expected[static_cast<std::size_t>(x)] = loop.model->predict_one(loop.query(x));

  constexpr int kClients = 4;
  constexpr int kBatches = 6;
  constexpr int kBatchSize = 24;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      NetClient client;
      loop.connect(client);
      for (int b = 0; b < kBatches; ++b) {
        std::vector<data::JobRun> queries;
        std::vector<double> want;
        for (int i = 0; i < kBatchSize; ++i) {
          const int x = 1 + (c * 31 + b * 7 + i) % 60;
          queries.push_back(loop.query(x));
          want.push_back(expected[static_cast<std::size_t>(x)]);
        }
        const auto result = client.predict_many(key, queries);
        if (!result.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (result.value() != want) mismatches.fetch_add(1);  // bit-exact ==
      }
      client.close();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  // Exactly one response per request, visible over the wire.
  const auto metrics = control.metrics(key);
  ASSERT_TRUE(metrics.ok()) << metrics.error_text();
  const serve::ServeMetrics& m = metrics.value();
  EXPECT_EQ(m.requests, static_cast<std::uint64_t>(kClients * kBatches * kBatchSize));
  EXPECT_EQ(m.responses, m.requests);
  EXPECT_EQ(m.latency_count, m.responses);
  EXPECT_GT(m.latency_p99_us, 0u);
  EXPECT_LE(m.latency_p50_us, m.latency_p95_us);
  EXPECT_LE(m.latency_p95_us, m.latency_p99_us);
  control.close();
}

TEST(Loopback, EmptyBatchAndSinglePredictWork) {
  Loopback loop;
  const serve::ModelKey key{"sgd", "single"};
  NetClient client;
  loop.connect(client);
  ASSERT_TRUE(client.publish(key, *loop.model).ok());

  const auto empty = client.predict_many(key, {});
  ASSERT_TRUE(empty.ok()) << empty.error_text();
  EXPECT_TRUE(empty.value().empty());

  const auto one = client.predict(key, loop.query(12));
  ASSERT_TRUE(one.ok()) << one.error_text();
  EXPECT_EQ(one.value(), loop.model->predict_one(loop.query(12)));
  client.close();
}

// A publish whose checkpoint text parses but is misshapen (norm.target 1x1,
// which from_checkpoint once read past) is answered kInvalidArgument, the key
// stays unknown, and the server keeps serving.  The request goes out as a
// hand-built frame: NetClient::publish only sends well-formed checkpoints.
/// Publishes `ckpt` on a raw connection (NetClient publishes only models
/// that exist) and stores the server's answer in `resp`.
void publish_raw(const Loopback& loop, const serve::ModelKey& key, const nn::Checkpoint& ckpt,
                 PublishResponse& resp) {
  std::ostringstream text;
  ckpt.save(text);
  std::string error;
  const Socket raw = tcp_connect("127.0.0.1", loop.server->port(), error);
  ASSERT_TRUE(raw) << error;
  const auto frame =
      encode_frame(PublishRequest{.request_id = 7, .key = key, .checkpoint_text = text.str()});
  ASSERT_EQ(raw.write_all(frame.data(), frame.size()), IoStatus::kOk);
  std::uint32_t len = 0;
  ASSERT_EQ(raw.read_exact(&len, sizeof len), IoStatus::kOk);
  std::vector<std::uint8_t> body(len);
  ASSERT_EQ(raw.read_exact(body.data(), len), IoStatus::kOk);
  FrameView view;
  ASSERT_EQ(parse_body(body.data(), body.size(), view), WireStatus::kOk);
  ASSERT_EQ(decode_message(view, resp), WireStatus::kOk);
}

/// After a rejected publish under `key`, the key is still unknown and the
/// server still publishes and serves it.
void expect_still_serving(Loopback& loop, const serve::ModelKey& key) {
  NetClient client;
  loop.connect(client);
  EXPECT_EQ(client.predict(key, loop.query(4)).status(), serve::ServeStatus::kUnknownModel);
  ASSERT_TRUE(client.publish(key, *loop.model).ok());
  const auto served = client.predict(key, loop.query(4));
  ASSERT_TRUE(served.ok()) << served.error_text();
  EXPECT_EQ(served.value(), loop.model->predict_one(loop.query(4)));
  client.close();
}

TEST(Loopback, PublishOfAMisshapenCheckpointIsRejectedAndTheServerKeepsServing) {
  Loopback loop;
  const serve::ModelKey key{"sgd", "hostile"};
  nn::Checkpoint ckpt = loop.model->to_checkpoint();
  ckpt.matrices.at("norm.target") = nn::Matrix(1, 1, 5.0);
  PublishResponse resp;
  ASSERT_NO_FATAL_FAILURE(publish_raw(loop, key, ckpt, resp));
  EXPECT_EQ(resp.head.request_id, 7u);
  EXPECT_EQ(resp.head.status, serve::ServeStatus::kInvalidArgument) << resp.head.message;
  expect_still_serving(loop, key);
}

// "nan" parses as a double, so a NaN Huber delta used to be accepted and
// only surfaced as NaN losses at the model's first refit.
TEST(Loopback, PublishOfANanHyperparameterIsRejectedAndTheServerKeepsServing) {
  Loopback loop;
  const serve::ModelKey key{"sgd", "hostile-nan"};
  nn::Checkpoint ckpt = loop.model->to_checkpoint();
  ckpt.meta["huber_delta"] = "nan";
  PublishResponse resp;
  ASSERT_NO_FATAL_FAILURE(publish_raw(loop, key, ckpt, resp));
  EXPECT_EQ(resp.head.request_id, 7u);
  EXPECT_EQ(resp.head.status, serve::ServeStatus::kInvalidArgument) << resp.head.message;
  expect_still_serving(loop, key);
}

TEST(Loopback, AdminOperationsAndTypedErrorsTravelTheWire) {
  Loopback loop;
  const serve::ModelKey key{"sgd", "admin"};
  NetClient client;
  loop.connect(client);

  // Unknown model: the typed status arrives, not a dropped connection.
  EXPECT_EQ(client.predict(key, loop.query(3)).status(), serve::ServeStatus::kUnknownModel);
  EXPECT_EQ(client.metrics(key).status(), serve::ServeStatus::kUnknownModel);

  ASSERT_TRUE(client.publish(key, *loop.model).ok());
  ASSERT_TRUE(client.predict(key, loop.query(3)).ok());

  // set_qos round trip, including the server-side validation.
  serve::HandleQos qos;
  qos.qos = serve::QosClass::kBulk;
  qos.weight = 0.5;
  qos.max_lag = std::chrono::microseconds(10000);
  EXPECT_TRUE(client.set_qos(key, qos).ok());
  qos.weight = -1.0;  // rejected by PredictionService::set_qos
  EXPECT_EQ(client.set_qos(key, qos).status(), serve::ServeStatus::kInvalidArgument);

  // erase retires the key for every later request.
  EXPECT_TRUE(client.erase(key).ok());
  EXPECT_EQ(client.predict(key, loop.query(3)).status(), serve::ServeStatus::kUnknownModel);
  client.close();
}

TEST(Loopback, ReportRunWithoutAMonitorIsTyped) {
  Loopback loop;  // no DriftOptions: the server has no monitor attached
  const serve::ModelKey key{"sgd", "nomonitor"};
  NetClient client;
  loop.connect(client);
  ASSERT_TRUE(client.publish(key, *loop.model).ok());

  data::JobRun run = loop.query(4);
  run.runtime_s = 100.0;
  EXPECT_EQ(client.report_run(key, run).status(), serve::ServeStatus::kInvalidArgument);
  client.close();
}

TEST(Loopback, ReportRunFeedsTheMonitorAndMetricsCarryDriftCounters) {
  serve::DriftOptions drift;
  drift.ewma_alpha = 0.2;
  drift.threshold = 0.0;  // monitor only: no refits in this test
  Loopback loop(drift);
  const serve::ModelKey key{"sgd", "drift"};
  NetClient client;
  loop.connect(client);

  // Unknown keys stay typed on the report path too.
  EXPECT_EQ(client.report_run(key, loop.query(2)).status(),
            serve::ServeStatus::kUnknownModel);

  ASSERT_TRUE(client.publish(key, *loop.model).ok());

  double want_ewma = 0.0;
  for (int i = 0; i < 10; ++i) {
    data::JobRun run = loop.query(1 + i % 6);
    // Observed runtime 2x the model's own prediction: relative error 1/2
    // (the observed runtimes here are far above the 1-second floor).
    const auto predicted = client.predict(key, run);
    ASSERT_TRUE(predicted.ok()) << predicted.error_text();
    run.runtime_s = 2.0 * predicted.value();
    const double err = std::abs(predicted.value() - run.runtime_s) /
                       std::max(std::abs(run.runtime_s), 1.0);
    want_ewma = i == 0 ? err : drift.ewma_alpha * err + (1.0 - drift.ewma_alpha) * want_ewma;

    const auto obs = client.report_run(key, run);
    ASSERT_TRUE(obs.ok()) << obs.error_text();
    EXPECT_EQ(obs.value().reports, static_cast<std::uint64_t>(i) + 1);
    EXPECT_NEAR(obs.value().error_ewma, want_ewma, 1e-9);
    EXPECT_FALSE(obs.value().refit_triggered);
  }

  // The wire metrics carry the drift counters the monitor accumulated.
  const auto metrics = client.metrics(key);
  ASSERT_TRUE(metrics.ok()) << metrics.error_text();
  EXPECT_EQ(metrics.value().drift_reports, 10u);
  EXPECT_EQ(metrics.value().drift_refits, 0u);
  EXPECT_NEAR(metrics.value().drift_error_ewma, want_ewma, 1e-9);
  EXPECT_EQ(metrics.value().reductions, 0u);
  client.close();
}

TEST(Loopback, DriftTriggeredReducedRefitLandsOverTheWire) {
  serve::DriftOptions drift;
  drift.threshold = 0.4;
  drift.min_reports = 10;
  drift.finetune = quick_finetune();
  Loopback loop(drift);
  const serve::ModelKey key{"sgd", "driftrefit"};
  // Bound the triggered fine-tune through the entry's reduction config.
  reduce::ReductionConfig reduction;
  reduction.policy = reduce::ReductionPolicy::kCoverage;
  reduction.budget = 6;
  loop.registry.set_default_reduction(reduction);

  NetClient client;
  loop.connect(client);
  ASSERT_TRUE(client.publish(key, *loop.model).ok());

  // Skewed runtimes (3x the prediction) until the monitor fires.
  bool triggered = false;
  for (int i = 0; i < 40 && !triggered; ++i) {
    data::JobRun run = loop.query(1 + i % 6);
    const auto predicted = client.predict(key, run);
    ASSERT_TRUE(predicted.ok());
    run.runtime_s = 3.0 * predicted.value();
    const auto obs = client.report_run(key, run);
    ASSERT_TRUE(obs.ok()) << obs.error_text();
    triggered = obs.value().refit_triggered;
  }
  ASSERT_TRUE(triggered);

  // The refit runs on a background drain task; poll the wire metrics until the
  // reduced swap lands.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  serve::ServeMetrics seen;
  do {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "drift refit never landed";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const auto metrics = client.metrics(key);
    ASSERT_TRUE(metrics.ok()) << metrics.error_text();
    seen = metrics.value();
  } while (seen.reductions == 0);

  EXPECT_EQ(seen.drift_refits, 1u);
  EXPECT_EQ(seen.reduction_last_kept, reduction.budget);
  EXPECT_GT(seen.reduction_runs_dropped, 0u);
  client.close();
}

TEST(Loopback, RefitOverTheWireMatchesTheInProcessRefit) {
  Loopback loop;
  const serve::ModelKey key{"sgd", "refit"};
  NetClient client;
  loop.connect(client);
  ASSERT_TRUE(client.publish(key, *loop.model).ok());

  const std::vector<data::JobRun> observed(loop.target_runs.begin(),
                                           loop.target_runs.begin() + 3);
  const auto fit = client.refit(key, observed, quick_finetune());
  ASSERT_TRUE(fit.ok()) << fit.error_text();
  EXPECT_GT(fit.value().epochs_run, 0u);

  // The served weights after the wire refit must match the identical refit
  // recipe executed in-process on a fresh registry.
  serve::ModelRegistry local;
  const serve::ModelHandle handle = local.publish(key, *loop.model).unwrap();
  local.refit(handle, observed, quick_finetune()).expect();
  serve::PredictionService local_service(local);
  const data::JobRun probe = loop.query(23);
  const double local_value = local_service.predict(handle, probe).unwrap();
  const auto wire_value = client.predict(key, probe);
  ASSERT_TRUE(wire_value.ok()) << wire_value.error_text();
  EXPECT_EQ(wire_value.value(), local_value);
  client.close();
}

TEST(Loopback, DrainCompletesInFlightTrafficAndRefusesNewConnections) {
  Loopback loop;
  const serve::ModelKey key{"sgd", "drain"};
  NetClient control;
  loop.connect(control);
  ASSERT_TRUE(control.publish(key, *loop.model).ok());
  const double expected = loop.model->predict_one(loop.query(7));

  // Keep several pipelined clients in flight while the drain lands.
  constexpr int kClients = 3;
  std::atomic<std::uint64_t> issued{0};
  std::atomic<std::uint64_t> resolved{0};
  std::atomic<std::uint64_t> wrong{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      NetClient client;
      loop.connect(client);
      std::vector<std::future<serve::ServeResult<double>>> window;
      while (!stop.load(std::memory_order_relaxed)) {
        window.push_back(client.predict_async(key, loop.query(7)));
        issued.fetch_add(1);
        if (window.size() >= 16) {
          const auto r = window.front().get();
          window.erase(window.begin());
          resolved.fetch_add(1);
          // ok with the right bits, or a typed shutdown — never junk.
          if (r.ok() ? (r.value() != expected)
                     : (r.status() != serve::ServeStatus::kShutdown)) {
            wrong.fetch_add(1);
          }
        }
      }
      for (auto& f : window) {
        const auto r = f.get();
        resolved.fetch_add(1);
        if (r.ok() ? (r.value() != expected)
                   : (r.status() != serve::ServeStatus::kShutdown)) {
          wrong.fetch_add(1);
        }
      }
      client.close();
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto drained = control.drain();
  EXPECT_TRUE(drained.ok()) << drained.error_text();
  stop.store(true);
  for (std::thread& t : threads) t.join();

  // EVERY issued request resolved exactly once; nothing hung or vanished.
  EXPECT_EQ(issued.load(), resolved.load());
  EXPECT_EQ(wrong.load(), 0u);

  loop.server->wait_drained();
  const ServerStats stats = loop.server->stats();
  EXPECT_TRUE(stats.draining);
  EXPECT_EQ(stats.connections_open, 0u);

  // The drained server accepts no new work: a fresh connection either fails
  // outright or dies before answering.
  NetClient late;
  std::string error;
  if (late.connect("127.0.0.1", loop.server->port(), error)) {
    const auto r = late.predict(key, loop.query(7));
    EXPECT_FALSE(r.ok());
    late.close();
  }
  control.close();
}

// Regression: tcp_connect used to accept only dotted-quad IPv4 strings, so
// dialing "localhost" failed before a single packet moved.  Hostnames now
// resolve through getaddrinfo (IPv4 preferred, every result tried).
TEST(Loopback, ConnectByHostnameResolvesLocalhost) {
  Loopback loop;
  const serve::ModelKey key{"sgd", "hostname"};

  NetClient client;
  std::string error;
  ASSERT_TRUE(client.connect("localhost", loop.server->port(), error)) << error;
  ASSERT_TRUE(client.publish(key, *loop.model).ok());
  const auto r = client.predict(key, loop.query(9));
  ASSERT_TRUE(r.ok()) << r.error_text();
  EXPECT_EQ(r.value(), loop.model->predict_one(loop.query(9)));
  client.close();
}

TEST(Loopback, UnresolvableHostnameNamesTheHostInTheError) {
  NetClient client;
  std::string error;
  // RFC 2606 reserves .invalid: this resolution must fail everywhere.
  EXPECT_FALSE(client.connect("no-such-host.invalid", 7113, error));
  EXPECT_NE(error.find("no-such-host.invalid"), std::string::npos) << error;
}

}  // namespace
}  // namespace bellamy::net

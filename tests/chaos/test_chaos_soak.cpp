// Chaos soak: the fault-injection harness driving the whole stack.
//
//   * MESH SOAK — a 3-node exchange mesh where every peer link runs through
//     a ChaosTransport fed by one seeded FaultInjector, plus random peer
//     flaps (hard outages).  Across >= 5 fault schedules the mesh must
//     converge BIT-IDENTICALLY once the network heals, with zero hung
//     threads (the test finishing IS the proof — every sync_now() returns).
//   * SOCKET SOAK — a real ServeServer behind a FaultProxy whose forwarded
//     chunks degrade through the injector (delays, dropped chunks, truncated
//     frames, hard disconnects) in both directions, against
//     deadline-carrying clients.  Every request must resolve exactly once —
//     ok with the right bits or a typed failure, never junk, never a hang —
//     and after healing a clean client reads bit-identical predictions.
//
// Garble runs at BOTH layers: every wire frame now carries a trailing
// FNV-1a checksum, so a garbled frame can no longer decode into a valid
// different request — the receiver rejects it as kChecksumMismatch and
// closes the connection, which the client surfaces as the typed kShutdown.
// Flipped bytes on a real socket are therefore just another transport
// fault, and the bit-exactness assertions below stay sound.
//
// Determinism: one FaultPlan seed = one fault schedule.  A failing seed
// replays locally by pasting it into kSchedules.
//
// Runs under ASan/UBSan in CI (label "chaos").

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/trainer.hpp"
#include "data/c3o_generator.hpp"
#include "exchange/exchange.hpp"
#include "net/net.hpp"
#include "serve/serve.hpp"
#include "support/chaos_transport.hpp"
#include "support/fault_proxy.hpp"
#include "support/local_transport.hpp"

namespace bellamy {
namespace {

using std::chrono::milliseconds;

/// splitmix64: the same deterministic generator the injector uses, here
/// driving the flap schedule so the whole soak replays from its seed.
std::uint64_t mix(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct SoakFixture {
  SoakFixture() {
    data::C3OGeneratorConfig cfg;
    cfg.seed = 61;
    ds = data::C3OGenerator(cfg).generate_algorithm("sgd", 4);
    core::PreTrainConfig pre;
    pre.epochs = 60;
    for (std::uint64_t seed : {11ull, 23ull, 37ull}) {
      core::BellamyModel model(core::BellamyConfig{}, seed);
      core::pretrain(model, ds.runs(), pre);
      models.push_back(std::move(model));
    }
  }

  data::Dataset ds;
  std::vector<core::BellamyModel> models;  ///< one distinct model per node
};

/// checkpoint_text without gtest side effects: empty = not there (yet).
std::string text_or_empty(serve::ModelRegistry& registry, const serve::ModelKey& key) {
  const auto handle = registry.find(key);
  if (!handle.ok()) return {};
  const auto text = registry.checkpoint_text(handle.value());
  return text.ok() ? text.value() : std::string();
}

TEST(ChaosSoak, MeshWithFlappingPeersConvergesBitIdenticallyOnceHealed) {
  SoakFixture f;

  // >= 5 fault schedules, per the acceptance bar.
  const std::uint64_t kSchedules[] = {101, 202, 303, 404, 505};
  for (const std::uint64_t schedule : kSchedules) {
    SCOPED_TRACE("fault schedule seed " + std::to_string(schedule));

    net::FaultPlan plan;
    plan.seed = schedule;
    plan.delay_prob = 0.10;
    plan.drop_prob = 0.10;
    plan.garble_prob = 0.10;
    plan.disconnect_prob = 0.15;
    plan.max_delay = milliseconds(5);
    auto faults = std::make_shared<net::FaultInjector>(plan);

    exchange::ExchangeOptions options;
    options.advertise_on_update = false;  // convergence comes from sync rounds
    options.breaker.failure_threshold = 2;
    options.breaker.cooldown = milliseconds(50);

    constexpr int kNodes = 3;
    struct MeshNode {
      explicit MeshNode(const exchange::ExchangeOptions& opts) : ex(registry, opts) {}
      serve::ModelRegistry registry;
      exchange::ExchangeRegistry ex;
    };
    std::vector<std::unique_ptr<MeshNode>> nodes;
    for (int i = 0; i < kNodes; ++i) nodes.push_back(std::make_unique<MeshNode>(options));

    // Full mesh: every directed edge is a chaos-wrapped local transport.
    std::vector<std::shared_ptr<exchange::ChaosTransport>> edges;
    for (int from = 0; from < kNodes; ++from) {
      for (int to = 0; to < kNodes; ++to) {
        if (from == to) continue;
        auto edge = std::make_shared<exchange::ChaosTransport>(
            std::make_shared<exchange::LocalTransport>(
                nodes[static_cast<std::size_t>(to)]->ex,
                "node" + std::to_string(to)),
            faults);
        nodes[static_cast<std::size_t>(from)]->ex.add_peer(edge);
        edges.push_back(std::move(edge));
      }
    }

    // Each node contributes one model; the mesh must spread all three.
    std::vector<serve::ModelKey> keys;
    std::vector<std::string> expected;
    for (int i = 0; i < kNodes; ++i) {
      const serve::ModelKey key{"sgd", "soak-" + std::to_string(i)};
      ASSERT_TRUE(nodes[static_cast<std::size_t>(i)]
                      ->registry.publish(key, f.models[static_cast<std::size_t>(i)])
                      .ok());
      keys.push_back(key);
      expected.push_back(
          text_or_empty(nodes[static_cast<std::size_t>(i)]->registry, key));
      ASSERT_FALSE(expected.back().empty());
    }

    // The storm: sync rounds under injected faults while peers flap.
    std::uint64_t flap_rng = schedule * 7919;
    for (int round = 0; round < 8; ++round) {
      const std::size_t victim = mix(flap_rng) % edges.size();
      edges[victim]->set_down((mix(flap_rng) & 1) != 0);
      for (auto& node : nodes) node->ex.sync_now();
    }
    EXPECT_GT(faults->counts().total(), 0u) << "the storm never injected anything";

    // Heal: outages end, the injector goes quiet, breakers get to re-probe.
    for (auto& edge : edges) edge->set_down(false);
    faults->set_enabled(false);

    bool converged = false;
    for (int round = 0; round < 100 && !converged; ++round) {
      std::this_thread::sleep_for(milliseconds(60));  // let cooldowns elapse
      for (auto& node : nodes) node->ex.sync_now();
      converged = true;
      for (int i = 0; i < kNodes && converged; ++i) {
        for (std::size_t k = 0; k < keys.size() && converged; ++k) {
          converged = text_or_empty(nodes[static_cast<std::size_t>(i)]->registry,
                                    keys[k]) == expected[k];
        }
      }
    }
    EXPECT_TRUE(converged) << "mesh did not converge bit-identically after healing";

    for (auto& node : nodes) node->ex.stop();
  }
}

TEST(ChaosSoak, SocketFaultsEveryRequestResolvesExactlyOnceAndHealsClean) {
  SoakFixture f;
  core::BellamyModel& model = f.models.front();

  net::FaultPlan plan;
  plan.seed = 909;
  plan.delay_prob = 0.05;
  plan.drop_prob = 0.05;
  plan.truncate_prob = 0.03;
  plan.garble_prob = 0.03;  // flipped bytes on the socket: caught by the frame checksum
  plan.disconnect_prob = 0.05;
  plan.max_delay = milliseconds(5);
  auto faults = std::make_shared<net::FaultInjector>(plan);

  serve::ModelRegistry registry;
  serve::ServeOptions serve_options;
  serve_options.workers = 2;
  serve::PredictionService service(registry, serve_options);

  net::ServerOptions server_options;
  server_options.io_timeout = milliseconds(500);
  net::ServeServer server(registry, service, server_options);
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  // Every client dials the proxy; the server's own sockets stay clean.
  net::FaultProxy proxy(server.port(), faults);
  ASSERT_TRUE(proxy.start(error)) << error;

  const serve::ModelKey key{"sgd", "chaos"};
  ASSERT_TRUE(registry.publish(key, model).ok());

  auto query = [&](int scale_out) {
    data::JobRun q = f.ds.runs().front();
    q.scale_out = scale_out;
    return q;
  };
  std::vector<double> want(31, 0.0);
  for (int x = 1; x <= 30; ++x) want[static_cast<std::size_t>(x)] = model.predict_one(query(x));

  net::ClientOptions client_options;
  client_options.io_timeout = milliseconds(500);

  constexpr int kClients = 3;
  constexpr int kRequests = 60;
  std::atomic<std::uint64_t> resolved{0};
  std::atomic<std::uint64_t> junk{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      auto client = std::make_unique<net::NetClient>(client_options);
      std::string dial_error;
      bool connected = client->connect("127.0.0.1", proxy.port(), dial_error);
      for (int i = 0; i < kRequests; ++i) {
        const int x = 1 + i % 30;
        if (!connected) {  // the last fault killed the stream: redial
          client = std::make_unique<net::NetClient>(client_options);
          connected = client->connect("127.0.0.1", proxy.port(), dial_error);
          if (!connected) continue;
        }
        const auto r = client->predict(key, query(x));
        resolved.fetch_add(1);  // predict() RETURNED: resolved exactly once
        if (r.ok()) {
          if (r.value() != want[static_cast<std::size_t>(x)]) junk.fetch_add(1);
        } else if (r.status() != serve::ServeStatus::kShutdown &&
                   r.status() != serve::ServeStatus::kTimeout) {
          junk.fetch_add(1);  // only transport-shaped failures are legal
        }
        if (!r.ok()) connected = false;
      }
      client->close();
    });
  }
  for (std::thread& t : threads) t.join();

  // Every request that went out came back exactly once, and nothing came
  // back as a wrong value or an untyped error.
  EXPECT_GT(resolved.load(), 0u);
  EXPECT_EQ(junk.load(), 0u);
  EXPECT_GT(faults->counts().total(), 0u) << "the soak never injected anything";

  // Healed: a clean client reads the exact model bits the chaos never touched.
  faults->set_enabled(false);
  net::NetClient clean(client_options);
  ASSERT_TRUE(clean.connect("127.0.0.1", proxy.port(), error)) << error;
  for (int x = 1; x <= 30; ++x) {
    const auto r = clean.predict(key, query(x));
    ASSERT_TRUE(r.ok()) << "x=" << x << ": " << r.error_text();
    EXPECT_EQ(r.value(), want[static_cast<std::size_t>(x)]) << "x=" << x;
  }

  // The serve layer answered everything it was handed.
  const auto metrics = clean.metrics(key);
  ASSERT_TRUE(metrics.ok()) << metrics.error_text();
  EXPECT_EQ(metrics.value().requests, metrics.value().responses);

  clean.close();
  proxy.stop();
  server.stop();
}

}  // namespace
}  // namespace bellamy

// Exchange over REAL sockets: TcpTransport against live ServeServers with
// attached ExchangeRegistry nodes.  Proves the wire leg of the mesh:
//
//   * TcpTransport round-trips digest / pull / advertise through the server
//     dispatch, checkpoint text arriving byte-for-byte intact,
//   * a PREDICT at a node that lacks the model resolves through
//     open_on_miss -> TCP pull -> bit-identical serving (the full
//     pull-on-miss path a client actually experiences),
//   * a server with no exchange layer answers the three exchange messages
//     with kInvalidArgument — typed, never a dropped connection,
//   * an unreachable peer is a typed kShutdown naming the peer,
//   * a drift-triggered refit (report_run over the wire, refit inside the
//     registry) reaches a peer within two anti-entropy rounds,
//   * a node joining the mesh installs the peer's checkpoint byte-for-byte
//     and warm-starts a new context faster than pretraining one.
//
// Runs under ASan/UBSan in CI (labels "exchange").

#include "exchange/exchange.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "core/trainer.hpp"
#include "data/c3o_generator.hpp"
#include "net/net.hpp"
#include "serve/serve.hpp"
#include "util/timer.hpp"

namespace bellamy::exchange {
namespace {

struct Fixture {
  Fixture() {
    data::C3OGeneratorConfig cfg;
    cfg.seed = 61;
    ds = data::C3OGenerator(cfg).generate_algorithm("sgd", 4);
  }

  core::BellamyModel pretrained(std::uint64_t seed) const {
    core::BellamyModel model(core::BellamyConfig{}, seed);
    core::PreTrainConfig pre;
    pre.epochs = 60;
    core::pretrain(model, ds.runs(), pre);
    return model;
  }

  data::JobRun query(int scale_out) const {
    data::JobRun q = ds.runs().front();
    q.scale_out = scale_out;
    return q;
  }

  data::Dataset ds;
};

/// Drift monitor that auto-refits (threshold above 0) with a quick recipe.
serve::DriftOptions auto_refit_drift() {
  serve::DriftOptions drift;
  drift.threshold = 0.5;
  drift.finetune.max_epochs = 80;
  drift.finetune.patience = 40;
  return drift;
}

/// A full serving node on an ephemeral loopback port with its exchange
/// layer and drift monitor attached — what bellamy_serverd wires up.
struct TcpNode {
  TcpNode() : ex(registry), drift(registry, auto_refit_drift()) {
    serve::ServeOptions serve_options;
    serve_options.workers = 2;
    serve_options.flush_deadline = std::chrono::microseconds(200);
    service.emplace(registry, serve_options);

    net::ServerOptions server_options;
    server_options.peer_service = &ex;
    server_options.drift_monitor = &drift;
    server.emplace(registry, *service, server_options);
    std::string error;
    if (!server->start(error)) throw std::runtime_error("server start: " + error);
  }

  ~TcpNode() {
    ex.stop();
    server->stop();
    server.reset();
    service.reset();
  }

  std::uint16_t port() const { return server->port(); }

  serve::ModelRegistry registry;
  ExchangeRegistry ex;
  serve::DriftMonitor drift;  ///< must outlive the server
  std::optional<serve::PredictionService> service;
  std::optional<net::ServeServer> server;
};

TEST(TcpExchange, TransportRoundTripsDigestPullAndAdvertise) {
  Fixture fx;
  TcpNode a;
  const serve::ModelKey key{"sgd", "wire"};
  ASSERT_TRUE(a.registry.publish(key, fx.pretrained(3)).ok());

  TcpTransport transport("localhost", a.port());  // hostname: getaddrinfo path
  EXPECT_EQ(transport.name(), "localhost:" + std::to_string(a.port()));

  const auto digest = transport.digest();
  ASSERT_TRUE(digest.ok()) << digest.error_text();
  ASSERT_EQ(digest.value().size(), 1u);
  EXPECT_EQ(digest.value()[0].key, key);
  EXPECT_EQ(digest.value()[0].stamp, a.ex.stamp_of(key));

  const auto pulled = transport.pull(key);
  ASSERT_TRUE(pulled.ok()) << pulled.error_text();
  EXPECT_EQ(pulled.value().stamp, a.ex.stamp_of(key));
  const auto local_text = a.registry.checkpoint_text(a.registry.find(key).value());
  ASSERT_TRUE(local_text.ok());
  EXPECT_EQ(pulled.value().checkpoint_text, local_text.value());  // byte-exact

  const auto missing = transport.pull(serve::ModelKey{"sgd", "nowhere"});
  EXPECT_EQ(missing.status(), serve::ServeStatus::kUnknownModel);

  const auto advertised = transport.advertise(digest.value());
  EXPECT_TRUE(advertised.ok()) << advertised.error_text();
}

TEST(TcpExchange, PredictOnMissPullsOverTcpAndServesBitIdentically) {
  Fixture fx;
  core::BellamyModel model = fx.pretrained(5);
  const serve::ModelKey key{"sgd", "pulled"};

  TcpNode a, b;
  ASSERT_TRUE(a.registry.publish(key, model).ok());
  b.ex.add_peer(std::make_shared<TcpTransport>("127.0.0.1", a.port()));

  // A client of b asks for a model only a has: the server's resolve path
  // must pull it over TCP mid-request and serve it bit-identically.
  net::NetClient client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", b.port(), error)) << error;
  const auto served = client.predict(key, fx.query(9));
  ASSERT_TRUE(served.ok()) << served.error_text();
  EXPECT_EQ(served.value(), model.predict_one(fx.query(9)));

  EXPECT_EQ(b.ex.stats().pulls_completed, 1u);
  EXPECT_EQ(b.ex.stamp_of(key), a.ex.stamp_of(key));

  // Same-job other-context: the warm start also works mid-request.
  const serve::ModelKey derived_key{"sgd", "derived"};
  const auto warm = client.predict(derived_key, fx.query(9));
  ASSERT_TRUE(warm.ok()) << warm.error_text();
  EXPECT_EQ(warm.value(), model.predict_one(fx.query(9)));  // direct reuse of the base
  EXPECT_EQ(b.ex.stats().warm_starts, 1u);
  client.close();
}

TEST(TcpExchange, ServerWithoutExchangeLayerAnswersTypedErrors) {
  Fixture fx;
  serve::ModelRegistry registry;
  serve::PredictionService service(registry);
  net::ServeServer server(registry, service, net::ServerOptions{});  // no peer_service
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  net::NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port(), error)) << error;
  const auto digest = client.digest();
  EXPECT_EQ(digest.status(), serve::ServeStatus::kInvalidArgument);
  EXPECT_NE(digest.message().find("exchange"), std::string::npos) << digest.message();
  EXPECT_EQ(client.pull_model(serve::ModelKey{"sgd", "x"}).status(),
            serve::ServeStatus::kInvalidArgument);
  EXPECT_EQ(client.advertise({}).status(), serve::ServeStatus::kInvalidArgument);

  // The connection survived all three rejections.
  const auto miss = client.predict(serve::ModelKey{"sgd", "x"}, fx.query(3));
  EXPECT_EQ(miss.status(), serve::ServeStatus::kUnknownModel);
  client.close();
  server.stop();
}

TEST(TcpExchange, UnreachablePeerIsATypedShutdownNamingThePeer) {
  // Port 1 on loopback: nothing listens there.
  TcpTransport transport("127.0.0.1", 1);
  const auto digest = transport.digest();
  EXPECT_EQ(digest.status(), serve::ServeStatus::kShutdown);
  EXPECT_NE(digest.message().find("127.0.0.1:1"), std::string::npos) << digest.message();

  // open_on_miss() on a mesh whose only peer is down degrades to kUnknownModel —
  // the unreachable transport never wedges resolution.
  serve::ModelRegistry registry;
  ExchangeRegistry ex(registry);
  ex.add_peer(std::make_shared<TcpTransport>("127.0.0.1", 1));
  EXPECT_EQ(ex.open_on_miss(serve::ModelKey{"sgd", "x"}).status(),
            serve::ServeStatus::kUnknownModel);
}

std::string checkpoint_of(serve::ModelRegistry& registry, const serve::ModelKey& key) {
  const auto handle = registry.find(key);
  if (!handle.ok()) return {};
  auto text = registry.checkpoint_text(handle.value());
  return text.ok() ? text.take() : std::string();
}

// The subsystem's reason to exist (arXiv 2206.00429): a new node resolves a
// same-job new context off a peer's pretrained model faster than it could
// pretrain one itself, and what it installs is the peer's checkpoint exactly.
TEST(TcpExchange, JoiningNodeWarmStartsFasterThanPretrainingAndByteIdentically) {
  data::C3OGeneratorConfig gen_cfg;
  gen_cfg.seed = 71;
  const data::Dataset history = data::C3OGenerator(gen_cfg).generate_algorithm("sgd", 6);
  const serve::ModelKey seed_key{"sgd", "ctx-origin"};
  const serve::ModelKey fresh_key{"sgd", "ctx-new"};

  // Node A pays the one pretrain the mesh ever needs.
  TcpNode a;
  core::BellamyModel model(core::BellamyConfig{}, /*seed=*/71);
  core::PreTrainConfig pre;
  pre.epochs = 300;
  const util::Timer pretrain_timer;
  core::pretrain(model, history.runs(), pre);
  const double pretrain_ms = pretrain_timer.milliseconds();
  ASSERT_TRUE(a.registry.publish(seed_key, model).ok());

  // Node B joins and never pretrains: exact key by TCP pull, new context by
  // pulling the base and deriving from it.
  TcpNode b;
  b.ex.add_peer(std::make_shared<TcpTransport>("127.0.0.1", a.port()));
  const auto pulled = b.ex.open_on_miss(seed_key);
  ASSERT_TRUE(pulled.ok()) << pulled.error_text();
  const util::Timer warm_timer;
  const auto warm = b.ex.open_on_miss(fresh_key);
  const double warm_ms = warm_timer.milliseconds();
  ASSERT_TRUE(warm.ok()) << warm.error_text();

  const std::string origin = checkpoint_of(a.registry, seed_key);
  ASSERT_FALSE(origin.empty());
  EXPECT_EQ(checkpoint_of(b.registry, seed_key), origin);
  EXPECT_EQ(checkpoint_of(b.registry, fresh_key), origin);
  EXPECT_LT(warm_ms, pretrain_ms) << "warm start " << warm_ms << " ms vs pretrain "
                                  << pretrain_ms << " ms";
}

// The drift monitor refits inside the registry, behind the server's back.
// The catalog must still stamp the new weights, so a peer converges onto
// them on its next anti-entropy round (bound: 2).
TEST(TcpExchange, DriftTriggeredRefitReachesThePeerWithinTwoSyncRounds) {
  Fixture fx;
  const core::BellamyModel model = fx.pretrained(7);
  const serve::ModelKey key{"sgd", "drifting"};

  TcpNode a, b;
  ASSERT_TRUE(a.registry.publish(key, model).ok());
  b.ex.add_peer(std::make_shared<TcpTransport>("127.0.0.1", a.port()));
  b.ex.sync_now();
  const serve::ModelHandle a_handle = a.registry.find(key).value();
  const std::uint64_t published = a.registry.state_stamp(a_handle);
  ASSERT_EQ(b.registry.state_stamp(b.registry.find(key).value()), published);

  // Observed runtimes 3x the prediction: relative error 2/3, above 0.5.
  net::NetClient client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", a.port(), error)) << error;
  bool triggered = false;
  for (std::size_t i = 0; i < 64 && !triggered; ++i) {
    data::JobRun run = fx.ds.runs()[i % fx.ds.runs().size()];
    run.runtime_s = 3.0 * model.predict_one(run);
    const auto observed = client.report_run(key, run);
    ASSERT_TRUE(observed.ok()) << observed.error_text();
    triggered = observed.value().refit_triggered;
  }
  client.close();
  ASSERT_TRUE(triggered) << "skewed reports never triggered a refit";

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (a.registry.state_stamp(a_handle) == published &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::uint64_t refit = a.registry.state_stamp(a_handle);
  ASSERT_NE(refit, published) << "the triggered refit never landed";
  EXPECT_TRUE(a.ex.pinned(key));

  constexpr int kMaxRounds = 2;
  int rounds = 0;
  while (rounds < kMaxRounds && b.registry.state_stamp(b.registry.find(key).value()) != refit) {
    b.ex.sync_now();
    ++rounds;
  }
  EXPECT_EQ(b.registry.state_stamp(b.registry.find(key).value()), refit)
      << "b still serves other weights after " << rounds << " sync rounds";
  EXPECT_TRUE(checkpoint_of(b.registry, key) == checkpoint_of(a.registry, key))
      << "b's checkpoint text differs from a's";
  EXPECT_EQ(b.ex.stamp_of(key), a.ex.stamp_of(key));
}

}  // namespace
}  // namespace bellamy::exchange

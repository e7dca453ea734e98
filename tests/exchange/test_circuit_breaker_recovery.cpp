// Circuit-breaker recovery at the exchange layer: a peer dies, its circuit
// trips open, sync rounds stop touching it entirely (no wire traffic, no
// timeout tax), a failed half-open probe re-opens it, and after the peer
// revives EXACTLY ONE successful probe re-admits it — at which point pulls
// flow again and the mesh converges.  Plus the typed-timeout contract of
// open_on_miss() against a peer that accepts and never answers.
//
// Runs under ASan/UBSan in CI (label "exchange").

#include "exchange/exchange.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "core/trainer.hpp"
#include "data/c3o_generator.hpp"
#include "net/socket.hpp"
#include "support/local_transport.hpp"

namespace bellamy::exchange {
namespace {

using std::chrono::milliseconds;

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

  data::Dataset ds;
};

struct Node {
  explicit Node(ExchangeOptions options = {}) : ex(registry, options) {}
  serve::ModelRegistry registry;
  ExchangeRegistry ex;
};

std::string text_of(Node& n, const serve::ModelKey& key) {
  const auto handle = n.registry.find(key);
  EXPECT_TRUE(handle.ok()) << key.str() << ": " << handle.error_text();
  if (!handle.ok()) return {};
  const auto text = n.registry.checkpoint_text(handle.value());
  return text.ok() ? text.value() : std::string();
}

/// LocalTransport with a kill switch and a call odometer: proves sync
/// rounds stop REACHING a peer whose circuit is open.
class FlappyTransport final : public PeerTransport {
 public:
  explicit FlappyTransport(net::PeerService& target) : inner_(target, "flappy") {}

  serve::ServeResult<std::vector<DigestEntry>> digest() override {
    calls.fetch_add(1);
    if (down.load()) {
      return serve::ServeResult<std::vector<DigestEntry>>::failure(
          serve::ServeStatus::kShutdown, "peer flappy unreachable: down");
    }
    return inner_.digest();
  }

  serve::ServeResult<PulledCheckpoint> pull(const serve::ModelKey& key) override {
    calls.fetch_add(1);
    if (down.load()) {
      return serve::ServeResult<PulledCheckpoint>::failure(
          serve::ServeStatus::kShutdown, "peer flappy unreachable: down");
    }
    return inner_.pull(key);
  }

  serve::ServeResult<serve::Unit> advertise(
      const std::vector<DigestEntry>& entries) override {
    calls.fetch_add(1);
    if (down.load()) {
      return serve::ServeResult<serve::Unit>::failure(
          serve::ServeStatus::kShutdown, "peer flappy unreachable: down");
    }
    return inner_.advertise(entries);
  }

  std::string name() const override { return "flappy"; }

  std::atomic<int> calls{0};
  std::atomic<bool> down{false};

 private:
  LocalTransport inner_;
};

TEST(CircuitBreakerRecovery, DeadPeerIsSkippedAndOneProbeReadmitsIt) {
  Fixture f;

  ExchangeOptions options;
  options.advertise_on_update = false;  // all traffic comes from explicit syncs
  options.breaker.failure_threshold = 2;
  options.breaker.cooldown = milliseconds(150);

  Node a(options);
  Node b;
  auto flappy = std::make_shared<FlappyTransport>(b.ex);
  a.ex.add_peer(flappy);

  const serve::ModelKey early{"sgd", "early"};
  ASSERT_TRUE(b.registry.publish(early, f.pretrained(11)).ok());

  // Healthy round: digest + pull = 2 calls, model lands bit-identically.
  a.ex.sync_now();
  EXPECT_EQ(flappy->calls.load(), 2);
  EXPECT_EQ(text_of(a, early), text_of(b, early));
  {
    const auto stats = a.ex.stats();
    ASSERT_EQ(stats.peers.size(), 1u);
    EXPECT_STREQ(stats.peers[0].breaker_state, "closed");
    EXPECT_EQ(stats.peers[0].successes, 2u);
  }

  // Peer dies: two consecutive failures trip the breaker.
  flappy->down.store(true);
  a.ex.sync_now();
  a.ex.sync_now();
  EXPECT_EQ(flappy->calls.load(), 4);
  {
    const auto stats = a.ex.stats();
    EXPECT_STREQ(stats.peers[0].breaker_state, "open");
    EXPECT_EQ(stats.peers[0].failures, 2u);
    EXPECT_EQ(stats.peers[0].trips, 1u);
  }

  // Open circuit: further rounds never touch the transport.
  a.ex.sync_now();
  a.ex.sync_now();
  EXPECT_EQ(flappy->calls.load(), 4) << "open circuit still produced wire traffic";
  {
    const auto stats = a.ex.stats();
    EXPECT_EQ(stats.peers[0].skips, 2u);
    EXPECT_EQ(stats.breaker_skips, 2u);
  }

  // Cooldown elapses but the peer is STILL dead: the single probe fails and
  // the circuit re-opens with a fresh cooldown.
  std::this_thread::sleep_for(milliseconds(250));
  a.ex.sync_now();
  EXPECT_EQ(flappy->calls.load(), 5);  // exactly the probe
  {
    const auto stats = a.ex.stats();
    EXPECT_STREQ(stats.peers[0].breaker_state, "open");
    EXPECT_EQ(stats.peers[0].failures, 3u);
    EXPECT_EQ(stats.peers[0].trips, 2u);
    EXPECT_EQ(stats.peers[0].probes, 1u);
  }
  a.ex.sync_now();  // fresh cooldown: skipped again
  EXPECT_EQ(flappy->calls.load(), 5);

  // Peer revives with something new to offer.
  const serve::ModelKey late{"sgd", "late"};
  ASSERT_TRUE(b.registry.publish(late, f.pretrained(23)).ok());
  flappy->down.store(false);
  std::this_thread::sleep_for(milliseconds(250));

  // One successful probe closes the circuit and the round completes in
  // full: digest (the probe) + pull of the new key.
  a.ex.sync_now();
  {
    const auto stats = a.ex.stats();
    EXPECT_STREQ(stats.peers[0].breaker_state, "closed");
    EXPECT_EQ(stats.peers[0].probes, 2u);
    EXPECT_EQ(stats.peers[0].failures, 3u);  // no new failures
  }
  EXPECT_EQ(text_of(a, late), text_of(b, late));
  EXPECT_FALSE(text_of(a, late).empty());

  a.ex.stop();
  b.ex.stop();
}

TEST(CircuitBreakerRecovery, OpenReturnsTypedTimeoutAgainstASilentPeer) {
  // A raw listener that accepts and never speaks the protocol: the worst
  // kind of peer — alive at the TCP level, dead above it.
  std::string error;
  std::uint16_t port = 0;
  net::Socket listener = net::tcp_listen(0, port, error);
  ASSERT_TRUE(listener) << error;
  std::vector<net::Socket> parked;
  std::thread acceptor([&] {
    while (true) {
      net::Socket accepted = net::tcp_accept(listener);
      if (!accepted) break;
      parked.push_back(std::move(accepted));
    }
  });

  ExchangeOptions options;
  options.advertise_on_update = false;
  Node a(options);

  TransportOptions transport_options;
  transport_options.io_timeout = milliseconds(500);
  transport_options.retry.max_attempts = 1;  // single-shot: measure ONE deadline
  a.ex.add_peer(std::make_shared<TcpTransport>("127.0.0.1", port, transport_options));

  const auto t0 = std::chrono::steady_clock::now();
  const auto opened = a.ex.open_on_miss({"sgd", "nowhere"});
  const auto elapsed = std::chrono::duration_cast<milliseconds>(
      std::chrono::steady_clock::now() - t0);

  EXPECT_FALSE(opened.ok());
  EXPECT_EQ(opened.status(), serve::ServeStatus::kTimeout) << opened.message();
  EXPECT_LT(elapsed.count(), 1000) << "2x the 500ms budget";

  a.ex.stop();
  listener.shutdown_both();
  acceptor.join();
}

}  // namespace
}  // namespace bellamy::exchange

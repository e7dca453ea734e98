// Exchange-layer tests on LocalTransport meshes: deterministic, in-process,
// no sockets.  The invariants:
//
//   * pull-on-miss installs the peer's model BIT-IDENTICALLY (state stamp is
//     a content hash over every parameter; checkpoint text compares exactly),
//   * a same-job / other-context miss warm-starts via derive() from the
//     pulled base — indistinguishable from a local derive(),
//   * a 3-node mesh converges under concurrent publishes and refits,
//   * highest stamp wins, EXCEPT an entry the node refit locally (pinned),
//   * a refit straight through the registry (the drift monitor's and the
//     console's path) reaches the peers pinned and freshly stamped,
//   * resolve-through-the-mesh-else-pretrain pretrains exactly once per
//     mesh — every other node warm-starts off the seeding node.

#include "exchange/exchange.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/trainer.hpp"
#include "data/c3o_generator.hpp"
#include "net/socket.hpp"
#include "support/local_transport.hpp"
#include "support/pool_blockers.hpp"

namespace bellamy::exchange {
namespace {

struct Fixture {
  Fixture() {
    data::C3OGeneratorConfig cfg;
    cfg.seed = 61;
    ds = data::C3OGenerator(cfg).generate_algorithm("sgd", 4);
    target_runs = ds.contexts().front().runs;
  }

  core::BellamyModel pretrained(std::uint64_t seed) const {
    core::BellamyModel model(core::BellamyConfig{}, seed);
    core::PreTrainConfig pre;
    pre.epochs = 60;
    core::pretrain(model, ds.runs(), pre);
    return model;
  }

  data::Dataset ds;
  std::vector<data::JobRun> target_runs;
};

core::FineTuneConfig quick_finetune() {
  core::FineTuneConfig cfg;
  cfg.max_epochs = 80;
  cfg.patience = 40;
  return cfg;
}

/// One mesh node: a registry plus its exchange wrapper.
struct Node {
  explicit Node(ExchangeOptions options = {}) : ex(registry, options) {}
  serve::ModelRegistry registry;
  ExchangeRegistry ex;
};

/// Options with the advertise fast path off: propagation happens only on
/// explicit sync_now() calls, so stat counters are exact.
ExchangeOptions quiet() {
  ExchangeOptions options;
  options.advertise_on_update = false;
  return options;
}

/// Bidirectional LocalTransport link.
void link(Node& a, Node& b) {
  a.ex.add_peer(std::make_shared<LocalTransport>(b.ex, "peer"));
  b.ex.add_peer(std::make_shared<LocalTransport>(a.ex, "peer"));
}

std::string text_of(Node& n, const serve::ModelKey& key) {
  const auto handle = n.registry.find(key);
  EXPECT_TRUE(handle.ok()) << key.str() << ": " << handle.error_text();
  if (!handle.ok()) return {};
  const auto text = n.registry.checkpoint_text(handle.value());
  EXPECT_TRUE(text.ok()) << key.str() << ": " << text.error_text();
  return text.ok() ? text.value() : std::string();
}

std::uint64_t stamp_of_model(Node& n, const serve::ModelKey& key) {
  const auto handle = n.registry.find(key);
  return handle.ok() ? n.registry.state_stamp(handle.value()) : 0;
}

TEST(Exchange, PullOnMissServesThePeersExactModel) {
  Fixture fx;
  Node a(quiet()), b(quiet());
  link(a, b);
  const serve::ModelKey key{"sgd", "ctx-a"};
  ASSERT_TRUE(a.registry.publish(key, fx.pretrained(3)).ok());

  // b has never seen the key: open_on_miss() must pull it off a.
  const auto opened = b.ex.open_on_miss(key);
  ASSERT_TRUE(opened.ok()) << opened.error_text();
  EXPECT_TRUE(b.registry.fitted(opened.value()));

  // Bit-identical: identical content hash AND identical checkpoint text.
  EXPECT_EQ(stamp_of_model(b, key), stamp_of_model(a, key));
  EXPECT_EQ(text_of(b, key), text_of(a, key));
  // Same freshness stamp on both catalogs — b took a's version verbatim.
  EXPECT_EQ(b.ex.stamp_of(key), a.ex.stamp_of(key));

  const ExchangeStats bs = b.ex.stats();
  EXPECT_EQ(bs.pulls_completed, 1u);
  EXPECT_EQ(bs.warm_starts, 0u);  // exact key: no derive needed
  EXPECT_EQ(a.ex.stats().pulls_served, 1u);

  // A second open is a plain local hit — no more pulls.
  ASSERT_TRUE(b.ex.open_on_miss(key).ok());
  EXPECT_EQ(b.ex.stats().pulls_completed, 1u);
}

TEST(Exchange, SameJobMissWarmStartsBitIdenticalToLocalDerive) {
  Fixture fx;
  const core::BellamyModel base = fx.pretrained(5);
  const serve::ModelKey base_key{"sgd", "ctx-a"};
  const serve::ModelKey want_key{"sgd", "ctx-b"};

  Node a(quiet()), b(quiet());
  link(a, b);
  ASSERT_TRUE(a.registry.publish(base_key, base).ok());

  // b asks for a context NOBODY has, but a has the same job: warm start.
  const auto opened = b.ex.open_on_miss(want_key);
  ASSERT_TRUE(opened.ok()) << opened.error_text();
  EXPECT_EQ(b.ex.stats().warm_starts, 1u);

  // The reference: the same warm start done entirely locally.
  serve::ModelRegistry local;
  const auto local_base = local.publish(base_key, base);
  const auto local_derived = local.derive(local_base.value(), want_key);
  ASSERT_TRUE(local_derived.ok());

  EXPECT_EQ(b.registry.state_stamp(opened.value()),
            local.state_stamp(local_derived.value()));
  EXPECT_EQ(text_of(b, want_key), text_of(a, base_key));  // direct reuse of the base

  // The derived entry shares the PULLED base checkpoint, like a local derive.
  const auto b_base = b.registry.find(base_key);
  ASSERT_TRUE(b_base.ok());
  EXPECT_EQ(b.registry.base_checkpoint(opened.value()),
            b.registry.base_checkpoint(b_base.value()));
  // And the derived key is a fresh LOCAL version, advertised to the mesh.
  EXPECT_GT(b.ex.stamp_of(want_key), 0u);
  EXPECT_FALSE(b.ex.pinned(want_key));
}

TEST(Exchange, RefitsPropagateAndPinnedEntriesResistClobber) {
  Fixture fx;
  Node a(quiet()), b(quiet());
  link(a, b);
  const serve::ModelKey key{"sgd", "shared"};
  ASSERT_TRUE(a.registry.publish(key, fx.pretrained(7)).ok());
  ASSERT_TRUE(b.ex.open_on_miss(key).ok());  // pull

  // b refits on its own runs: pinned at b, fresh stamp, new weights.
  const auto b_handle = b.registry.find(key).value();
  const auto refit =
      b.registry.refit_async(b_handle, fx.target_runs, quick_finetune()).get();
  ASSERT_TRUE(refit.ok()) << refit.error_text();
  EXPECT_TRUE(b.ex.pinned(key));
  EXPECT_GT(b.ex.stamp_of(key), a.ex.stamp_of(key));

  // a syncs: not pinned there, b's stamp is newer -> a pulls the refit.
  a.ex.sync_now();
  EXPECT_EQ(stamp_of_model(a, key), stamp_of_model(b, key));
  EXPECT_EQ(a.ex.stamp_of(key), b.ex.stamp_of(key));

  // a then REPUBLISHES (its clock has seen b's stamp, so this outranks it).
  ASSERT_TRUE(a.registry.publish(key, fx.pretrained(8)).ok());
  ASSERT_GT(a.ex.stamp_of(key), b.ex.stamp_of(key));
  const std::uint64_t b_weights_before = stamp_of_model(b, key);

  // b syncs: the remote version is NEWER, but b's entry is pinned — the
  // refit b paid for is never clobbered by gossip.
  const std::uint64_t skipped_before = b.ex.stats().conflicts_skipped;
  b.ex.sync_now();
  EXPECT_EQ(stamp_of_model(b, key), b_weights_before);
  EXPECT_TRUE(b.ex.pinned(key));
  EXPECT_GT(b.ex.stats().conflicts_skipped, skipped_before);

  // A republish at b CLEARS the pin (the refit weights were replaced
  // wholesale), so gossip may overwrite again afterwards.
  ASSERT_TRUE(b.registry.publish(key, fx.pretrained(9)).ok());
  EXPECT_FALSE(b.ex.pinned(key));
}

// The drift monitor and the console refit through the bare registry; the
// catalog must notice on its own: a fresh stamp, a pin, and peers pulling
// the refit weights on their next round.
TEST(Exchange, BareRegistryRefitReachesPeersPinnedAndFreshlyStamped) {
  Fixture fx;
  Node a(quiet()), b(quiet());
  link(a, b);
  const serve::ModelKey key{"sgd", "drifting"};
  ASSERT_TRUE(a.registry.publish(key, fx.pretrained(21)).ok());
  b.ex.sync_now();
  ASSERT_EQ(stamp_of_model(b, key), stamp_of_model(a, key));
  const std::uint64_t published_stamp = a.ex.stamp_of(key);
  ASSERT_GT(published_stamp, 0u);
  EXPECT_FALSE(a.ex.pinned(key));

  const auto refit =
      a.registry.refit_async(a.registry.find(key).value(), fx.target_runs, quick_finetune())
          .get();
  ASSERT_TRUE(refit.ok()) << refit.error_text();
  ASSERT_NE(stamp_of_model(a, key), stamp_of_model(b, key)) << "refit left the weights alone";

  // The resolved future alone implies the new stamp and the pin.
  EXPECT_GT(a.ex.stamp_of(key), published_stamp);
  EXPECT_TRUE(a.ex.pinned(key));

  b.ex.sync_now();
  EXPECT_EQ(stamp_of_model(b, key), stamp_of_model(a, key));
  EXPECT_EQ(b.ex.stamp_of(key), a.ex.stamp_of(key));
  EXPECT_FALSE(b.ex.pinned(key));  // b merely pulled it

  // A later, higher-stamped publish elsewhere does not clobber the refit.
  const std::uint64_t refit_weights = stamp_of_model(a, key);
  ASSERT_TRUE(b.registry.publish(key, fx.pretrained(22)).ok());
  ASSERT_GT(b.ex.stamp_of(key), a.ex.stamp_of(key));
  a.ex.sync_now();
  EXPECT_EQ(stamp_of_model(a, key), refit_weights);
  EXPECT_TRUE(a.ex.pinned(key));

  // Erase then re-publish between two digests: a new entry whose weight
  // version may equal the old one's, so the handle must tell them apart.
  const serve::ModelKey churn{"sgd", "churn"};
  ASSERT_TRUE(a.registry.publish(churn, fx.pretrained(23)).ok());
  b.ex.sync_now();
  const std::uint64_t first_stamp = a.ex.stamp_of(churn);
  ASSERT_EQ(b.ex.stamp_of(churn), first_stamp);
  ASSERT_TRUE(a.registry.erase(a.registry.find(churn).value()).ok());
  ASSERT_TRUE(a.registry.publish(churn, fx.pretrained(24)).ok());
  EXPECT_GT(a.ex.stamp_of(churn), first_stamp);
  b.ex.sync_now();
  EXPECT_EQ(stamp_of_model(b, churn), stamp_of_model(a, churn));
}

TEST(Exchange, ThreeNodeMeshConvergesUnderConcurrentPublishesAndRefits) {
  Fixture fx;
  // Gossip off: convergence must come from the anti-entropy rounds alone
  // (the advertise fast path is separately tested below).
  Node a(quiet()), b(quiet()), c(quiet());
  link(a, b);
  link(b, c);
  link(a, c);
  Node* nodes[] = {&a, &b, &c};

  const core::BellamyModel model = fx.pretrained(11);
  std::vector<serve::ModelKey> keys;
  for (int i = 0; i < 6; ++i) {
    keys.push_back(serve::ModelKey{"sgd", "ctx-" + std::to_string(i)});
  }

  // Concurrent publishes: node i%3 owns key i; all publish at once.
  std::vector<std::thread> writers;
  for (int i = 0; i < 6; ++i) {
    writers.emplace_back([&, i] {
      ASSERT_TRUE(nodes[i % 3]->registry.publish(keys[static_cast<std::size_t>(i)], model).ok());
    });
  }
  for (std::thread& t : writers) t.join();

  // Two concurrent refits on the owners' own entries.
  auto fa = a.registry.refit_async(a.registry.find(keys[0]).value(), fx.target_runs,
                                   quick_finetune());
  auto fb = b.registry.refit_async(b.registry.find(keys[1]).value(), fx.target_runs,
                                   quick_finetune());
  ASSERT_TRUE(fa.get().ok());
  ASSERT_TRUE(fb.get().ok());

  // Full-mesh digest rounds: every node pulls directly from every owner.
  for (Node* n : nodes) n->ex.sync_now();

  for (const serve::ModelKey& key : keys) {
    const std::uint64_t want_stamp = stamp_of_model(a, key);
    ASSERT_GT(want_stamp, 0u) << key.str();
    for (Node* n : nodes) {
      const auto handle = n->registry.find(key);
      ASSERT_TRUE(handle.ok()) << key.str();
      EXPECT_TRUE(n->registry.fitted(handle.value()));
      EXPECT_EQ(stamp_of_model(*n, key), want_stamp) << key.str();
      EXPECT_EQ(n->ex.stamp_of(key), a.ex.stamp_of(key)) << key.str();
    }
  }
  // The refit owners stay pinned; everyone else converged onto their weights.
  EXPECT_TRUE(a.ex.pinned(keys[0]));
  EXPECT_TRUE(b.ex.pinned(keys[1]));
  EXPECT_EQ(a.ex.stats().catalog_size, 6u);
}

TEST(Exchange, AdvertiseFastPathPropagatesWithoutExplicitSync) {
  Fixture fx;
  Node a, b;  // advertise_on_update defaults to true
  link(a, b);
  const serve::ModelKey key{"sgd", "gossip"};
  ASSERT_TRUE(a.registry.publish(key, fx.pretrained(13)).ok());

  // The publish advertises at b, which schedules its own pull — no
  // sync_now() anywhere.  Poll briefly; the path is queue hops, not timers.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (b.registry.find(key).ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto handle = b.registry.find(key);
  ASSERT_TRUE(handle.ok()) << "advertise never propagated";
  // Wait for the install to finish (find() can see the row mid-install).
  b.ex.sync_now();
  EXPECT_EQ(stamp_of_model(b, key), stamp_of_model(a, key));
}

// Peer I/O runs on the node's own sync thread: a round stuck on a peer that
// accepts and never answers leaves every worker of the shared pool free for
// refits and chunked predicts.
TEST(Exchange, SyncRoundAgainstASilentPeerLeavesEveryPoolWorkerFree) {
  std::string error;
  std::uint16_t port = 0;
  net::Socket listener = net::tcp_listen(0, port, error);
  ASSERT_TRUE(listener) << error;
  std::vector<net::Socket> parked;
  std::atomic<int> accepted{0};
  std::thread acceptor([&] {
    while (true) {
      net::Socket socket = net::tcp_accept(listener);
      if (!socket) break;
      parked.push_back(std::move(socket));
      accepted.fetch_add(1);
    }
  });

  Node a(quiet());
  TransportOptions transport_options;
  transport_options.io_timeout = std::chrono::milliseconds(3000);
  a.ex.add_peer(std::make_shared<TcpTransport>("127.0.0.1", port, transport_options));

  // An advertise of a key this node lacks starts a round without blocking
  // the caller; the round dials the silent peer and waits in its digest.
  a.ex.on_advertise({DigestEntry{serve::ModelKey{"sgd", "elsewhere"}, 1}});
  const auto dial_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (accepted.load() == 0 && std::chrono::steady_clock::now() < dial_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(accepted.load(), 1) << "the round never dialed the peer";

  parallel::PoolBlockers blockers;
  EXPECT_TRUE(blockers.wait_all_started(std::chrono::milliseconds(2000)))
      << "a pool worker is held by the sync round's peer I/O";
  blockers.release();

  a.ex.stop();  // waits out the digest's deadline
  listener.shutdown_both();
  acceptor.join();
}

TEST(Exchange, SyncNowAfterStopReturns) {
  Node a(quiet());
  a.ex.stop();
  a.ex.sync_now();  // returning at all is the assertion
  EXPECT_EQ(a.ex.stats().sync_rounds, 0u);
}

TEST(Exchange, OpenOrPretrainSeedsTheMeshOnce) {
  Fixture fx;
  Node a(quiet()), b(quiet());
  link(a, b);
  const serve::ModelKey key{"kmeans", "ctx-0"};

  // Resolve through the mesh; only when no node has the job, pretrain once
  // and publish into the registry.
  core::PreTrainConfig pre;
  pre.epochs = 60;
  const auto resolve_or_pretrain = [&](Node& n) {
    auto opened = n.ex.open_on_miss(key);
    if (opened.status() != serve::ServeStatus::kUnknownModel) return opened;
    core::BellamyModel model(core::BellamyConfig{}, pre.seed);
    core::pretrain(model, fx.ds.runs(), pre);
    return n.registry.publish(key, model);
  };

  // Nobody has the job: a pretrains once and publishes.
  const auto seeded = resolve_or_pretrain(a);
  ASSERT_TRUE(seeded.ok()) << seeded.error_text();
  EXPECT_TRUE(a.registry.fitted(seeded.value()));

  // b now resolves the SAME key with a pull — and a same-job other-context
  // key with a warm start.  No second pretrain anywhere.
  const auto pulled = resolve_or_pretrain(b);
  ASSERT_TRUE(pulled.ok()) << pulled.error_text();
  EXPECT_EQ(stamp_of_model(b, key), stamp_of_model(a, key));
  EXPECT_EQ(b.ex.stats().pulls_completed, 1u);

  const auto derived = b.ex.open_on_miss(serve::ModelKey{"kmeans", "ctx-1"});
  ASSERT_TRUE(derived.ok()) << derived.error_text();
  EXPECT_EQ(b.ex.stats().warm_starts, 1u);
}

TEST(Exchange, TypedErrorsForBadKeysAndEmptyMeshes) {
  Node lonely;
  EXPECT_EQ(lonely.ex.open_on_miss(serve::ModelKey{"", ""}).status(),
            serve::ServeStatus::kInvalidArgument);

  const auto miss = lonely.ex.open_on_miss(serve::ModelKey{"sgd", "nowhere"});
  EXPECT_EQ(miss.status(), serve::ServeStatus::kUnknownModel);
  EXPECT_NE(miss.message().find("no peers"), std::string::npos) << miss.message();

  const auto pull = lonely.ex.pull_model(serve::ModelKey{"sgd", "nowhere"});
  EXPECT_EQ(pull.status(), serve::ServeStatus::kUnknownModel);

  Fixture fx;
  Node peer;
  lonely.ex.add_peer(std::make_shared<LocalTransport>(peer.ex, "peer"));
  ASSERT_TRUE(peer.registry.publish(serve::ModelKey{"pagerank", "ctx"}, fx.pretrained(17)).ok());
  const auto wrong_job = lonely.ex.open_on_miss(serve::ModelKey{"sgd", "ctx"});
  EXPECT_EQ(wrong_job.status(), serve::ServeStatus::kUnknownModel);
  EXPECT_NE(wrong_job.message().find("peer(s)"), std::string::npos) << wrong_job.message();
}

TEST(Exchange, ErasedEntriesLeaveTheCatalog) {
  Fixture fx;
  Node a(quiet()), b(quiet());
  link(a, b);
  const serve::ModelKey key{"sgd", "transient"};
  ASSERT_TRUE(a.registry.publish(key, fx.pretrained(19)).ok());
  EXPECT_EQ(a.ex.stats().catalog_size, 1u);

  ASSERT_TRUE(a.registry.erase(a.registry.find(key).value()).ok());
  // The next digest self-heals the catalog: nothing advertised, pulls miss.
  EXPECT_TRUE(a.ex.digest_entries().empty());
  EXPECT_EQ(a.ex.pull_model(key).status(), serve::ServeStatus::kUnknownModel);
  EXPECT_EQ(b.ex.open_on_miss(key).status(), serve::ServeStatus::kUnknownModel);
}

}  // namespace
}  // namespace bellamy::exchange

#pragma once
// ExchangeRegistry: collaborative checkpoint exchange across registry nodes.
//
// The paper's claim is that performance models are reusable across contexts;
// this layer pushes that reuse across PROCESSES.  Each node wraps its local
// serve::ModelRegistry with a stamped catalog and a set of PeerTransports;
// a (job, context) first seen at node A then warm-starts at node B instead
// of pretraining from scratch:
//
//   open_on_miss(key)
//     1. local registry hit (fitted)            -> serve it
//     2. backing ModelStore hit                 -> open it
//     3. a peer advertises the EXACT key        -> pull + install, bit-
//        identical to the peer's model (checkpoint-as-text transport)
//     4. a peer has the SAME JOB, other context -> pull that base, install
//        it under its own key, then registry.derive(key): the classic
//        Bellamy warm start, sharing the pulled base checkpoint
//     5. nothing anywhere                       -> kUnknownModel (a caller
//        that can pretrain does so and publishes into the registry)
//
// FRESHNESS: every catalog row carries a Lamport-style stamp.  The node
// clock advances past every stamp it has seen (locally minted or observed
// on a peer), so "higher stamp" totally orders competing versions of a key
// and a refit always outranks the weights it replaced.
//
// ONE MUTATION PATH: the catalog stamps from the registry's own record of
// its weights (ModelRegistry::versions()).  Every digest, pull, advertise,
// install and read (stamp_of, pinned, stats) first absorbs that record: a
// row whose handle or weight version moved since it was stamped gets a
// fresh stamp, pinned iff the change was a refit.  So a publish or refit
// reaches the mesh the same way whether it came over the wire, from the
// console, from the drift monitor or from an in-process caller of the
// registry.
//
// ANTI-ENTROPY: each node owns one sync thread, started with the node.  It
// runs every digest-compare-pull round and every outbound advertise, so
// peer I/O never blocks a caller, never occupies a shared pool worker and
// never overlaps itself.  It sleeps on one condition variable and wakes for
// a requested round (a peer's advertise, sync_now()), a pending advertise
// of this node's own changes, the periodic tick once start_sync() has run,
// and stop(); requests filed while one is pending coalesce.
//
// CONFLICT RULE: highest stamp wins, with one carve-out — an entry this
// node REFIT locally is pinned and never clobbered by a remote pull.  The
// node that paid for a fine-tune on its own context's runs does not have
// its specialization silently replaced by gossip; peers still pull the
// refit weights FROM it (refits get fresh stamps and are advertised).  A
// later publish of the key replaces the weights wholesale and clears the pin.
//
// LOCK ORDER: exchange catalog mutex -> registry mutex -> entry mutex.
// Transport calls (peer I/O) are NEVER made while holding the catalog
// mutex; install_remote holds it across the catalog re-check plus the
// registry publish so a losing pull cannot clobber a winning one.  The
// advertise fast path is the registry's change observer: it only flags the
// sync thread and takes no catalog mutex, so it may fire under
// install_remote's hold without inverting the order.  The sync mutex is a
// leaf: never held across the catalog or registry locks or peer I/O.
// stop() clears the observer; once stop() returns no call to it is in
// flight.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "exchange/transport.hpp"
#include "net/server.hpp"
#include "serve/model_registry.hpp"
#include "serve/serve_result.hpp"
#include "util/circuit_breaker.hpp"

namespace bellamy::exchange {

struct ExchangeOptions {
  /// Period of the background anti-entropy loop started by start_sync().
  std::chrono::milliseconds sync_interval{500};
  /// Push an advertise at every peer right after any weight change in the
  /// local registry (cuts propagation latency to one one-way message; the
  /// periodic digest loop still catches anything missed).
  bool advertise_on_update = true;
  /// Per-peer circuit breaker: after `failure_threshold` consecutive
  /// transport failures a peer's circuit opens and every call to it is
  /// skipped (no wire traffic, no redial stalls) until a half-open probe
  /// succeeds after `cooldown`.  Anti-entropy stops hammering dead nodes.
  util::CircuitBreakerOptions breaker;
};

/// Per-peer health, reported in ExchangeStats::peers.
struct PeerStats {
  std::string name;
  const char* breaker_state = "closed";
  std::uint64_t failures = 0;   ///< transport failures observed
  std::uint64_t successes = 0;  ///< calls that reached a live peer
  std::uint64_t skips = 0;      ///< calls skipped while the circuit was open
  std::uint64_t trips = 0;      ///< closed/half-open -> open transitions
  std::uint64_t probes = 0;     ///< half-open probes admitted
};

/// Monotonic counters (stats()).
struct ExchangeStats {
  std::uint64_t pulls_served = 0;       ///< checkpoints handed to peers
  std::uint64_t pulls_completed = 0;    ///< checkpoints installed from peers
  std::uint64_t warm_starts = 0;        ///< derive() from a pulled base
  std::uint64_t sync_rounds = 0;        ///< anti-entropy rounds run
  std::uint64_t conflicts_skipped = 0;  ///< remote newer but locally pinned
  std::uint64_t catalog_size = 0;       ///< rows currently advertised
  std::uint64_t breaker_skips = 0;      ///< peer calls skipped: circuit open
  std::uint64_t peer_failures = 0;      ///< transport failures, all peers
  std::vector<PeerStats> peers;         ///< per-peer health snapshot
};

/// One node of the exchange mesh.  Implements net::PeerService, so the same
/// object answers the wire messages when handed to a ServeServer
/// (ServerOptions::peer_service) and direct calls from an in-process
/// transport.  Thread-safe throughout.  Publish and refit through the
/// registry itself; this node notices every weight change on its own.
class ExchangeRegistry final : public net::PeerService {
 public:
  /// `registry` must outlive this node, and carries at most one exchange
  /// node (it holds the node's change observer).
  explicit ExchangeRegistry(serve::ModelRegistry& registry, ExchangeOptions options = {});
  ~ExchangeRegistry() override;

  ExchangeRegistry(const ExchangeRegistry&) = delete;
  ExchangeRegistry& operator=(const ExchangeRegistry&) = delete;

  /// Add a peer this node will sync against.  Peers are contacted from the
  /// sync thread and from open_on_miss() callers; add before start_sync()
  /// or any time after (thread-safe).
  void add_peer(std::shared_ptr<PeerTransport> peer);
  std::size_t peer_count() const;

  // -- net::PeerService (the server-facing half) --

  std::vector<DigestEntry> digest_entries() override;
  serve::ServeResult<PulledCheckpoint> pull_model(const serve::ModelKey& key) override;
  void on_advertise(const std::vector<DigestEntry>& entries) override;
  /// The five-step resolution above.  Never pretrains.
  serve::ServeResult<serve::ModelHandle> open_on_miss(const serve::ModelKey& key) override;

  // -- anti-entropy control --

  /// Start the periodic background sync (no-op when already running).
  void start_sync();
  /// Request a digest-compare-pull round against every peer and wait until
  /// a round that began after this call has finished, or the node has
  /// stopped (deterministic convergence in tests; console `sync`).
  void sync_now();
  /// Clear the registry's change observer and join the sync thread once its
  /// current round or advertise ends; requests still pending are dropped.
  /// Idempotent; the destructor calls it.
  void stop();

  // -- introspection --

  // Each absorbs the registry first, so a resolved refit future implies a
  // read here sees the refit's stamp and pin.

  /// Catalog stamp for `key` (0 = not catalogued).
  std::uint64_t stamp_of(const serve::ModelKey& key);
  /// True when `key` was refit locally (protected from remote clobber).
  bool pinned(const serve::ModelKey& key);
  ExchangeStats stats();
  serve::ModelRegistry& registry() { return registry_; }

 private:
  struct CatalogEntry {
    std::uint64_t stamp = 0;
    bool pinned = false;  ///< locally refit; never overwritten by a pull
    /// The registry handle id and weight version this stamp covers.
    std::uint64_t handle = 0;
    std::uint64_t version = 0;
  };

  /// A transport plus its health: the breaker gates every call, the
  /// counters feed PeerStats.
  struct Peer {
    Peer(std::shared_ptr<PeerTransport> t, const util::CircuitBreakerOptions& breaker_options)
        : transport(std::move(t)), breaker(breaker_options) {}
    std::shared_ptr<PeerTransport> transport;
    util::CircuitBreaker breaker;
    std::atomic<std::uint64_t> failures{0};
    std::atomic<std::uint64_t> successes{0};
    std::atomic<std::uint64_t> skips{0};
  };

  /// Run one transport call through the peer's breaker: an open circuit is
  /// skipped without touching the wire; the outcome feeds the breaker
  /// (transport failures count against it, typed peer-side answers are
  /// proof of life and count as success).
  template <typename Fn>
  auto guarded(Peer& peer, Fn&& fn) -> decltype(fn()) {
    using Result = decltype(fn());
    if (!peer.breaker.allow()) {
      peer.skips.fetch_add(1);
      breaker_skips_.fetch_add(1);
      return Result::failure(serve::ServeStatus::kShutdown,
                             "peer " + peer.transport->name() + ": circuit open");
    }
    auto result = fn();
    if (!result.ok() && is_transport_failure(result.status())) {
      peer.failures.fetch_add(1);
      peer_failures_.fetch_add(1);
      peer.breaker.record_failure();
    } else {
      peer.successes.fetch_add(1);
      peer.breaker.record_success();
    }
    return result;
  }

  /// ++clock_ (callers hold mutex_).
  std::uint64_t next_stamp_locked();
  /// Bring the catalog up to the registry's record (see ONE MUTATION PATH
  /// above); rows whose key left the registry (erase) are dropped.  Callers
  /// hold mutex_.
  void absorb_registry_locked();
  /// Install a checkpoint pulled off a peer, unless the catalog already
  /// holds something as-new / pinned (the conflict rule).  Returns the
  /// key's handle either way.
  serve::ServeResult<serve::ModelHandle> install_remote(const serve::ModelKey& key,
                                                        std::uint64_t stamp,
                                                        const std::string& checkpoint_text);
  /// One digest-compare-pull round against every peer (sync thread only).
  void sync_once();
  /// Advertise the current catalog to every peer, best-effort (sync thread
  /// only).
  void advertise_once();
  /// Ask the sync thread for a round / an advertise (coalesced with one
  /// already pending; safe from reader threads and the change observer).
  void schedule_sync();
  void schedule_advertise();
  /// The sync thread's body.
  void sync_loop();
  std::vector<std::shared_ptr<Peer>> peers_snapshot() const;

  serve::ModelRegistry& registry_;
  ExchangeOptions options_;

  mutable std::mutex mutex_;  ///< guards catalog_, clock_, peers_
  std::map<serve::ModelKey, CatalogEntry> catalog_;
  std::uint64_t clock_ = 0;
  std::vector<std::shared_ptr<Peer>> peers_;

  std::atomic<std::uint64_t> pulls_served_{0};
  std::atomic<std::uint64_t> pulls_completed_{0};
  std::atomic<std::uint64_t> warm_starts_{0};
  std::atomic<std::uint64_t> conflicts_skipped_{0};
  std::atomic<std::uint64_t> breaker_skips_{0};
  std::atomic<std::uint64_t> peer_failures_{0};

  /// The sync thread's requests and progress.  sync_mutex_ is a leaf lock.
  std::mutex sync_mutex_;
  std::condition_variable sync_cv_;  ///< wakes the sync thread and sync_now()
  bool round_requested_ = false;
  bool advertise_requested_ = false;
  bool periodic_ = false;  ///< start_sync() ran: rounds also come at next_tick_
  std::chrono::steady_clock::time_point next_tick_;
  bool stopping_ = false;
  std::uint64_t rounds_begun_ = 0;
  std::uint64_t rounds_done_ = 0;
  std::thread sync_thread_;  ///< declared last: sync_loop() reads every member above
};

}  // namespace bellamy::exchange

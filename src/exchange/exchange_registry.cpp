#include "exchange/exchange_registry.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>
#include <utility>

#include "core/bellamy_model.hpp"
#include "nn/serialize.hpp"

namespace bellamy::exchange {

ExchangeRegistry::ExchangeRegistry(serve::ModelRegistry& registry, ExchangeOptions options)
    : registry_(registry), options_(options) {
  sync_thread_ = std::thread([this] { sync_loop(); });
  // The advertise fast path.  Flagging only: the observer may run under
  // install_remote's catalog hold, so it must never take mutex_ itself.
  if (options_.advertise_on_update) registry_.set_on_change([this] { schedule_advertise(); });
}

ExchangeRegistry::~ExchangeRegistry() { stop(); }

void ExchangeRegistry::add_peer(std::shared_ptr<PeerTransport> peer) {
  auto entry = std::make_shared<Peer>(std::move(peer), options_.breaker);
  std::lock_guard<std::mutex> lock(mutex_);
  peers_.push_back(std::move(entry));
}

std::size_t ExchangeRegistry::peer_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return peers_.size();
}

std::vector<std::shared_ptr<ExchangeRegistry::Peer>> ExchangeRegistry::peers_snapshot()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return peers_;
}

std::uint64_t ExchangeRegistry::next_stamp_locked() { return ++clock_; }

void ExchangeRegistry::absorb_registry_locked() {
  // Rows follow the registry's fitted entries — erased keys drop out, which
  // is exactly the set a pull can serve — and a row whose handle or weight
  // version moved since it was stamped gets a fresh stamp, pinned iff the
  // registry says the current weights came from a refit.  A new handle
  // (erase then re-publish) counts as moved even at an equal version.
  std::map<serve::ModelKey, CatalogEntry> absorbed;
  for (const serve::WeightVersion& live : registry_.versions()) {
    const auto it = catalog_.find(live.key);
    const bool moved = it == catalog_.end() || it->second.handle != live.handle.id() ||
                       it->second.version != live.version;
    absorbed.emplace_hint(absorbed.end(), live.key,
                          moved ? CatalogEntry{next_stamp_locked(), live.refit,
                                               live.handle.id(), live.version}
                                : it->second);
  }
  catalog_ = std::move(absorbed);
}

// ---------------------------------------------------------------------------
// net::PeerService
// ---------------------------------------------------------------------------

serve::ServeResult<serve::ModelHandle> ExchangeRegistry::open_on_miss(
    const serve::ModelKey& key) {
  if (key.job.empty() || key.context.empty()) {
    return serve::ServeResult<serve::ModelHandle>::failure(
        serve::ServeStatus::kInvalidArgument,
        "open '" + key.str() + "': model key needs a job and a context");
  }

  // 1. Local registry hit.
  if (auto found = registry_.find(key); found.ok() && registry_.fitted(found.value())) {
    return found;
  }

  // 2. Backing store hit.  A store that EXISTS but failed is an error, not a
  // miss; kInvalidArgument (storeless registry) and kUnknownModel go on.
  auto opened = registry_.open(key);
  if (opened.ok() || opened.status() == serve::ServeStatus::kStoreError) return opened;

  // 3 + 4. Ask every peer what it has.  Transport I/O happens with no lock
  // held; stamps we observe advance the clock afterwards.  Peers behind an
  // open breaker are skipped outright, and a peer that TIMED OUT is
  // remembered: a miss caused by a silent peer is reported as kTimeout, not
  // as "nobody has it".
  struct Candidate {
    std::shared_ptr<Peer> peer;
    DigestEntry entry;
  };
  std::vector<Candidate> exact;
  std::vector<Candidate> same_job;
  bool peer_timed_out = false;
  const auto peers = peers_snapshot();
  for (const auto& peer : peers) {
    auto digest = guarded(*peer, [&] { return peer->transport->digest(); });
    if (!digest.ok()) {
      if (digest.status() == serve::ServeStatus::kTimeout) peer_timed_out = true;
      continue;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    for (DigestEntry& entry : digest.value()) {
      clock_ = std::max(clock_, entry.stamp);
      if (entry.key == key) {
        exact.push_back(Candidate{peer, std::move(entry)});
      } else if (entry.key.job == key.job) {
        same_job.push_back(Candidate{peer, std::move(entry)});
      }
    }
  }
  const auto by_stamp_desc = [](const Candidate& a, const Candidate& b) {
    return a.entry.stamp > b.entry.stamp;
  };
  std::stable_sort(exact.begin(), exact.end(), by_stamp_desc);
  std::stable_sort(same_job.begin(), same_job.end(), by_stamp_desc);

  // 3. Exact key on a peer: pull it, freshest advertiser first.
  for (const Candidate& candidate : exact) {
    auto pulled = guarded(*candidate.peer, [&] { return candidate.peer->transport->pull(key); });
    if (!pulled.ok()) {  // peer raced an erase / went away: try the next
      if (pulled.status() == serve::ServeStatus::kTimeout) peer_timed_out = true;
      continue;
    }
    auto installed =
        install_remote(key, pulled.value().stamp, pulled.value().checkpoint_text);
    if (installed.ok()) return installed;
  }

  // 4. Same job, other context: the Bellamy warm start.  Install the peer's
  // model under ITS key, then derive `key` from it — the derived entry
  // shares the pulled base checkpoint, exactly like a local derive(), and is
  // a fresh local version of its own.
  for (const Candidate& candidate : same_job) {
    auto pulled = guarded(*candidate.peer,
                          [&] { return candidate.peer->transport->pull(candidate.entry.key); });
    if (!pulled.ok()) {
      if (pulled.status() == serve::ServeStatus::kTimeout) peer_timed_out = true;
      continue;
    }
    auto base = install_remote(candidate.entry.key, pulled.value().stamp,
                               pulled.value().checkpoint_text);
    if (!base.ok()) continue;
    auto derived = registry_.derive(base.value(), key);
    if (!derived.ok()) {
      // Someone registered the key concurrently; their entry wins.
      if (auto found = registry_.find(key); found.ok()) return found;
      continue;
    }
    warm_starts_.fetch_add(1);
    return derived;
  }

  // 5. Nothing anywhere.  A silent peer is NOT proof of absence: when any
  // peer timed out and nothing was found, the caller gets the typed
  // timeout (it may retry; a kUnknownModel would read as authoritative).
  if (peer_timed_out) {
    return serve::ServeResult<serve::ModelHandle>::failure(
        serve::ServeStatus::kTimeout,
        "open '" + key.str() + "': not local, not stored, and a peer deadline "
        "elapsed before it answered");
  }
  std::string detail = peers.empty() ? "and this node has no peers"
                                     : "and none of " + std::to_string(peers.size()) +
                                           " peer(s) has job '" + key.job + "'";
  return serve::ServeResult<serve::ModelHandle>::failure(
      serve::ServeStatus::kUnknownModel,
      "open '" + key.str() + "': not local, not stored, " + detail);
}

std::vector<DigestEntry> ExchangeRegistry::digest_entries() {
  std::lock_guard<std::mutex> lock(mutex_);
  absorb_registry_locked();
  std::vector<DigestEntry> out;
  out.reserve(catalog_.size());
  for (const auto& [key, row] : catalog_) out.push_back(DigestEntry{key, row.stamp});
  return out;
}

serve::ServeResult<PulledCheckpoint> ExchangeRegistry::pull_model(const serve::ModelKey& key) {
  std::uint64_t stamp = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    absorb_registry_locked();
    const auto it = catalog_.find(key);
    if (it == catalog_.end()) {
      return serve::ServeResult<PulledCheckpoint>::failure(
          serve::ServeStatus::kUnknownModel,
          "pull '" + key.str() + "': not in this node's catalog");
    }
    stamp = it->second.stamp;
  }
  // Serialize OUTSIDE the catalog lock.  The text may be newer than the
  // stamp if a swap lands in between — harmless: the next digest round
  // re-advertises the newer stamp and peers re-pull.
  const auto handle = registry_.find(key);
  if (!handle.ok()) {
    return serve::ServeResult<PulledCheckpoint>::failure(handle.status(), handle.message());
  }
  auto text = registry_.checkpoint_text(handle.value());
  if (!text.ok()) {
    return serve::ServeResult<PulledCheckpoint>::failure(text.status(), text.message());
  }
  pulls_served_.fetch_add(1);
  PulledCheckpoint pulled;
  pulled.stamp = stamp;
  pulled.checkpoint_text = text.take();
  return pulled;
}

void ExchangeRegistry::on_advertise(const std::vector<DigestEntry>& entries) {
  bool interesting = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    absorb_registry_locked();
    for (const DigestEntry& entry : entries) {
      clock_ = std::max(clock_, entry.stamp);
      const auto it = catalog_.find(entry.key);
      if (it == catalog_.end() ||
          (!it->second.pinned && entry.stamp > it->second.stamp)) {
        interesting = true;
      }
    }
  }
  // Schedule (not run) a sync round: this is called from a server reader
  // thread, which must never park on peer I/O for gossip.
  if (interesting) schedule_sync();
}

// ---------------------------------------------------------------------------
// Anti-entropy
// ---------------------------------------------------------------------------

serve::ServeResult<serve::ModelHandle> ExchangeRegistry::install_remote(
    const serve::ModelKey& key, std::uint64_t stamp, const std::string& checkpoint_text) {
  // Parse outside the lock: a slow (or hostile) checkpoint must not tie up
  // the catalog.
  std::optional<core::BellamyModel> model;
  try {
    std::istringstream in(checkpoint_text);
    const nn::Checkpoint ckpt = nn::Checkpoint::load(in);
    model.emplace(core::BellamyModel::from_checkpoint(ckpt));
  } catch (const std::exception& e) {
    return serve::ServeResult<serve::ModelHandle>::failure(
        serve::ServeStatus::kInvalidArgument,
        "install '" + key.str() + "': bad checkpoint from peer: " + e.what());
  }

  // Catalog re-check and registry publish under ONE hold of the catalog
  // mutex (lock order: exchange -> registry -> entry), so two concurrent
  // pulls — or a pull racing a local refit's stamp — resolve by the
  // conflict rule instead of last-writer-wins.
  std::lock_guard<std::mutex> lock(mutex_);
  absorb_registry_locked();
  const auto it = catalog_.find(key);
  if (it != catalog_.end() && (it->second.pinned || it->second.stamp >= stamp)) {
    if (it->second.pinned && stamp > it->second.stamp) conflicts_skipped_.fetch_add(1);
    return registry_.find(key);  // the local version stands
  }
  std::uint64_t version = 0;
  auto published = registry_.publish(key, *model, &version);
  if (!published.ok()) return published;
  clock_ = std::max(clock_, stamp);
  // The version THIS publish produced: a wire publish landing right after
  // it moves the version again and so gets a fresh stamp of its own.
  catalog_[key] = CatalogEntry{stamp, false, published.value().id(), version};
  pulls_completed_.fetch_add(1);
  return published;
}

void ExchangeRegistry::sync_once() {
  for (const auto& peer : peers_snapshot()) {
    auto digest = guarded(*peer, [&] { return peer->transport->digest(); });
    if (!digest.ok()) continue;  // unreachable / circuit open: next round retries

    std::vector<DigestEntry> wants;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      absorb_registry_locked();
      for (const DigestEntry& entry : digest.value()) {
        clock_ = std::max(clock_, entry.stamp);
        const auto it = catalog_.find(entry.key);
        if (it == catalog_.end()) {
          wants.push_back(entry);
        } else if (entry.stamp > it->second.stamp) {
          if (it->second.pinned) {
            conflicts_skipped_.fetch_add(1);  // the refit this node paid for stands
          } else {
            wants.push_back(entry);
          }
        }
      }
    }
    for (const DigestEntry& want : wants) {
      auto pulled = guarded(*peer, [&] { return peer->transport->pull(want.key); });
      if (!pulled.ok()) continue;
      (void)install_remote(want.key, pulled.value().stamp, pulled.value().checkpoint_text);
    }
  }
}

void ExchangeRegistry::advertise_once() {
  const std::vector<DigestEntry> entries = digest_entries();
  for (const auto& peer : peers_snapshot()) {
    // Best-effort; digests catch stragglers, open circuits are skipped.
    (void)guarded(*peer, [&] { return peer->transport->advertise(entries); });
  }
}

// Both notify under the lock: they run on other threads (server readers, a
// peer's sync thread through an in-process transport, the registry's
// observer), and once such a caller lets go of the lock, stop() may finish
// and the node, its condition variable included, may be destroyed.
void ExchangeRegistry::schedule_sync() {
  std::lock_guard<std::mutex> lock(sync_mutex_);
  round_requested_ = true;
  sync_cv_.notify_all();
}

void ExchangeRegistry::schedule_advertise() {
  std::lock_guard<std::mutex> lock(sync_mutex_);
  advertise_requested_ = true;
  sync_cv_.notify_all();
}

void ExchangeRegistry::sync_loop() {
  std::unique_lock<std::mutex> lock(sync_mutex_);
  while (!stopping_) {
    if (advertise_requested_) {
      advertise_requested_ = false;
      lock.unlock();
      advertise_once();
      lock.lock();
      continue;
    }
    const auto now = std::chrono::steady_clock::now();
    if (round_requested_ || (periodic_ && now >= next_tick_)) {
      round_requested_ = false;
      if (periodic_) next_tick_ = now + options_.sync_interval;
      ++rounds_begun_;
      lock.unlock();
      sync_once();
      lock.lock();
      ++rounds_done_;
      sync_cv_.notify_all();  // sync_now() callers
      continue;
    }
    if (periodic_) {
      sync_cv_.wait_until(lock, next_tick_);
    } else {
      sync_cv_.wait(lock);
    }
  }
}

void ExchangeRegistry::start_sync() {
  {
    std::lock_guard<std::mutex> lock(sync_mutex_);
    if (periodic_) return;
    periodic_ = true;
    next_tick_ = std::chrono::steady_clock::now() + options_.sync_interval;
  }
  sync_cv_.notify_all();
}

void ExchangeRegistry::sync_now() {
  std::unique_lock<std::mutex> lock(sync_mutex_);
  const std::uint64_t round = rounds_begun_ + 1;  // the next round to begin
  round_requested_ = true;
  sync_cv_.notify_all();
  sync_cv_.wait(lock, [&] { return stopping_ || rounds_done_ >= round; });
}

void ExchangeRegistry::stop() {
  // Returns once no observer call is in flight: nothing flags the sync
  // thread after this.
  if (options_.advertise_on_update) registry_.set_on_change(nullptr);
  {
    std::lock_guard<std::mutex> lock(sync_mutex_);
    stopping_ = true;
  }
  sync_cv_.notify_all();
  if (sync_thread_.joinable()) sync_thread_.join();
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

std::uint64_t ExchangeRegistry::stamp_of(const serve::ModelKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  absorb_registry_locked();
  const auto it = catalog_.find(key);
  return it == catalog_.end() ? 0 : it->second.stamp;
}

bool ExchangeRegistry::pinned(const serve::ModelKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  absorb_registry_locked();
  const auto it = catalog_.find(key);
  return it != catalog_.end() && it->second.pinned;
}

ExchangeStats ExchangeRegistry::stats() {
  ExchangeStats s;
  s.pulls_served = pulls_served_.load();
  s.pulls_completed = pulls_completed_.load();
  s.warm_starts = warm_starts_.load();
  {
    std::lock_guard<std::mutex> lock(sync_mutex_);
    s.sync_rounds = rounds_begun_;
  }
  s.conflicts_skipped = conflicts_skipped_.load();
  s.breaker_skips = breaker_skips_.load();
  s.peer_failures = peer_failures_.load();
  for (const auto& peer : peers_snapshot()) {
    PeerStats p;
    p.name = peer->transport->name();
    p.breaker_state = util::to_string(peer->breaker.state());
    p.failures = peer->failures.load();
    p.successes = peer->successes.load();
    p.skips = peer->skips.load();
    const auto counters = peer->breaker.counters();
    p.trips = counters.trips;
    p.probes = counters.probes;
    s.peers.push_back(std::move(p));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  absorb_registry_locked();
  s.catalog_size = catalog_.size();
  return s;
}

}  // namespace bellamy::exchange

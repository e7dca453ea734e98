#pragma once
// ModelRegistry: the serve layer's model directory, layered over
// core::ModelStore.
//
// The paper's deployment story is a shared, always-on service keyed by
// (job, context): providers publish pre-trained per-algorithm models once,
// consumers open them, fine-tune on their own few runs, and query.  The
// registry gives that shape a stable in-process identity:
//
//   * publish(key, model)  — install a fitted model; publishing to an
//     existing key hot-swaps the weights behind the SAME handle.
//   * open(key)            — materialize a model from the backing ModelStore
//     (job -> algorithm, context -> tag).  Checkpoints loaded from the same
//     stored file are shared, not re-read.
//   * derive(handle, key)  — a new handle for a new context that SHARES the
//     base checkpoint of an existing one (direct reuse until refit).
//   * refit(handle, runs)  — fine-tune a fresh copy of the base checkpoint
//     off to the side and swap it in atomically.  The entry holds its model
//     as a shared_ptr to an immutable BellamyModel: readers copy the pointer
//     and predict outside the entry mutex, a swap installs a fresh pointer,
//     and an in-flight micro-batch keeps the old weights alive until it
//     finishes while the next one serves the new ones.
//   * refit_async(...)     — the same recipe, scheduled on the global
//     ThreadPool instead of the caller's thread.  One Strand per entry
//     serializes refits of the SAME handle; refits of different handles run
//     in parallel; a request arriving while one is still QUEUED replaces its
//     payload and shares its future (duplicate-coalescing).  The caller —
//     and serving — never block on the fine-tune.
//
// Handles stay valid across hot-swaps and refits; erase() retires one.
// All operations are thread-safe.

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/bellamy_model.hpp"
#include "core/model_store.hpp"
#include "core/trainer.hpp"
#include "core/variants.hpp"
#include "parallel/strand.hpp"
#include "reduce/reduction.hpp"
#include "serve/serve_result.hpp"

namespace bellamy::serve {

/// Identity of a served model: the dataflow job (algorithm) plus the context
/// tag it was trained or specialized for.
struct ModelKey {
  std::string job;
  std::string context;

  bool operator==(const ModelKey& other) const {
    return job == other.job && context == other.context;
  }
  bool operator<(const ModelKey& other) const {
    return job != other.job ? job < other.job : context < other.context;
  }
  std::string str() const { return job + "/" + context; }
};

/// Opaque, copyable reference to a registry entry.  Default-constructed
/// handles are invalid; handles stay stable across publish/refit hot-swaps.
class ModelHandle {
 public:
  ModelHandle() = default;
  std::uint64_t id() const { return id_; }
  explicit operator bool() const { return id_ != 0; }
  bool operator==(const ModelHandle& other) const { return id_ == other.id_; }

 private:
  friend class ModelRegistry;
  explicit ModelHandle(std::uint64_t id) : id_(id) {}
  std::uint64_t id_ = 0;
};

/// Completion hook of a background refit: invoked on the refit strand right
/// after the hot-swap (or the typed failure), carrying exactly what the
/// shared_future resolves with.  Lets a server push refit-done events over a
/// connection instead of parking a thread on the future.
using RefitCallback = std::function<void(const ServeResult<core::FineTuneResult>&)>;

namespace detail {

/// A queued background refit: the latest requested payload plus the promise
/// every coalesced caller shares and every coalesced caller's completion
/// callback (all fire with the shared result).
struct RefitJob {
  std::vector<data::JobRun> runs;
  core::FineTuneConfig config;
  core::ReuseStrategy strategy = core::ReuseStrategy::kPartialUnfreeze;
  std::shared_ptr<std::promise<ServeResult<core::FineTuneResult>>> promise;
  std::shared_future<ServeResult<core::FineTuneResult>> future;
  std::vector<RefitCallback> callbacks;
};

/// One served model.  `mutex` guards `base`, `model`, and the refit
/// bookkeeping (`pending_refit`, `refit_running`); readers (the
/// PredictionService, the DriftMonitor) hold it only to copy the `model`
/// pointer, never across a forward pass, and background refits hold it only
/// to pick up their job and to swap — never across the fine-tune itself.
/// The model behind the pointer is never mutated: publish, open, derive and
/// refit each install a fresh one.  `refit_strand` serializes this entry's
/// background refits on the process-wide ThreadPool; tasks capture the
/// entry's shared_ptr, so an erase()d entry finishes its in-flight refit
/// harmlessly off-registry.
/// The strand's ordering is its own (drainer chaining), not the pool's: the
/// drainer task may run on any worker or helper thread, and refits still
/// execute one at a time in post order.
struct RegistryEntry {
  ModelKey key;
  mutable std::mutex mutex;
  std::shared_ptr<const nn::Checkpoint> base;  ///< pretrained base for refits
  std::shared_ptr<const core::BellamyModel> model;  ///< current serveable weights
  std::optional<RefitJob> pending_refit;  ///< queued, not started (coalescing point)
  bool refit_running = false;             ///< a background refit is executing
  parallel::Strand refit_strand{parallel::ThreadPool::global()};

  /// Training-data reduction applied on the refit strand before finetune
  /// (seeded at entry creation from the registry default; see
  /// set_reduction()).  `last_reduction` / the counters record what refits
  /// actually dropped — all guarded by `mutex`.
  reduce::ReductionConfig reduction;
  reduce::ReductionReport last_reduction;
  std::uint64_t reductions = 0;    ///< refits that ran with an active policy
  std::uint64_t runs_dropped = 0;  ///< cumulative runs dropped across refits

  /// The current serving model (null until fitted), copied under `mutex`.
  /// Predict on the copy outside the mutex; it stays alive across a swap.
  std::shared_ptr<const core::BellamyModel> current_model() const {
    std::lock_guard<std::mutex> lock(mutex);
    return model;
  }
};

}  // namespace detail

class ModelRegistry {
 public:
  /// In-memory registry (publish/derive/refit only; open/persist need a store).
  ModelRegistry() = default;
  /// Store-backed registry: open() loads from and persist() saves to `store`.
  explicit ModelRegistry(std::shared_ptr<core::ModelStore> store);

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Install a fitted model under `key` (snapshot — the caller keeps its
  /// instance).  An existing key keeps its handle and hot-swaps its weights;
  /// the model's checkpoint becomes the entry's refit base.
  ServeResult<ModelHandle> publish(const ModelKey& key, const core::BellamyModel& model);

  /// Load the stored model for `key` from the backing store.  Re-opening a
  /// key returns its existing handle without touching the store.
  ServeResult<ModelHandle> open(const ModelKey& key);

  /// Pre-register `key` with no model yet (requests answer kNotFitted until
  /// a publish).  Useful to reserve routes before models arrive.
  ServeResult<ModelHandle> reserve(const ModelKey& key);

  /// New handle for `key` sharing `base`'s pretrained checkpoint (the
  /// checkpoint object itself, not a copy); starts as a direct-reuse model.
  ServeResult<ModelHandle> derive(const ModelHandle& base, const ModelKey& key);

  /// Handle registered for `key`, if any.
  ServeResult<ModelHandle> find(const ModelKey& key) const;

  /// Fine-tune a fresh copy of the entry's base checkpoint on `runs` under
  /// `strategy` and hot-swap it in.  Empty `runs` = direct reuse (reset to
  /// the base weights).  Serving continues on the old weights until the
  /// swap.  BLOCKS the caller for the full fine-tune; prefer refit_async()
  /// inside serving loops.  Fails with kConflict when a publish replaced the
  /// base checkpoint mid-fine-tune (retry against the new base if desired).
  ServeResult<core::FineTuneResult> refit(
      const ModelHandle& handle, const std::vector<data::JobRun>& runs,
      const core::FineTuneConfig& config,
      core::ReuseStrategy strategy = core::ReuseStrategy::kPartialUnfreeze);

  /// Queue the same refit as a background job on the process-wide
  /// parallel::ThreadPool and return immediately; the shared_future resolves
  /// with exactly what refit() would have returned (same recipe, bit-
  /// identical weights, same kConflict stamp check).  Serving continues on
  /// the old weights until the atomic swap.
  ///
  /// Scheduling: refits of the same handle are serialized in request order
  /// (per-entry Strand); refits of different handles run concurrently.
  /// DUPLICATE-COALESCING: while a job is still queued (not yet started), a
  /// new refit_async() on the same handle replaces the queued payload and
  /// returns the SAME future — both callers observe the result of the
  /// latest request.  A job already running is never disturbed; the new
  /// request queues behind it.
  ///
  /// COMPLETION NOTIFICATION: pass `on_complete` to be called on the refit
  /// strand right after the swap (or the typed failure) with the same
  /// ServeResult the future resolves with — no thread has to poll the
  /// shared_future.  Every coalesced caller's callback fires (all with the
  /// shared result of the latest payload); callbacks of an unknown handle
  /// fire inline before this returns.  A callback must not block on the
  /// returned future (it resolves before the callbacks run) and should not
  /// do long work — it executes on the strand, delaying the handle's next
  /// queued refit.
  std::shared_future<ServeResult<core::FineTuneResult>> refit_async(
      const ModelHandle& handle, std::vector<data::JobRun> runs,
      const core::FineTuneConfig& config,
      core::ReuseStrategy strategy = core::ReuseStrategy::kPartialUnfreeze,
      RefitCallback on_complete = nullptr);

  /// True while the handle has a background refit queued or running.
  bool refit_pending(const ModelHandle& handle) const noexcept;

  /// Install the training-data reduction applied before every subsequent
  /// refit of this handle (refit and refit_async alike, on the refit
  /// strand): the run history is mapped to a coreset of at most
  /// `config.budget` runs by the seeded policy, loss-aware scoring against
  /// the fresh base copy, BEFORE finetune sees it.  An inactive config
  /// (kNone or budget 0) restores full-history refits.
  ServeResult<Unit> set_reduction(const ModelHandle& handle,
                                  const reduce::ReductionConfig& config);
  /// The handle's current reduction config (default-constructed when the
  /// handle is unknown).
  reduce::ReductionConfig reduction(const ModelHandle& handle) const noexcept;
  /// What the handle's LAST reduced refit dropped (kept_runs == 0 until an
  /// active-policy refit swaps in).
  reduce::ReductionReport last_reduction(const ModelHandle& handle) const noexcept;
  /// Cumulative {reduced refits, runs dropped} of the handle.
  std::pair<std::uint64_t, std::uint64_t> reduction_counters(
      const ModelHandle& handle) const noexcept;

  /// Reduction config seeded into every FUTURE entry (publish/open/reserve/
  /// derive); existing entries keep theirs.  What `bellamy_serverd
  /// --refit-budget/--refit-policy` installs before any model arrives.
  void set_default_reduction(const reduce::ReductionConfig& config);
  reduce::ReductionConfig default_reduction() const;

  /// Save the entry's current weights to the backing store under its key.
  ServeResult<Unit> persist(const ModelHandle& handle);

  /// Opt-in: persist every successful background-refit swap to the backing
  /// store, on the refit strand, right after the swap.  Without this a
  /// store-backed entry goes silently stale — the swap never reaches disk,
  /// so a restart serves pre-refit weights.  A persist failure surfaces as
  /// kStoreError in the refit's shared result (the swap itself has already
  /// landed and is NEVER rolled back or blocked); enabling this on a
  /// registry with no backing store reports the same way.  Off by default.
  void set_auto_persist(bool enabled) noexcept;
  bool auto_persist() const noexcept;

  /// The entry's CURRENT serving weights serialized as nn::Checkpoint text
  /// (the ModelStore on-disk format, hex-float exact) — what a peer pulling
  /// this model over the exchange layer receives.  Copies the model pointer
  /// under the entry mutex and serializes outside it.
  ServeResult<std::string> checkpoint_text(const ModelHandle& handle) const;

  /// Retire a handle: subsequent resolves (and service requests) fail with
  /// kUnknownModel.  Micro-batches already executing finish their batch.
  ServeResult<Unit> erase(const ModelHandle& handle);

  /// Introspection without catch-as-control-flow: unknown handles and
  /// unfitted entries report false / 0 instead of throwing.
  bool fitted(const ModelHandle& handle) const noexcept;
  std::uint64_t state_stamp(const ModelHandle& handle) const noexcept;

  /// The entry's shared pretrained checkpoint (null when reserve()d).
  /// Exposed so tests can certify checkpoint sharing across handles.
  std::shared_ptr<const nn::Checkpoint> base_checkpoint(const ModelHandle& handle) const;

  /// All registered keys, sorted.
  std::vector<ModelKey> keys() const;
  std::size_t size() const;

  /// Entry lookup for the PredictionService (null when unknown/erased).
  std::shared_ptr<detail::RegistryEntry> resolve(const ModelHandle& handle) const;
  /// Same, by raw handle id (the service queues ids, not handles).
  std::shared_ptr<detail::RegistryEntry> resolve_id(std::uint64_t id) const;

 private:
  /// Insert-or-get the entry for `key`; returns its handle.
  std::pair<ModelHandle, std::shared_ptr<detail::RegistryEntry>> entry_for_key_locked(
      const ModelKey& key);

  mutable std::mutex mutex_;
  std::shared_ptr<core::ModelStore> store_;
  /// Shared with in-flight refit tasks: they capture the flag (and the
  /// store) by value because a strand task may outlive the registry itself.
  std::shared_ptr<std::atomic<bool>> auto_persist_ =
      std::make_shared<std::atomic<bool>>(false);
  std::uint64_t next_id_ = 1;
  reduce::ReductionConfig default_reduction_;  ///< copied into new entries
  std::map<std::uint64_t, std::shared_ptr<detail::RegistryEntry>> entries_;
  std::map<ModelKey, std::uint64_t> by_key_;
};

}  // namespace bellamy::serve

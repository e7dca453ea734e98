#include "serve/model_registry.hpp"

#include <sstream>
#include <utility>

#include "parallel/thread_pool.hpp"
#include "util/timer.hpp"

namespace bellamy::serve {

namespace {

ServeResult<ModelHandle> validate_key(const ModelKey& key) {
  if (key.job.empty() || key.context.empty()) {
    return ServeResult<ModelHandle>::failure(
        ServeStatus::kInvalidArgument, "model key needs a job and a context, got '" +
                                           key.str() + "'");
  }
  return ModelHandle{};
}

/// The refit recipe shared by refit() and refit_async(): fine-tune a fresh
/// copy of the entry's CURRENT base checkpoint off to the side (no lock held
/// across the fine-tune — serving and other registry operations proceed),
/// then swap atomically under the entry mutex.  kConflict when a publish
/// replaced the base mid-fine-tune: swapping in weights derived from the OLD
/// base would leave base and served model disagreeing for every later
/// refit/derive.  A landed swap bumps the weight version and notifies
/// `on_change`.
ServeResult<core::FineTuneResult> run_refit(
    const std::shared_ptr<detail::RegistryEntry>& entry,
    const std::vector<data::JobRun>& runs, const core::FineTuneConfig& config,
    core::ReuseStrategy strategy, detail::ChangeHook& on_change) {
  std::shared_ptr<const nn::Checkpoint> base;
  {
    std::lock_guard<std::mutex> lock(entry->mutex);
    base = entry->base;
  }
  if (!base) {
    return ServeResult<core::FineTuneResult>::failure(
        ServeStatus::kNotFitted,
        "refit '" + entry->key.str() + "': no base checkpoint — publish or open first");
  }
  reduce::ReductionConfig reduction;
  {
    std::lock_guard<std::mutex> lock(entry->mutex);
    reduction = entry->reduction;
  }
  try {
    auto fresh = core::BellamyModel::from_checkpoint(*base);

    // Training-data reduction: map the full history to a bounded coreset
    // BEFORE the fine-tune.  Loss-aware scoring runs against the fresh base
    // copy while it still carries the published weights (the reuse strategy
    // may re-initialize components below).
    const std::vector<data::JobRun>* train = &runs;
    std::vector<data::JobRun> coreset;
    reduce::ReductionReport report;
    const bool reduced = reduction.active() && !runs.empty();
    if (reduced) {
      coreset = reduce::reduce_runs(runs, reduction, &fresh, &report);
      train = &coreset;
    }

    // The recipe BellamyPredictor::fit runs too, so a refit is bit-identical
    // to a pre-trained predictor's fit on the same (reduced) runs.
    util::Timer timer;
    core::FineTuneResult result = core::reuse_pretrained(fresh, *train, strategy, config);
    result.fit_seconds = timer.seconds();
    auto serving = std::make_shared<const core::BellamyModel>(std::move(fresh));

    {
      std::lock_guard<std::mutex> lock(entry->mutex);
      if (entry->base != base) {
        return ServeResult<core::FineTuneResult>::failure(
            ServeStatus::kConflict,
            "refit '" + entry->key.str() + "': base checkpoint changed during the fine-tune");
      }
      entry->model = std::move(serving);
      entry->version += 1;
      entry->refit = true;
      if (reduced) {
        entry->last_reduction = report;
        entry->reductions += 1;
        entry->runs_dropped += report.dropped_runs;
      }
    }
    on_change.notify();
    return result;
  } catch (const std::invalid_argument& e) {
    return ServeResult<core::FineTuneResult>::failure(
        ServeStatus::kInvalidArgument, "refit '" + entry->key.str() + "': " + e.what());
  } catch (const std::exception& e) {
    return ServeResult<core::FineTuneResult>::failure(
        ServeStatus::kInternalError, "refit '" + entry->key.str() + "': " + e.what());
  }
}

/// persist() body once the entry is resolved.  A free function (not a
/// member) because auto-persisting refit tasks call it after the registry
/// may already be gone — they capture the entry and the store by value.
ServeResult<Unit> persist_to_store(const std::shared_ptr<detail::RegistryEntry>& entry,
                                   const std::shared_ptr<core::ModelStore>& store) {
  if (!store) {
    return ServeResult<Unit>::failure(
        ServeStatus::kInvalidArgument,
        "persist '" + entry->key.str() + "': registry has no backing ModelStore");
  }
  std::lock_guard<std::mutex> lock(entry->mutex);
  if (!entry->model) {
    return ServeResult<Unit>::failure(
        ServeStatus::kNotFitted, "persist '" + entry->key.str() + "': no model to save");
  }
  try {
    store->save(*entry->model, entry->key.job, entry->key.context);
    return ok();
  } catch (const std::invalid_argument& e) {
    return ServeResult<Unit>::failure(ServeStatus::kInvalidArgument, e.what());
  } catch (const std::exception& e) {
    return ServeResult<Unit>::failure(ServeStatus::kStoreError, e.what());
  }
}

/// The drain task of one entry: take the job in its pending-refit slot, run
/// it, resolve its future and then its callbacks, and loop until the slot is
/// empty.  refit_async() starts at most one per entry (`refit_draining`), so
/// the handle's fine-tunes never overlap and a job filed meanwhile starts
/// only after the callbacks of the one before.  noexcept: an escaping
/// exception terminates rather than leave the entry owned by a task that is
/// gone (no later refit of the handle would ever run).
void drain_refits(const std::shared_ptr<detail::RegistryEntry>& entry,
                  const std::shared_ptr<core::ModelStore>& store,
                  const std::atomic<bool>& auto_persist, detail::ChangeHook& on_change) noexcept {
  for (;;) {
    detail::RefitJob job;
    {
      std::lock_guard<std::mutex> lock(entry->mutex);
      if (!entry->pending_refit) {
        entry->refit_draining = false;
        return;
      }
      job = std::move(*entry->pending_refit);
      entry->pending_refit.reset();
      entry->refit_running = true;
    }
    ServeResult<core::FineTuneResult> result =
        run_refit(entry, job.runs, job.config, job.strategy, on_change);
    if (result.ok() && auto_persist.load(std::memory_order_relaxed)) {
      // Mirror the swapped weights into the backing store so a restart
      // serves what refit produced, not the stale pre-refit checkpoint.  A
      // persist failure downgrades the shared result to kStoreError but the
      // swap above has already landed — serving is never rolled back.
      if (const ServeResult<Unit> persisted = persist_to_store(entry, store); !persisted.ok()) {
        result = ServeResult<core::FineTuneResult>::failure(
            ServeStatus::kStoreError, "refit '" + entry->key.str() +
                                          "': weights swapped, but auto-persist failed: " +
                                          persisted.error_text());
      }
    }
    {
      std::lock_guard<std::mutex> lock(entry->mutex);
      entry->refit_running = false;
    }
    // Future first (waiters unblock even if a callback throws), then every
    // coalesced caller's completion hook, after the swap is visible to
    // serving.
    job.promise->set_value(result);
    for (const RefitCallback& callback : job.callbacks) {
      try {
        callback(result);
      } catch (...) {
        // A notification hook must never take down the drain task (and with
        // it a pool worker); the result already reached the future.
      }
    }
  }
}

}  // namespace

ModelRegistry::ModelRegistry(std::shared_ptr<core::ModelStore> store)
    : store_(std::move(store)) {}

std::pair<ModelHandle, std::shared_ptr<detail::RegistryEntry>>
ModelRegistry::entry_for_key_locked(const ModelKey& key) {
  if (const auto it = by_key_.find(key); it != by_key_.end()) {
    return {ModelHandle(it->second), entries_.at(it->second)};
  }
  const std::uint64_t id = next_id_++;
  auto entry = std::make_shared<detail::RegistryEntry>();
  entry->key = key;
  entry->reduction = default_reduction_;
  entries_.emplace(id, entry);
  by_key_.emplace(key, id);
  return {ModelHandle(id), std::move(entry)};
}

ServeResult<ModelHandle> ModelRegistry::publish(const ModelKey& key,
                                                const core::BellamyModel& model,
                                                std::uint64_t* version) {
  if (auto bad = validate_key(key); !bad.ok()) return bad;
  try {
    // Snapshot the caller's model: the checkpoint becomes both the entry's
    // refit base and the source of the serveable copy, so base and serving
    // weights agree at publish time.
    auto ckpt = std::make_shared<const nn::Checkpoint>(model.to_checkpoint());
    auto serving =
        std::make_shared<const core::BellamyModel>(core::BellamyModel::from_checkpoint(*ckpt));

    ModelHandle handle;
    std::shared_ptr<detail::RegistryEntry> entry;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      std::tie(handle, entry) = entry_for_key_locked(key);
    }
    {
      std::lock_guard<std::mutex> entry_lock(entry->mutex);
      entry->base = std::move(ckpt);
      entry->model = std::move(serving);
      entry->version += 1;
      entry->refit = false;
      if (version != nullptr) *version = entry->version;
    }
    on_change_->notify();
    return handle;
  } catch (const std::exception& e) {
    return ServeResult<ModelHandle>::failure(
        ServeStatus::kInternalError, "publish '" + key.str() + "': " + e.what());
  }
}

ServeResult<ModelHandle> ModelRegistry::open(const ModelKey& key) {
  if (auto bad = validate_key(key); !bad.ok()) return bad;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = by_key_.find(key); it != by_key_.end()) {
      const auto& entry = entries_.at(it->second);
      std::lock_guard<std::mutex> entry_lock(entry->mutex);
      if (entry->model) {
        return ModelHandle(it->second);  // already materialized; share it
      }
      // No model yet (a racing publish or open is still filling the
      // entry): fall through and materialize it from the store.
    }
  }
  if (!store_) {
    return ServeResult<ModelHandle>::failure(
        ServeStatus::kInvalidArgument,
        "open '" + key.str() + "': registry has no backing ModelStore");
  }
  try {
    if (!store_->contains(key.job, key.context)) {
      return ServeResult<ModelHandle>::failure(
          ServeStatus::kUnknownModel, "open '" + key.str() + "': nothing stored at " +
                                          store_->path_for(key.job, key.context));
    }
    auto ckpt = std::make_shared<const nn::Checkpoint>(
        store_->load_checkpoint(key.job, key.context));
    auto serving =
        std::make_shared<const core::BellamyModel>(core::BellamyModel::from_checkpoint(*ckpt));

    ModelHandle handle;
    std::shared_ptr<detail::RegistryEntry> entry;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      std::tie(handle, entry) = entry_for_key_locked(key);
    }
    bool materialized = false;
    {
      std::lock_guard<std::mutex> entry_lock(entry->mutex);
      if (!entry->model) {  // lost a publish/open race: keep the winner's state
        entry->base = std::move(ckpt);
        entry->model = std::move(serving);
        entry->version += 1;
        entry->refit = false;
        materialized = true;
      }
    }
    if (materialized) on_change_->notify();
    return handle;
  } catch (const std::invalid_argument& e) {
    return ServeResult<ModelHandle>::failure(ServeStatus::kInvalidArgument, e.what());
  } catch (const std::exception& e) {
    return ServeResult<ModelHandle>::failure(ServeStatus::kStoreError,
                                             "open '" + key.str() + "': " + e.what());
  }
}

ServeResult<ModelHandle> ModelRegistry::derive(const ModelHandle& base, const ModelKey& key) {
  if (auto bad = validate_key(key); !bad.ok()) return bad;
  const auto source = resolve(base);
  if (!source) {
    return ServeResult<ModelHandle>::failure(ServeStatus::kUnknownModel,
                                             "derive: unknown base handle");
  }
  std::shared_ptr<const nn::Checkpoint> ckpt;
  {
    std::lock_guard<std::mutex> lock(source->mutex);
    ckpt = source->base;
  }
  if (!ckpt) {
    return ServeResult<ModelHandle>::failure(
        ServeStatus::kNotFitted,
        "derive from '" + source->key.str() + "': base handle has no checkpoint yet");
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (by_key_.count(key)) {  // fast-fail before the checkpoint materialization
      return ServeResult<ModelHandle>::failure(
          ServeStatus::kInvalidArgument, "derive: key '" + key.str() + "' already registered");
    }
  }
  try {
    // Build the entry fully populated BEFORE it becomes visible, then insert
    // or reject under one lock — a publish or open racing onto the same key
    // must never be clobbered silently.
    auto entry = std::make_shared<detail::RegistryEntry>();
    entry->key = key;
    entry->model =
        std::make_shared<const core::BellamyModel>(core::BellamyModel::from_checkpoint(*ckpt));
    entry->version = 1;
    entry->base = std::move(ckpt);  // the SAME checkpoint object as the base handle

    std::uint64_t id = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      entry->reduction = default_reduction_;
      if (by_key_.count(key)) {
        return ServeResult<ModelHandle>::failure(
            ServeStatus::kConflict,
            "derive: key '" + key.str() + "' was registered concurrently");
      }
      id = next_id_++;
      entries_.emplace(id, std::move(entry));
      by_key_.emplace(key, id);
    }
    on_change_->notify();
    return ModelHandle(id);
  } catch (const std::exception& e) {
    return ServeResult<ModelHandle>::failure(
        ServeStatus::kInternalError, "derive '" + key.str() + "': " + e.what());
  }
}

ServeResult<ModelHandle> ModelRegistry::find(const ModelKey& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = by_key_.find(key); it != by_key_.end()) return ModelHandle(it->second);
  return ServeResult<ModelHandle>::failure(ServeStatus::kUnknownModel,
                                           "no model registered for '" + key.str() + "'");
}

ServeResult<core::FineTuneResult> ModelRegistry::refit(const ModelHandle& handle,
                                                       const std::vector<data::JobRun>& runs,
                                                       const core::FineTuneConfig& config,
                                                       core::ReuseStrategy strategy) {
  const auto entry = resolve(handle);
  if (!entry) {
    return ServeResult<core::FineTuneResult>::failure(ServeStatus::kUnknownModel,
                                                      "refit: unknown handle");
  }
  return run_refit(entry, runs, config, strategy, *on_change_);
}

std::shared_future<ServeResult<core::FineTuneResult>> ModelRegistry::refit_async(
    const ModelHandle& handle, std::vector<data::JobRun> runs,
    const core::FineTuneConfig& config, core::ReuseStrategy strategy,
    RefitCallback on_complete) {
  const auto entry = resolve(handle);
  if (!entry) {
    std::promise<ServeResult<core::FineTuneResult>> failed;
    failed.set_value(ServeResult<core::FineTuneResult>::failure(
        ServeStatus::kUnknownModel, "refit_async: unknown handle"));
    auto future = failed.get_future().share();
    if (on_complete) on_complete(future.get());  // inline: there is no entry to drain
    return future;
  }

  std::shared_future<ServeResult<core::FineTuneResult>> future;
  bool start_drain = false;
  {
    std::lock_guard<std::mutex> lock(entry->mutex);
    if (entry->pending_refit) {
      // Coalesce: the queued job has not started, so replace its payload and
      // share its future — every caller observes the LATEST request's result
      // and only one fine-tune runs.  The new caller's callback JOINS the
      // queued job's callbacks; all fire with the shared result.
      entry->pending_refit->runs = std::move(runs);
      entry->pending_refit->config = config;
      entry->pending_refit->strategy = strategy;
      if (on_complete) entry->pending_refit->callbacks.push_back(std::move(on_complete));
      return entry->pending_refit->future;
    }
    detail::RefitJob job;
    job.runs = std::move(runs);
    job.config = config;
    job.strategy = strategy;
    job.promise =
        std::make_shared<std::promise<ServeResult<core::FineTuneResult>>>();
    job.future = job.promise->get_future().share();
    if (on_complete) job.callbacks.push_back(std::move(on_complete));
    future = job.future;
    entry->pending_refit = std::move(job);
    start_drain = !entry->refit_draining;
    entry->refit_draining = true;
  }
  // A drain task already owning the entry picks the job up when its current
  // one is done.  Otherwise submit one: it owns the entry's shared_ptr (plus
  // the store, the auto-persist flag and the change observer), so it
  // survives erase() and registry teardown.
  if (start_drain) {
    parallel::ThreadPool::global().submit(
        [entry, store = store_, auto_persist = auto_persist_, on_change = on_change_] {
          drain_refits(entry, store, *auto_persist, *on_change);
        });
  }
  return future;
}

bool ModelRegistry::refit_pending(const ModelHandle& handle) const noexcept {
  try {
    const auto entry = resolve(handle);
    if (!entry) return false;
    std::lock_guard<std::mutex> lock(entry->mutex);
    return entry->pending_refit.has_value() || entry->refit_running;
  } catch (...) {
    return false;  // a throwing lock must not escalate to std::terminate
  }
}

reduce::ReductionReport ModelRegistry::last_reduction(
    const ModelHandle& handle) const noexcept {
  try {
    const auto entry = resolve(handle);
    if (!entry) return {};
    std::lock_guard<std::mutex> lock(entry->mutex);
    return entry->last_reduction;
  } catch (...) {
    return {};
  }
}

std::pair<std::uint64_t, std::uint64_t> ModelRegistry::reduction_counters(
    const ModelHandle& handle) const noexcept {
  try {
    const auto entry = resolve(handle);
    if (!entry) return {0, 0};
    std::lock_guard<std::mutex> lock(entry->mutex);
    return {entry->reductions, entry->runs_dropped};
  } catch (...) {
    return {0, 0};
  }
}

void ModelRegistry::set_default_reduction(const reduce::ReductionConfig& config) {
  std::lock_guard<std::mutex> lock(mutex_);
  default_reduction_ = config;
}

ServeResult<Unit> ModelRegistry::persist(const ModelHandle& handle) {
  const auto entry = resolve(handle);
  if (!entry) {
    return ServeResult<Unit>::failure(ServeStatus::kUnknownModel, "persist: unknown handle");
  }
  return persist_to_store(entry, store_);
}

void ModelRegistry::set_auto_persist(bool enabled) noexcept {
  auto_persist_->store(enabled, std::memory_order_relaxed);
}

bool ModelRegistry::auto_persist() const noexcept {
  return auto_persist_->load(std::memory_order_relaxed);
}

ServeResult<std::string> ModelRegistry::checkpoint_text(const ModelHandle& handle) const {
  const auto entry = resolve(handle);
  if (!entry) {
    return ServeResult<std::string>::failure(ServeStatus::kUnknownModel,
                                             "checkpoint_text: unknown handle");
  }
  const auto model = entry->current_model();
  if (!model) {
    return ServeResult<std::string>::failure(
        ServeStatus::kNotFitted,
        "checkpoint_text '" + entry->key.str() + "': entry has no fitted model");
  }
  try {
    std::ostringstream out;
    model->to_checkpoint().save(out);
    return out.str();
  } catch (const std::exception& e) {
    return ServeResult<std::string>::failure(
        ServeStatus::kInternalError, "checkpoint_text '" + entry->key.str() + "': " + e.what());
  }
}

ServeResult<Unit> ModelRegistry::erase(const ModelHandle& handle) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(handle.id());
  if (it == entries_.end()) {
    return ServeResult<Unit>::failure(ServeStatus::kUnknownModel, "erase: unknown handle");
  }
  by_key_.erase(it->second->key);
  entries_.erase(it);
  return ok();
}

bool ModelRegistry::fitted(const ModelHandle& handle) const noexcept {
  try {
    const auto entry = resolve(handle);
    if (!entry) return false;
    std::lock_guard<std::mutex> lock(entry->mutex);
    return entry->model != nullptr;
  } catch (...) {
    return false;  // a throwing lock must not escalate to std::terminate
  }
}

std::uint64_t ModelRegistry::state_stamp(const ModelHandle& handle) const noexcept {
  try {
    const auto entry = resolve(handle);
    if (!entry) return 0;
    const auto model = entry->current_model();
    return model ? model->state_stamp() : 0;
  } catch (...) {
    return 0;
  }
}

std::shared_ptr<const nn::Checkpoint> ModelRegistry::base_checkpoint(
    const ModelHandle& handle) const {
  const auto entry = resolve(handle);
  if (!entry) return nullptr;
  std::lock_guard<std::mutex> lock(entry->mutex);
  return entry->base;
}

std::vector<ModelKey> ModelRegistry::keys() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ModelKey> out;
  out.reserve(by_key_.size());
  for (const auto& [key, id] : by_key_) out.push_back(key);
  return out;
}

std::vector<WeightVersion> ModelRegistry::versions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<WeightVersion> out;
  out.reserve(by_key_.size());
  for (const auto& [key, id] : by_key_) {
    const auto& entry = entries_.at(id);
    std::lock_guard<std::mutex> entry_lock(entry->mutex);
    if (entry->model) {
      out.push_back(WeightVersion{key, ModelHandle(id), entry->version, entry->refit});
    }
  }
  return out;
}

void ModelRegistry::set_on_change(std::function<void()> observer) {
  on_change_->set(std::move(observer));
}

std::size_t ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::shared_ptr<detail::RegistryEntry> ModelRegistry::resolve(const ModelHandle& handle) const {
  return resolve_id(handle.id());
}

std::shared_ptr<detail::RegistryEntry> ModelRegistry::resolve_id(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : it->second;
}

}  // namespace bellamy::serve

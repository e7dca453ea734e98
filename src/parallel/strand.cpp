#include "parallel/strand.hpp"

#include <thread>
#include <utility>

namespace bellamy::parallel {

void Strand::post(std::function<void()> task) {
  bool start_drain = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    if (!draining_) {
      draining_ = true;
      start_drain = true;
    }
  }
  if (start_drain) {
    // The lambda is noexcept so a throwing task reaches std::terminate, as
    // strand.hpp documents.  Without it the pool's packaged_task would store
    // the exception in a future nobody reads and leave draining_ stuck at
    // true: later posts would never run and ~Strand would hang.  The future
    // is dropped; completion is observed through wait_idle().
    pool_.submit([this]() noexcept { drain(); });
  }
}

namespace {
// Strand whose drain loop is running on the current thread (nullptr outside
// one).  Lets wait_idle() recognize re-entry from inside this strand's own
// frame — e.g. a destructor chain fired by the final task's closure — where
// parking or helping would wait on a draining_ flag this very frame is
// responsible for clearing.
thread_local const Strand* t_active_strand = nullptr;
}  // namespace

void Strand::drain() {
  // Save/restore rather than set/clear: a helping wait can nest one
  // strand's drain inside another's task on the same thread.
  const Strand* const prev_active = t_active_strand;
  t_active_strand = this;
  for (;;) {
    std::function<void()> task;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (queue_.empty()) {
        // Retire while holding the lock: a racing post() either sees
        // draining_ == true and just enqueues (we will pop it on the next
        // iteration) or sees false and starts a fresh drainer — never both.
        draining_ = false;
        idle_cv_.notify_all();
        t_active_strand = prev_active;
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    // Retire-or-continue BEFORE destroying the closure: the closure may own
    // the last reference to the strand's owner (a registry entry whose
    // erase() already dropped the registry's reference), in which case this
    // object dies with it — past this point the retiring path may only
    // touch locals and the thread_local.
    bool retire;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      retire = queue_.empty();
      if (retire) {
        draining_ = false;
        idle_cv_.notify_all();
      }
    }
    task = nullptr;  // closure destroyed here; `this` may be gone when retiring
    if (retire) {
      t_active_strand = prev_active;
      return;
    }
  }
}

void Strand::wait_idle() {
  if (t_active_strand == this) {
    // Called from inside this strand's own drain frame (a task, or a
    // destructor chain the final task's closure triggered).  Everything
    // posted so far has run or will run before this frame retires; parking
    // or helping here would spin on a draining_ flag only this frame clears.
    return;
  }
  if (pool_.owns_current_thread()) {
    // Called from a pool worker: parking could leave the drainer task this
    // wait depends on queued with no free worker to run it.  Help the pool
    // instead: try_run_pending_task pops from the shared queue, so the
    // helping loop reaches the drainer wherever it sits in line.
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (queue_.empty() && !draining_) return;
      }
      if (!pool_.try_run_pending_task()) std::this_thread::yield();
    }
  }
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && !draining_; });
}

}  // namespace bellamy::parallel

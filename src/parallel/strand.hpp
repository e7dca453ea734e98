#pragma once
// Strand: a serial executor layered over a ThreadPool.
//
// Tasks post()ed to one strand run in FIFO order and never concurrently with
// each other, while still executing on the shared pool's workers — the
// classic "strand" (Asio) / "serial queue" (GCD) shape.  Many strands share
// one pool: each strand consumes at most one worker at a time, so a thousand
// idle strands cost nothing and a busy one cannot monopolize the pool.
//
// The serve layer uses one strand per registry entry to serialize background
// refits (ModelRegistry::refit_async): fine-tunes of the SAME handle queue up
// behind each other, fine-tunes of different handles run in parallel.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>

#include "parallel/thread_pool.hpp"

namespace bellamy::parallel {

/// Serial FIFO executor over a shared ThreadPool.
///
/// Thread-safety: post() and wait_idle() may be called from any thread,
/// including from inside a strand task.  wait_idle() called from within
/// this strand's own drain frame — a task, or a destructor chain triggered
/// by a task closure that owned the caller — returns immediately instead of
/// waiting on itself.  A strand may be owned by an object that its own
/// tasks keep alive (a shared_ptr'd registry entry): the drain loop retires
/// before it destroys each task closure, so the FINAL closure dropping the
/// last reference (destroying the strand from inside its own loop) is safe.
class Strand {
 public:
  /// Tasks execute on `pool`'s workers; the pool must outlive the strand.
  explicit Strand(ThreadPool& pool) : pool_(pool) {}

  Strand(const Strand&) = delete;
  Strand& operator=(const Strand&) = delete;

  /// Destruction waits for every posted task to finish (tasks capture state
  /// the strand's owner is about to tear down).
  ~Strand() { wait_idle(); }

  /// Enqueue `task` behind everything already posted.  Tasks must not throw:
  /// an escaping exception would unwind a pool worker, so it terminates.
  void post(std::function<void()> task);

  /// Block until the strand has no queued or running task.  Helping-safe:
  /// when called from a worker of the underlying pool, the caller drains
  /// pool tasks while it waits instead of parking (nested-wait protocol of
  /// ThreadPool::try_run_pending_task).
  void wait_idle();

 private:
  /// Run queued tasks until the queue is empty, then retire the drainer.
  /// At most one drain loop is in flight per strand — that is the mutual
  /// exclusion guarantee.
  void drain();

  ThreadPool& pool_;
  std::mutex mutex_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  bool draining_ = false;
};

}  // namespace bellamy::parallel

#pragma once
// Fixed-size thread pool with one shared FIFO task queue.
//
// One mutex guards the queue and the shutdown flag; one condition variable
// wakes workers.  Callers wait on the futures submit() returns.  The model's
// fan-outs are a handful of coarse tasks (predict chunks, refit drain tasks,
// cross-validation splits — the paper used Ray Tune for the latter), so a
// lock-free scheduler buys nothing measurable here.  Exceptions thrown by
// tasks are captured and rethrown to the caller via the returned
// std::future.
//
// Scheduling freedom vs determinism: the pool promises only that each task
// runs exactly once — helping threads (try_run_pending_task) may run tasks
// out of queue order.  Bit-identical results (chunked predict, parallel_map)
// come from the CALLERS writing disjoint output slots and combining them in
// submission order, so they hold under any interleaving.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace bellamy::parallel {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a callable; the future carries its result or exception.
  template <typename F, typename... Args>
  auto submit(F&& f, Args&&... args)
      -> std::future<std::invoke_result_t<F, Args...>> {
    using Result = std::invoke_result_t<F, Args...>;
    auto task = std::make_shared<std::packaged_task<Result()>>(
        [fn = std::forward<F>(f),
         ... captured = std::forward<Args>(args)]() mutable -> Result {
          return std::invoke(std::move(fn), std::move(captured)...);
        });
    std::future<Result> future = task->get_future();
    enqueue([task]() { (*task)(); });
    return future;
  }

  /// True when called from one of THIS pool's worker threads.  Code that
  /// fans out over a pool and then blocks on the results from inside the
  /// same pool must drain tasks while it waits (see try_run_pending_task) —
  /// otherwise every worker could end up waiting on tasks that no free
  /// worker is left to run.
  bool owns_current_thread() const;

  /// Pop and execute the oldest queued task on the calling thread, if any.
  /// Returns false when the queue was empty.  Any thread may call it.  This
  /// is the helping primitive for nested fan-out: a thread that blocks on
  /// futures of this pool calls it in its wait loop, so the caller runs its
  /// share of the nested work inline and the pool can never deadlock on
  /// nested parallel_for.
  bool try_run_pending_task();

  /// Process-wide default pool (lazily constructed, hardware concurrency).
  static ThreadPool& global();

 private:
  using Task = std::function<void()>;

  void enqueue(Task task);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;  ///< queue non-empty or stopping
  std::queue<Task> tasks_;
  bool stopping_ = false;
};

}  // namespace bellamy::parallel

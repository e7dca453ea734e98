#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>

namespace bellamy::parallel {

// Idle accounting.  A task is counted in pending_ from the moment submit
// queues it until its body has returned, and both edges happen under
// mutex_.  wait_idle therefore cannot observe a task that was popped (queue
// empty) but is still running, whichever thread — worker or external helper
// — popped it (tests/parallel/test_thread_pool.cpp:
// WaitIdleSeesTaskClaimedByExternalHelper).  An "empty queue && no active
// worker" test would miss exactly that window.

namespace {
// Owning pool of the current thread (nullptr outside any pool worker).
thread_local const ThreadPool* t_current_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  // Workers drain the queue before exiting (worker_loop), so every task
  // submitted before this point runs exactly once.
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

bool ThreadPool::owns_current_thread() const { return t_current_pool == this; }

void ThreadPool::enqueue(Task task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) throw std::runtime_error("ThreadPool::submit after shutdown");
    tasks_.push(std::move(task));
    ++pending_;
  }
  cv_.notify_one();
}

void ThreadPool::run(Task& task) {
  task();  // exceptions are captured by the packaged_task wrapper
  task = nullptr;  // drop captures before the task stops counting as pending
  std::lock_guard<std::mutex> lock(mutex_);
  if (--pending_ == 0) idle_cv_.notify_all();
}

void ThreadPool::worker_loop() {
  t_current_pool = this;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping, and nothing left to run
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    run(task);
  }
}

bool ThreadPool::try_run_pending_task() {
  Task task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop();
  }
  run(task);
  return true;
}

void ThreadPool::wait_idle() {
  if (owns_current_thread()) {
    // Helping wait: parking a worker here could deadlock (with one worker
    // nobody else would drain the queue).  Yield covers the tail where the
    // remaining tasks are running on other threads.
    while (pending_approx() > 0) {
      if (!try_run_pending_task()) std::this_thread::yield();
    }
    return;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

std::size_t ThreadPool::pending_approx() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace bellamy::parallel

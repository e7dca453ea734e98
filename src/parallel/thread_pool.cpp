#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>

namespace bellamy::parallel {

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
  }
  cv_.notify_one();
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
    task();  // exceptions are captured by the packaged_task wrapper
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
  task();
  return true;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace bellamy::parallel

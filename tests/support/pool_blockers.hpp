#pragma once
// PoolBlockers: hold every worker of a ThreadPool busy.
//
// One blocker task per worker, each waiting until release().  The pool's
// queue is FIFO, so a task submitted while the blockers hold the workers
// waits behind them — a registry refit stays QUEUED for as long as a test
// needs.  wait_all_started() doubles as a probe: it fails when something
// else keeps a worker from picking up its blocker.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace bellamy::parallel {

class PoolBlockers {
 public:
  /// Submits one blocker per worker of `pool`.
  explicit PoolBlockers(ThreadPool& pool = ThreadPool::global());
  /// Releases the blockers and waits for every one to finish.
  ~PoolBlockers();
  PoolBlockers(const PoolBlockers&) = delete;
  PoolBlockers& operator=(const PoolBlockers&) = delete;

  /// True once every blocker runs (every worker is held); false when
  /// `timeout` elapses first.
  bool wait_all_started(std::chrono::milliseconds timeout);
  /// Let the blockers return (idempotent).
  void release();

 private:
  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t started = 0;
    bool released = false;
  };
  std::shared_ptr<State> state_ = std::make_shared<State>();
  std::size_t count_ = 0;
  std::vector<std::future<void>> done_;
};

}  // namespace bellamy::parallel

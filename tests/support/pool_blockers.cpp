#include "support/pool_blockers.hpp"

namespace bellamy::parallel {

PoolBlockers::PoolBlockers(ThreadPool& pool) : count_(pool.size()) {
  for (std::size_t i = 0; i < count_; ++i) {
    done_.push_back(pool.submit([state = state_] {
      std::unique_lock<std::mutex> lock(state->mutex);
      ++state->started;
      state->cv.notify_all();
      state->cv.wait(lock, [&] { return state->released; });
    }));
  }
}

PoolBlockers::~PoolBlockers() {
  release();
  for (std::future<void>& done : done_) done.wait();
}

bool PoolBlockers::wait_all_started(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(state_->mutex);
  return state_->cv.wait_for(lock, timeout, [&] { return state_->started == count_; });
}

void PoolBlockers::release() {
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->released = true;
  }
  state_->cv.notify_all();
}

}  // namespace bellamy::parallel

#pragma once
// Blocked parallel loops on top of ThreadPool.
//
// parallel_for(n, body)        — body(i) for i in [0, n), order unspecified.
// parallel_map(items, fn)      — element-wise transform preserving order.
//
// The first exception thrown by any body is rethrown on the calling thread
// after all chunks complete, so no chunk outlives the caller's frame.
//
// Nested use is supported: called from a worker of the SAME pool, the caller
// helps drain the pool while it waits (running its own share — and anything
// else queued — inline), so nested fan-out can never deadlock and still
// uses every worker.
//
// Determinism note: the pool promises exactly-once execution, not order.
// parallel_for writes disjoint indices and parallel_map writes disjoint
// slots, which is why their results are bit-identical to the serial loop at
// any worker count and under any schedule (stress-checked in
// tests/parallel/test_pool_stress.cpp).

#include <chrono>
#include <cstddef>
#include <exception>
#include <future>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace bellamy::parallel {

namespace detail {
/// Wait for `f`, draining `pool`'s queue from the calling thread when the
/// caller is itself one of the pool's workers (help-based nested blocking).
template <typename Future>
void wait_helping(ThreadPool& pool, bool help, Future& f) {
  using namespace std::chrono_literals;
  if (!help) {
    f.wait();
    return;
  }
  while (f.wait_for(0s) != std::future_status::ready) {
    if (!pool.try_run_pending_task()) f.wait_for(50us);
  }
}
}  // namespace detail

/// Runs body(i) for every i in [0, n) across the pool in contiguous chunks.
template <typename Body>
void parallel_for(std::size_t n, Body&& body, ThreadPool* pool = nullptr,
                  std::size_t min_chunk = 1) {
  if (n == 0) return;
  ThreadPool& p = pool ? *pool : ThreadPool::global();
  const std::size_t workers = p.size();
  if (workers <= 1 || n <= min_chunk) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  const std::size_t chunks = std::min(n, workers * 4);
  const std::size_t chunk_size = (n + chunks - 1) / chunks;
  const bool help = p.owns_current_thread();
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * chunk_size;
    if (begin >= n) break;
    const std::size_t end = std::min(n, begin + chunk_size);
    futures.push_back(p.submit([&body, begin, end] {
      for (std::size_t i = begin; i < end; ++i) body(i);
    }));
  }
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      detail::wait_helping(p, help, f);
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

/// Order-preserving parallel transform.
template <typename T, typename Fn>
auto parallel_map(const std::vector<T>& items, Fn&& fn, ThreadPool* pool = nullptr)
    -> std::vector<decltype(fn(items.front()))> {
  using R = decltype(fn(items.front()));
  std::vector<R> out(items.size());
  parallel_for(
      items.size(), [&](std::size_t i) { out[i] = fn(items[i]); }, pool);
  return out;
}

}  // namespace bellamy::parallel

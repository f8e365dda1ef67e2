// The one worker pool of the simulator: an index-claiming parallel_for.
//
// Every sharded loop (batched eval, online-training windows, fleet dies)
// goes through parallel_for, so thread-count clamping, exception transport
// and the inline single-worker path live in exactly one place. Results stay
// deterministic because callers write each index's outcome into a pre-sized
// slot and merge in index order afterwards -- which worker ran an index
// never matters.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

namespace esam::util {

/// Upper bound on any worker count: oversubscription is allowed (it cannot
/// change results), but a garbage request like SIZE_MAX must not exhaust
/// OS threads.
inline constexpr std::size_t kMaxWorkers = 256;

/// Workers a parallel_for over `n` indices runs: `workers` (0 = hardware
/// concurrency) clamped to [1, min(n, kMaxWorkers)].
[[nodiscard]] inline std::size_t resolve_workers(std::size_t workers,
                                                 std::size_t n) {
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  return std::max<std::size_t>(1, std::min({workers, n, kMaxWorkers}));
}

/// Calls fn(worker, i) once for every i in [0, n), with worker in
/// [0, resolve_workers(workers, n)). The calling thread is worker 0; the
/// others are spawned for this call and claim indices from one shared
/// counter. With a single worker everything runs inline (no thread, no
/// allocation). After every worker has joined, the exception of the
/// lowest-numbered failing worker (if any) is rethrown; a failure stops
/// further indices from being handed out.
template <typename Fn>
void parallel_for(std::size_t n, std::size_t workers, Fn&& fn) {
  if (n == 0) return;
  workers = resolve_workers(workers, n);
  if (workers == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(std::size_t{0}, i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(workers);
  const auto work = [&](std::size_t w) noexcept {
    try {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < n; i = next.fetch_add(1, std::memory_order_relaxed)) {
        fn(w, i);
      }
    } catch (...) {
      errors[w] = std::current_exception();
      next.store(n, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) {
    // Out of OS threads: the workers already running (and this thread)
    // still claim every index, just with less parallelism.
    try {
      pool.emplace_back(work, w);
    } catch (const std::system_error&) {
      break;
    }
  }
  work(0);
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace esam::util

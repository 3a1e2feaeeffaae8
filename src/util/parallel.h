#pragma once

/// The one host worker pool: resolve a `--jobs` request, then run a worker
/// body inline or on that many threads. Engines, the batch engine and
/// fault campaigns all fan out through it.

#include <atomic>
#include <cstddef>
#include <functional>

namespace ulpsync::util {

/// Threads to use for `work_items` items: `jobs`, or the hardware
/// concurrency when `jobs` is 0, capped at `work_items` and at least 1.
[[nodiscard]] unsigned resolve_jobs(unsigned jobs, std::size_t work_items);

/// Runs `worker` once on each of `threads` threads and joins them; with
/// one thread (or none) it runs inline on the caller's thread.
void run_workers(unsigned threads, const std::function<void()>& worker);

/// Runs `body(index)` for every index in [0, count), handing indices out
/// from a shared counter to `resolve_jobs(jobs, count)` workers.
template <typename Body>
void parallel_for(std::size_t count, unsigned jobs, const Body& body) {
  std::atomic<std::size_t> next{0};
  run_workers(resolve_jobs(jobs, count), [&] {
    for (std::size_t index; (index = next.fetch_add(1)) < count;) body(index);
  });
}

}  // namespace ulpsync::util

#include "util/parallel.h"

#include <algorithm>
#include <thread>
#include <vector>

namespace ulpsync::util {

unsigned resolve_jobs(unsigned jobs, std::size_t work_items) {
  if (jobs == 0) jobs = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(
      std::min<std::size_t>(jobs, std::max<std::size_t>(work_items, 1)));
}

void run_workers(unsigned threads, const std::function<void()>& worker) {
  if (threads <= 1) {
    worker();
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) pool.emplace_back(worker);
  for (std::thread& thread : pool) thread.join();
}

}  // namespace ulpsync::util

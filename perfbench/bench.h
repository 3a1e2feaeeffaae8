#pragma once

// What main.cpp and the four workloads (workloads.cpp) share: the options
// a workload sees, the metric map it fills, and the outcome it returns.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// What a workload is asked to do (see main.cpp for the flags).
struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measuring time of one invocation
  bool trace = false;     ///< per-layer (traced) run instead of end-to-end
  /// Scratch directory for spools, inside the checkout.
  std::string work_dir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What one workload invocation produced.
struct Outcome {
  RowTally rows;           ///< output rows checked against the reference
  Metrics metrics;         ///< end-to-end, or per-layer when traced
  std::vector<Span> spans; ///< the traced run's spans (empty otherwise)
};

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Outcome run_paper_sweep(const Options& options);
Outcome run_cohort_batch(const Options& options);
Outcome run_spool_tcp(const Options& options);
Outcome run_fault_campaign(const Options& options);

}  // namespace perfbench

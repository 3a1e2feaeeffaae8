#pragma once

// The stage split: re-executes specs through the public per-stage calls the
// scalar engine makes (Registry::make, Workload::program, Platform set-up,
// load_inputs, drive, verify, finish_record, to_csv_row), one span per
// stage, and checks each row against Engine::run_one so the split cannot
// drift from the engine.

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/registry.h"
#include "scenario/spec.h"

namespace perfbench {

struct StagePass {
  std::size_t specs = 0;
  /// Specs whose stage-split row differs from Engine::run_one's (the guard).
  std::size_t mismatches = 0;
  std::string first_mismatch;
  /// Simulated cycles and the part each executor retired.
  std::uint64_t cycles = 0;
  std::uint64_t burst_cycles = 0;
  std::uint64_t fetch_region_cycles = 0;
  std::uint64_t fast_forwarded_cycles = 0;
  /// Wall time of the untraced Engine::run_one calls, summed.
  double run_one_seconds = 0.0;
};

/// Runs every spec once through Engine::run_one (untraced) and once through
/// the stage calls under spans named "stage.*", each spec's spans under one
/// "stage.run" span whose run index is `first_run + i`. The global tracer
/// must be enabled for the spans to be recorded.
[[nodiscard]] StagePass run_stage_pass(
    const std::vector<ulpsync::scenario::RunSpec>& specs,
    const ulpsync::scenario::Registry& registry, std::int64_t first_run = 0);

}  // namespace perfbench

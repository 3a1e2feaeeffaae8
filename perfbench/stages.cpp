#include "stages.h"

#include <chrono>
#include <exception>
#include <memory>
#include <optional>

#include "core/lockstep.h"
#include "scenario/engine.h"
#include "trace.h"

namespace perfbench {

using namespace ulpsync;
using namespace ulpsync::scenario;

namespace {

/// One spec through the stage calls, in the order Engine::run_one makes
/// them for a cold, ring-less run, plus one separate verify call.
std::string staged_row(const RunSpec& spec, const Registry& registry,
                       StagePass& pass) {
  std::shared_ptr<const Workload> workload;
  {
    ScopedSpan span("stage.make");
    workload = registry.make(spec.workload, spec.params);
  }
  const assembler::Program* program = nullptr;
  {
    ScopedSpan span("stage.assemble");
    program = &workload->program(spec.with_synchronizer());
  }
  std::optional<sim::Platform> platform;
  {
    ScopedSpan span("stage.platform");
    platform.emplace(resolved_config(spec, *workload));
    platform->load_program(*program);
  }
  {
    ScopedSpan span("stage.load_inputs");
    workload->load_inputs(*platform);
  }
  core::LockstepAnalyzer analyzer;
  sim::RunResult result;
  {
    ScopedSpan span("stage.drive");
    analyzer.attach(*platform);
    result = workload->drive(*platform, spec.max_cycles);
  }
  RunRecord record;
  record.spec = spec;
  {
    ScopedSpan span("stage.finish");
    finish_record(record, *workload, *platform, result,
                  analyzer.metrics().lockstep_fraction());
  }
  if (result.status == sim::RunResult::Status::kAllHalted ||
      result.status == sim::RunResult::Status::kAllAsleep) {
    // finish_record verifies internally; this second, separate call times
    // verify on its own, and the caller subtracts it from the finish span's
    // time. It comes after finish_record, so the engine's own verify is the
    // first to read the final state, as in Engine::run_one.
    ScopedSpan span("stage.verify");
    (void)workload->verify(*platform);
  }
  pass.cycles += platform->counters().cycles;
  pass.burst_cycles += platform->burst_cycles();
  pass.fetch_region_cycles += platform->fetch_region_cycles();
  pass.fast_forwarded_cycles += platform->fast_forwarded_cycles();
  ScopedSpan span("stage.csv");
  return to_csv_row(record);
}

}  // namespace

StagePass run_stage_pass(const std::vector<RunSpec>& specs,
                         const Registry& registry, std::int64_t first_run) {
  const Engine engine(registry);
  StagePass pass;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto start = std::chrono::steady_clock::now();
    const std::string expected = to_csv_row(engine.run_one(specs[i]));
    pass.run_one_seconds += std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();

    std::string staged;
    try {
      ScopedSpan span("stage.run", first_run + static_cast<std::int64_t>(i));
      staged = staged_row(specs[i], registry, pass);
    } catch (const std::exception& error) {
      staged = std::string("stage split threw: ") + error.what();
    }
    pass.specs += 1;
    if (staged != expected) {
      if (pass.mismatches == 0) {
        pass.first_mismatch = specs[i].workload + ": staged row '" + staged +
                              "' != run_one row '" + expected + "'";
      }
      pass.mismatches += 1;
    }
  }
  return pass;
}

}  // namespace perfbench

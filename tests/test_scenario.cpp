// The scenario API: registry lookup and duplicate rejection, run-matrix
// expansion, engine determinism (serial == parallel), record serialization
// round-trips, and the workload hooks (drive/report/verify) end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "scenario/batch.h"
#include "scenario/engine.h"
#include "scenario/matrix.h"
#include "scenario/record.h"
#include "scenario/registry.h"
#include "scenario/report.h"
#include "scenario/workloads.h"

namespace ulpsync::scenario {
namespace {

// Engines keep a pointer to their registry: binding a temporary one (as
// `Engine(Registry::with_builtins())` would) must not compile.
static_assert(!std::is_constructible_v<Engine, Registry>);
static_assert(!std::is_constructible_v<BatchEngine, Registry>);
static_assert(std::is_constructible_v<Engine, const Registry&>);
static_assert(std::is_constructible_v<BatchEngine, const Registry&>);

WorkloadParams small_params() {
  WorkloadParams params;
  params.samples = 32;
  return params;
}

// --- registry ---------------------------------------------------------------

TEST(Registry, BuiltinsArePresent) {
  const auto& registry = Registry::builtins();
  for (const char* name :
       {"mrpfltr", "sqrt32", "mrpdln", "mrpfltr.auto", "sqrt32.auto",
        "mrpdln.auto", "clip8", "bandcount", "bandcount.auto", "streaming",
        "sleepgen", "sleepgen16", "sleepgen32", "sleepgen64"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
  EXPECT_FALSE(registry.contains("no-such-workload"));
}

TEST(Registry, MakeInstantiatesWorkload) {
  const auto workload = Registry::builtins().make("sqrt32", small_params());
  EXPECT_EQ(workload->name(), "sqrt32");
  EXPECT_EQ(workload->num_cores(), 8u);
  EXPECT_GT(workload->program(true).size(), 0u);
  // Instrumented variant has sync points, the plain one does not.
  EXPECT_GT(count_sync_points(workload->program(true)), 0u);
  EXPECT_EQ(count_sync_points(workload->program(false)), 0u);
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW((void)Registry::builtins().make("nope", small_params()),
               std::out_of_range);
}

TEST(Registry, DuplicateNameRejected) {
  Registry registry;
  auto factory = [](const WorkloadParams& params) {
    return Registry::builtins().make("sqrt32", params);
  };
  registry.add("mine", factory);
  EXPECT_THROW(registry.add("mine", factory), std::invalid_argument);
  EXPECT_THROW(registry.add("", factory), std::invalid_argument);
  EXPECT_THROW(registry.add("other", nullptr), std::invalid_argument);
}

TEST(Registry, NamesAreSorted) {
  const auto names = Registry::builtins().names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(names.size(), 15u);
}

// --- matrix -----------------------------------------------------------------

TEST(Matrix, DefaultAxesExpandToBothDesigns) {
  const auto specs = Matrix().workload("sqrt32").expand();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_FALSE(specs[0].with_synchronizer());
  EXPECT_TRUE(specs[1].with_synchronizer());
  EXPECT_EQ(specs[0].workload, "sqrt32");
}

TEST(Matrix, SizeIsTheAxisProduct) {
  Matrix matrix;
  matrix.workloads({"mrpfltr", "sqrt32", "mrpdln"})
      .num_cores({1, 2, 4, 8})
      .samples({32, 64})
      .im_line_slots({4, 16, 0});
  EXPECT_EQ(matrix.size(), 3u * 2u * 4u * 2u * 3u);
  EXPECT_EQ(matrix.expand().size(), matrix.size());
}

TEST(Matrix, AxesLandInSpecFields) {
  Matrix matrix;
  matrix.workload("sqrt32")
      .design(DesignVariant::synchronized())
      .num_cores({4})
      .samples({48})
      .arbitration({sim::ArbitrationPolicy::kOldestFirst})
      .im_line_slots({0})
      .max_cycles(1000);
  const auto specs = matrix.expand();
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].params.num_channels, 4u);
  EXPECT_EQ(specs[0].params.samples, 48u);
  ASSERT_TRUE(specs[0].arbitration.has_value());
  EXPECT_EQ(*specs[0].arbitration, sim::ArbitrationPolicy::kOldestFirst);
  ASSERT_TRUE(specs[0].im_line_slots.has_value());
  EXPECT_EQ(*specs[0].im_line_slots, 0u);
  EXPECT_EQ(specs[0].max_cycles, 1000u);
}

TEST(Matrix, EmptyAxisListMeansAxisUnset) {
  // A dynamically built (and empty) axis must not zero out the product.
  Matrix matrix;
  matrix.workload("sqrt32").arbitration({}).im_line_slots({});
  EXPECT_EQ(matrix.size(), 2u);
  const auto specs = matrix.expand();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_FALSE(specs[0].arbitration.has_value());
  EXPECT_FALSE(specs[0].im_line_slots.has_value());
}

TEST(Matrix, ExpansionOrderIsDeterministic) {
  Matrix matrix;
  matrix.workloads({"a", "b"}).samples({1, 2});
  const auto specs = matrix.expand();
  ASSERT_EQ(specs.size(), 8u);
  // workload outermost, then design, then samples.
  EXPECT_EQ(specs[0].workload, "a");
  EXPECT_EQ(specs[3].workload, "a");
  EXPECT_EQ(specs[4].workload, "b");
  EXPECT_FALSE(specs[0].with_synchronizer());
  EXPECT_EQ(specs[0].params.samples, 1u);
  EXPECT_EQ(specs[1].params.samples, 2u);
}

// --- engine -----------------------------------------------------------------

TEST(Engine, RunsABenchmarkPairAndVerifies) {
  Engine engine(Registry::builtins());
  const auto records =
      engine.run(Matrix().workload("sqrt32").base_params(small_params()));
  ASSERT_EQ(records.size(), 2u);
  for (const auto& record : records) {
    EXPECT_TRUE(record.ok()) << record.status << " " << record.verify_error;
    EXPECT_GT(record.cycles(), 0u);
    EXPECT_GT(record.useful_ops, 0u);
    EXPECT_GT(record.ops_per_cycle, 0.0);
  }
  // Same program semantics on both designs; the synchronizer only buys time.
  EXPECT_EQ(records[0].useful_ops, records[1].useful_ops);
  EXPECT_LT(records[1].cycles(), records[0].cycles());
  EXPECT_GT(records[1].lockstep_fraction, records[0].lockstep_fraction);
}

TEST(Engine, SleepgenScalesTo64CoresAndVerifies) {
  // The wide-platform scaling workload: every width runs duty-cycled
  // windows on the synchronizer-less xbar design and verifies against the
  // host mirror. Useful work should scale with the core count (the cores
  // stay in natural lockstep).
  Engine engine(Registry::builtins());
  double ops_per_cycle_8 = 0.0;
  for (const unsigned cores : {8u, 16u, 32u, 64u}) {
    RunSpec spec;
    spec.workload = "sleepgen";
    spec.params = small_params();
    spec.params.num_channels = cores;
    spec.design = scenario::DesignVariant::xbar_only();
    const auto record = engine.run_one(spec);
    EXPECT_TRUE(record.ok()) << cores << " cores: " << record.status << " "
                             << record.verify_error;
    if (cores == 8) ops_per_cycle_8 = record.ops_per_cycle;
    if (cores == 64) {
      EXPECT_GT(record.ops_per_cycle, 6.0 * ops_per_cycle_8)
          << "64-core ops/cycle should scale well beyond 8-core";
    }
  }
}

TEST(Engine, SleepgenFixedAliasesPinTheirWidth) {
  const auto wide = Registry::builtins().make("sleepgen64", small_params());
  EXPECT_EQ(wide->num_cores(), 64u);
  EXPECT_EQ(wide->base_config(false).num_cores, 64u);
}

TEST(Engine, SynchronizerBeyondEightCoresIsRejected) {
  // PlatformConfig::validate: the checkpoint word caps the synchronizer at
  // 8 cores; a synchronized design on a 16-core sleepgen surfaces as an
  // error record (the Platform constructor throws).
  Engine engine(Registry::builtins());
  RunSpec spec;
  spec.workload = "sleepgen";
  spec.params = small_params();
  spec.params.num_channels = 16;
  spec.design = scenario::DesignVariant::synchronized();
  const auto record = engine.run_one(spec);
  EXPECT_EQ(record.status, "error");
  EXPECT_NE(record.verify_error.find("synchronizer"), std::string::npos)
      << record.verify_error;
}

TEST(Engine, CoreCountAboveSixtyFourIsRejected) {
  sim::PlatformConfig config = sim::PlatformConfig::without_synchronizer();
  config.num_cores = 65;
  EXPECT_FALSE(config.validate().empty());
  EXPECT_THROW(sim::Platform{config}, std::invalid_argument);
  config.num_cores = 64;
  EXPECT_TRUE(config.validate().empty());
}

TEST(Engine, UnknownWorkloadYieldsErrorRecordNotThrow) {
  Engine engine(Registry::builtins());
  const auto record = engine.run_one(RunSpec{.workload = "no-such"});
  EXPECT_EQ(record.status, "error");
  EXPECT_FALSE(record.ok());
  EXPECT_NE(record.verify_error.find("no-such"), std::string::npos);
  EXPECT_THROW(require_ok({record}), std::runtime_error);
}

TEST(Engine, ParallelRunIsIdenticalToSerial) {
  Matrix matrix;
  matrix.workloads({"sqrt32", "clip8", "bandcount"}).base_params(small_params());
  const auto serial = Engine(Registry::builtins(), {.jobs = 1}).run(matrix);
  const auto parallel = Engine(Registry::builtins(), {.jobs = 4}).run(matrix);
  ASSERT_EQ(serial.size(), parallel.size());
  // Byte-identical serialized output, the acceptance criterion for
  // deterministic sweeps.
  EXPECT_EQ(to_csv(serial), to_csv(parallel));
  EXPECT_EQ(to_json(serial), to_json(parallel));
}

TEST(Engine, ProgressCallbackCountsEveryRun) {
  Matrix matrix;
  matrix.workload("clip8").base_params(small_params());
  std::size_t calls = 0;
  std::size_t last_done = 0;
  EngineOptions options;
  options.jobs = 2;
  options.on_result = [&](const RunRecord&, std::size_t done,
                          std::size_t total) {
    ++calls;
    last_done = done;
    EXPECT_EQ(total, 2u);
  };
  const auto records = Engine(Registry::builtins(), options).run(matrix);
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(calls, 2u);
  EXPECT_EQ(last_done, 2u);
}

TEST(Engine, ThrowingProgressCallbackIsRethrownNotTerminate) {
  Matrix matrix;
  matrix.workload("clip8").base_params(small_params());
  EngineOptions options;
  options.jobs = 2;
  options.on_result = [](const RunRecord&, std::size_t, std::size_t) {
    throw std::runtime_error("callback failed");
  };
  EXPECT_THROW((void)Engine(Registry::builtins(), options).run(matrix),
               std::runtime_error);
}

TEST(Engine, FeatureTogglesReachThePlatform) {
  // The ablation path: a variant with the synchronizer but without the
  // enhanced D-Xbar policy must not record policy holds.
  RunSpec spec;
  spec.workload = "mrpdln";
  spec.params = small_params();
  spec.design = {"no dxbar policy", {true, false, true}};
  const auto record = Engine(Registry::builtins()).run_one(spec);
  EXPECT_TRUE(record.ok()) << record.verify_error;
  EXPECT_EQ(record.counters.policy_hold_events, 0u);
}

TEST(Engine, StreamingWorkloadDrivesWindows) {
  WorkloadParams params;
  params.samples = 3 * 125;  // three acquisition windows
  const auto records =
      Engine(Registry::builtins()).run(Matrix().workload("streaming").base_params(params));
  ASSERT_EQ(records.size(), 2u);
  for (const auto& record : records) {
    EXPECT_TRUE(record.ok()) << record.status << " " << record.verify_error;
    EXPECT_EQ(record.status, "all-asleep");
    EXPECT_EQ(record.extra_value("windows"), "3");
    EXPECT_FALSE(record.extra_value("busy_cycles").empty());
  }
}

TEST(Engine, FixedAsmDescRejectsCoreCountSweep) {
  // A fixed desc cannot be resized by a num_cores axis: the run must fail
  // loudly instead of executing on the wrong platform and mislabeling the
  // record. The builtins ("clip8" etc.) rebuild their desc from params, so
  // they sweep fine.
  Registry registry;
  AsmWorkloadDesc desc;
  desc.name = "fixed";
  desc.source = "halt\n";
  desc.num_cores = 8;
  desc.load = [](sim::Platform&, const WorkloadParams&) {};
  register_asm_workload(registry, desc);

  RunSpec spec;
  spec.workload = "fixed";
  spec.params.num_channels = 4;
  const auto record = Engine(registry).run_one(spec);
  EXPECT_EQ(record.status, "error");
  EXPECT_NE(record.verify_error.find("8 cores"), std::string::npos);

  // The builtin path: clip8 sweeps its platform with the axis.
  RunSpec clip;
  clip.workload = "clip8";
  clip.params = small_params();
  clip.params.num_channels = 4;
  const auto swept = Engine(Registry::builtins()).run_one(clip);
  EXPECT_TRUE(swept.ok()) << swept.verify_error;
}

TEST(Engine, AutoInstrumentedVariantVerifies) {
  RunSpec spec;
  spec.workload = "bandcount.auto";
  spec.params = small_params();
  const auto record = Engine(Registry::builtins()).run_one(spec);
  EXPECT_TRUE(record.ok()) << record.verify_error;
  EXPECT_NE(record.extra_value("sync_points"), "0");
}

// --- record serialization ---------------------------------------------------

RunRecord sample_record() {
  RunSpec spec;
  spec.workload = "sqrt32";
  spec.params = small_params();
  spec.params.per_core_threshold_delta = {1, -2, 3, 0, 0, 0, 0, 7};
  spec.arbitration = sim::ArbitrationPolicy::kOldestFirst;
  spec.im_line_slots = 0;
  return Engine(Registry::builtins()).run_one(spec);
}

TEST(Record, CsvRoundTrip) {
  const std::vector<RunRecord> records = {sample_record()};
  const auto csv = to_csv(records);
  const auto parsed = records_from_csv(csv);
  ASSERT_EQ(parsed.size(), 1u);
  // Re-serializing the parsed records must reproduce the bytes.
  EXPECT_EQ(to_csv(parsed), csv);
  EXPECT_EQ(parsed[0].spec.workload, "sqrt32");
  EXPECT_EQ(parsed[0].cycles(), records[0].cycles());
  EXPECT_EQ(parsed[0].useful_ops, records[0].useful_ops);
  EXPECT_DOUBLE_EQ(parsed[0].ops_per_cycle, records[0].ops_per_cycle);
  EXPECT_EQ(parsed[0].spec.params.per_core_threshold_delta,
            records[0].spec.params.per_core_threshold_delta);
  ASSERT_TRUE(parsed[0].spec.arbitration.has_value());
  EXPECT_EQ(*parsed[0].spec.arbitration, sim::ArbitrationPolicy::kOldestFirst);
  ASSERT_TRUE(parsed[0].spec.im_line_slots.has_value());
  EXPECT_EQ(*parsed[0].spec.im_line_slots, 0u);
}

TEST(Record, JsonRoundTrip) {
  const auto record = sample_record();
  const auto json = to_json(record);
  const auto parsed = record_from_json(json);
  EXPECT_EQ(to_json(parsed), json);
  EXPECT_EQ(parsed.status, record.status);
  EXPECT_EQ(parsed.spec.design.label, record.spec.design.label);
  EXPECT_EQ(parsed.counters.im_bank_accesses, record.counters.im_bank_accesses);
  EXPECT_EQ(parsed.sync_stats.checkins, record.sync_stats.checkins);
  EXPECT_DOUBLE_EQ(parsed.energy.im_pj, record.energy.im_pj);
  // Extras survive the round trip (sync_points comes from report()).
  EXPECT_EQ(parsed.extra_value("sync_points"),
            record.extra_value("sync_points"));
}

TEST(Record, JsonArrayRoundTrip) {
  Matrix matrix;
  matrix.workload("clip8").base_params(small_params());
  const auto records = Engine(Registry::builtins()).run(matrix);
  const auto parsed = records_from_json(to_json(records));
  ASSERT_EQ(parsed.size(), records.size());
  EXPECT_EQ(to_json(parsed), to_json(records));
}

TEST(Record, QuotingSurvivesHostileStrings) {
  RunRecord record;
  record.spec.workload = "evil,\"name\"\nwith newline";
  record.status = "error";
  record.verify_error = "line1\nline2\twith\ttabs, commas and \"quotes\"";
  const std::vector<RunRecord> records = {record};
  const auto csv_parsed = records_from_csv(to_csv(records));
  ASSERT_EQ(csv_parsed.size(), 1u);
  EXPECT_EQ(csv_parsed[0].spec.workload, record.spec.workload);
  EXPECT_EQ(csv_parsed[0].verify_error, record.verify_error);
  const auto json_parsed = record_from_json(to_json(record));
  EXPECT_EQ(json_parsed.spec.workload, record.spec.workload);
  EXPECT_EQ(json_parsed.verify_error, record.verify_error);
}

TEST(Record, MalformedInputThrows) {
  EXPECT_THROW((void)records_from_csv("not,a,real,header\n1,2,3,4\n"),
               std::invalid_argument);
  EXPECT_THROW((void)record_from_json("{\"workload\": }"),
               std::invalid_argument);
  EXPECT_THROW((void)record_from_json("nonsense"), std::invalid_argument);
  // Corrupted numeric cells must fail loudly, not silently become 0.
  EXPECT_THROW((void)record_from_json("{\"cycles\": 12x34}"),
               std::invalid_argument);
  EXPECT_THROW((void)record_from_json("{\"ops_per_cycle\": \"garbage\"}"),
               std::invalid_argument);
  // Non-latin \u escapes are outside the writer's subset: reject, don't
  // truncate.
  EXPECT_THROW((void)record_from_json("{\"workload\": \"\\u0394x\"}"),
               std::invalid_argument);
}

// --- report helpers ---------------------------------------------------------

TEST(Report, FindPairAndSpeedup) {
  Engine engine(Registry::builtins());
  const auto records =
      engine.run(Matrix().workload("sqrt32").base_params(small_params()));
  const auto pair = find_pair(records, "sqrt32");
  EXPECT_GT(speedup(pair), 1.0);
  EXPECT_THROW((void)find_pair(records, "mrpdln"), std::runtime_error);
  const auto breakdown = breakdown_at_mops(*pair.synced, 8.0);
  EXPECT_GT(breakdown.total_mw(), 0.0);
}

// --- timed sweeps and PerfBudget --------------------------------------------

TEST(EngineTimed, ReportsPerRunTimingAndTotals) {
  Engine engine(Registry::builtins());
  const auto sweep = engine.run_timed(
      Matrix().workload("sqrt32").base_params(small_params()));
  require_ok(sweep.records);
  EXPECT_EQ(sweep.records.size(), 2u);  // both designs
  EXPECT_EQ(sweep.perf.executed, 2u);
  EXPECT_EQ(sweep.perf.skipped, 0u);
  EXPECT_EQ(sweep.perf.run_wall_seconds.size(), 2u);
  std::uint64_t cycles = 0;
  for (const auto& record : sweep.records) cycles += record.cycles();
  EXPECT_EQ(sweep.perf.sim_cycles, cycles);
  EXPECT_GT(sweep.perf.wall_seconds, 0.0);
  for (const double seconds : sweep.perf.run_wall_seconds)
    EXPECT_GT(seconds, 0.0);
  EXPECT_GT(sweep.perf.sim_cycles_per_second(), 0.0);
}

TEST(EngineTimed, RunAndRunTimedRecordsAgree) {
  const Matrix matrix = Matrix().workload("clip8").base_params(small_params());
  Engine engine(Registry::builtins());
  const auto plain = engine.run(matrix);
  const auto timed = engine.run_timed(matrix);
  ASSERT_EQ(plain.size(), timed.records.size());
  EXPECT_EQ(to_csv(plain), to_csv(timed.records));
}

TEST(EngineTimed, BudgetSkipsUnstartedRuns) {
  // Each sqrt32 run takes well over the 1 ms budget, so run 1 (claimed
  // before the deadline can expire) executes and later runs are skipped.
  WorkloadParams params;
  params.samples = 256;
  EngineOptions options;
  options.budget.wall_limit = std::chrono::milliseconds(1);
  Engine engine(Registry::builtins(), options);
  const auto sweep = engine.run_timed(
      Matrix().workload("sqrt32").num_cores({8, 8, 8, 8}).base_params(params));
  EXPECT_EQ(sweep.perf.executed + sweep.perf.skipped, sweep.records.size());
  EXPECT_GE(sweep.perf.executed, 1u);
  EXPECT_GE(sweep.perf.skipped, 1u);
  for (const auto& record : sweep.records) {
    if (record.status == "skipped") {
      EXPECT_EQ(record.spec.workload, "sqrt32");  // spec is preserved
      EXPECT_FALSE(record.ok());
      EXPECT_FALSE(record.verify_error.empty());
    } else {
      EXPECT_TRUE(record.ok()) << record.verify_error;
    }
  }
}

}  // namespace
}  // namespace ulpsync::scenario

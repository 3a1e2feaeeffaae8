#include "scenario/engine.h"

#include <atomic>
#include <exception>
#include <map>
#include <mutex>
#include <sstream>

#include "core/lockstep.h"
#include "power/model.h"
#include "power/scaling.h"
#include "power/sweep.h"
#include "scenario/checkpoint_ring.h"
#include "scenario/replay.h"
#include "sim/platform.h"
#include "util/parallel.h"

namespace ulpsync::scenario {

namespace {

std::string status_name(sim::RunResult::Status status) {
  switch (status) {
    case sim::RunResult::Status::kAllHalted: return "all-halted";
    case sim::RunResult::Status::kMaxCycles: return "max-cycles";
    case sim::RunResult::Status::kAllAsleep: return "all-asleep";
    case sim::RunResult::Status::kTrap: return "trap";
  }
  return "?";
}

}  // namespace

// (See engine.h.)
sim::PlatformConfig resolved_config(const RunSpec& spec,
                                    const Workload& workload) {
  sim::PlatformConfig config = workload.base_config(spec.with_synchronizer());
  config.features = spec.design.features;
  if (spec.arbitration) config.arbitration = *spec.arbitration;
  if (spec.im_line_slots) config.im_line_slots = *spec.im_line_slots;
  if (spec.fast_forward) config.fast_forward = *spec.fast_forward;
  if (spec.burst) config.burst = *spec.burst;
  return config;
}

// (See engine.h.)
void finish_record(RunRecord& record, const Workload& workload,
                   const sim::Platform& platform, const sim::RunResult& result,
                   double lockstep_fraction) {
  record.status = status_name(result.status);
  record.counters = platform.counters();
  record.sync_stats = platform.sync_stats();
  record.lockstep_fraction = lockstep_fraction;
  record.useful_ops = workload.useful_ops(record.counters, record.sync_stats);
  record.ops_per_cycle =
      record.counters.cycles == 0
          ? 0.0
          : static_cast<double>(record.useful_ops) /
                static_cast<double>(record.counters.cycles);
  // The energy request's params variant overrides the design-derived
  // default; `kAuto` (and no request at all) keeps the Table I pairing.
  bool charge_synchronized = record.spec.with_synchronizer();
  if (record.spec.energy &&
      record.spec.energy->params != EnergyRequest::Params::kAuto) {
    charge_synchronized =
        record.spec.energy->params == EnergyRequest::Params::kSynchronized;
  }
  const power::EnergyParams energy_params =
      charge_synchronized ? power::EnergyParams::synchronized()
                          : power::EnergyParams::baseline();
  record.energy = power::energy_per_cycle(energy_params, record.counters,
                                          record.sync_stats);
  if (record.spec.energy) {
    // Scale the exact per-cycle energies to the requested operating point
    // (power/sweep.h). Pure double arithmetic over the counters, so the
    // report is bit-identical across every execution mode that keeps the
    // counters bit-identical.
    record.energy_report = power::energy_report(
        record.energy, record.ops_per_cycle, record.counters.cycles,
        record.spec.energy->f_mhz, record.spec.energy->voltage,
        power::VoltageScaling{power::VoltageParams{}});
  }
  // Verify only runs whose platform reached a legal final state; a trap
  // or an exhausted budget is itself the failure.
  if (result.status == sim::RunResult::Status::kAllHalted ||
      result.status == sim::RunResult::Status::kAllAsleep) {
    record.verify_error = workload.verify(platform);
  } else {
    record.verify_error = result.to_string();
  }
  record.extra = workload.report(platform);
}

// (See engine.h.) Two specs with equal keys run bit-identically up to
// their common `checkpoint_at` cycle, so they can share one warm-up
// snapshot. Everything that influences the simulation is included;
// `max_cycles` (the fan-out axis) is not.
std::string warm_group_key(const RunSpec& spec) {
  std::ostringstream key;
  key.precision(17);
  const WorkloadParams& p = spec.params;
  key << spec.workload << '|' << p.num_channels << '|' << p.samples << '|'
      << p.l1_half << '|' << p.l2_half << '|' << p.scale_small << '|'
      << p.scale_large << '|' << p.threshold << '|' << p.refractory << '|';
  for (std::int16_t delta : p.per_core_threshold_delta) key << delta << ',';
  key << '|' << p.generator.sample_rate_hz << '|' << p.generator.heart_rate_bpm
      << '|' << p.generator.rr_jitter_fraction << '|'
      << p.generator.amplitude_lsb << '|' << p.generator.baseline_wander_lsb
      << '|' << p.generator.baseline_wander_hz << '|' << p.generator.noise_lsb
      << '|' << p.generator.artifact_rate_hz << '|' << p.generator.artifact_lsb
      << '|' << p.generator.dropout_rate_hz << '|' << p.generator.dropout_s
      << '|' << p.generator.seed << '|' << spec.design.label << '|'
      << spec.design.features.hardware_synchronizer
      << spec.design.features.dxbar_pc_policy
      << spec.design.features.ixbar_partial_broadcast << '|'
      << (spec.arbitration ? static_cast<int>(*spec.arbitration) : -1) << '|'
      << (spec.im_line_slots ? static_cast<long>(*spec.im_line_slots) : -1)
      << '|' << (spec.fast_forward ? static_cast<int>(*spec.fast_forward) : -1)
      << '|' << (spec.burst ? static_cast<int>(*spec.burst) : -1)
      << '|' << spec.checkpoint_at.value_or(0);
  // `spec.energy` is deliberately excluded: the energy request only shapes
  // the derived report columns, never the simulation, so specs differing
  // only in their operating point share one warm-up prefix — the sharing
  // the design-search driver is built around.
  return key.str();
}

// (See engine.h.)
std::uint64_t ring_identity(const RunSpec& spec) {
  return fnv1a64(warm_group_key(spec));
}

Engine::Engine(const Registry& registry, EngineOptions options)
    : registry_(&registry), options_(std::move(options)) {}

RunRecord Engine::run_one(const RunSpec& spec, std::uint64_t ring_slot) const {
  return run_one_impl(spec, spec.resume_from.get(), ring_slot);
}

std::shared_ptr<const WarmState> Engine::capture_warm_state(
    const RunSpec& spec, std::uint64_t cycle) const {
  try {
    const auto workload = registry_->make(spec.workload, spec.params);
    if (!workload->warm_startable()) return nullptr;

    sim::Platform platform(resolved_config(spec, *workload));
    platform.load_program(workload->program(spec.with_synchronizer()));
    workload->load_inputs(platform);

    core::LockstepAnalyzer analyzer;
    if (options_.measure_lockstep) analyzer.attach(platform);

    // A warm-startable workload drives with the default `platform.run`, so
    // running the prefix directly reproduces the cold run's first `cycle`
    // cycles exactly (an early stop — all halted/asleep — is resumable
    // too: the continuation re-derives the same final status).
    (void)platform.run(cycle);

    auto state = std::make_shared<WarmState>();
    state->snapshot = platform.save_snapshot();
    state->lockstep = analyzer.metrics();
    return state;
  } catch (...) {
    // A failing warm-up must never fail the sweep: members fall back to
    // cold runs, where the same failure surfaces as an "error" record.
    return nullptr;
  }
}

RunRecord Engine::run_one_impl(const RunSpec& spec, const WarmState* warm,
                               std::uint64_t ring_slot) const {
  RunRecord record;
  record.spec = spec;
  try {
    if (!spec.record_events_to.empty()) {
      // Recording path: delegate to the canonical cold recorder and write
      // the envelope. Warm states, rings and batch lanes are bit-identical
      // host optimizations, so the record is the same either way.
      RecordOutcome outcome =
          record_one(spec, *registry_, options_.measure_lockstep);
      write_recorded_run_file(spec.record_events_to, outcome.recorded);
      return outcome.record;
    }

    const auto workload = registry_->make(spec.workload, spec.params);

    sim::Platform platform(resolved_config(spec, *workload));
    platform.load_program(workload->program(spec.with_synchronizer()));
    workload->load_inputs(platform);

    core::LockstepAnalyzer analyzer;
    if (options_.measure_lockstep) analyzer.attach(platform);

    const CheckpointRingOptions& ring = options_.checkpoint_ring;
    sim::RunResult result;
    if (ring.enabled() && workload->checkpointable()) {
      // Checkpoint-ring path: resume from the newest valid ring entry when
      // asked (it is never older than a warm state it supersedes in
      // usefulness, and restoring either is bit-exact), then drive with
      // periodic ring offers.
      const std::uint64_t identity = ring_identity(spec);
      const std::string dir = ring_run_dir(ring.dir, ring_slot);
      std::optional<RingEntry> entry;
      if (ring.resume) {
        entry = load_latest_ring_entry(dir, identity, spec.max_cycles);
      }
      std::vector<std::uint64_t> resume_words;
      if (entry) {
        platform.restore_snapshot(entry->state.snapshot);
        analyzer.restore(entry->state.lockstep);
        resume_words = entry->state.snapshot.host_words;
      } else if (warm != nullptr) {
        platform.restore_snapshot(warm->snapshot);
        analyzer.restore(warm->lockstep);
      }
      RingWriter writer(dir, identity, ring.stride, ring.keep,
                        platform.counters().cycles,
                        options_.measure_lockstep ? &analyzer : nullptr);
      result = workload->drive(platform, spec.max_cycles, writer, resume_words);
    } else {
      if (warm != nullptr) {
        // Resume from the shared warm-up: platform state from the snapshot,
        // analyzer state from the metrics captured alongside it. A
        // mismatched snapshot throws and surfaces as an "error" record.
        platform.restore_snapshot(warm->snapshot);
        analyzer.restore(warm->lockstep);
      }
      result = workload->drive(platform, spec.max_cycles);
    }

    finish_record(record, *workload, platform, result,
                  analyzer.metrics().lockstep_fraction());
  } catch (const std::exception& error) {
    record.status = "error";
    record.verify_error = error.what();
  } catch (...) {
    // Keep the never-throws contract even for non-std exceptions from user
    // workload hooks; escaping a worker thread would std::terminate.
    record.status = "error";
    record.verify_error = "unknown exception from workload";
  }
  return record;
}

std::vector<RunRecord> Engine::run(const std::vector<RunSpec>& specs) const {
  return run_timed(specs).records;
}

SweepResult Engine::run_timed(const std::vector<RunSpec>& specs) const {
  using Clock = std::chrono::steady_clock;

  SweepResult result;
  result.records.resize(specs.size());
  result.perf.run_wall_seconds.assign(specs.size(), 0.0);
  if (specs.empty()) return result;

  const Clock::time_point sweep_start = Clock::now();
  const bool budgeted = !options_.budget.unlimited();
  const Clock::time_point deadline = sweep_start + options_.budget.wall_limit;

  // Warm-start prepass: group specs that share a deterministic warm-up
  // prefix (same `warm_key`, a set `checkpoint_at` below their budget) and
  // simulate each prefix once. Groups of one run cold — sharing is the
  // whole point. The map is ordered, so grouping and capture order are
  // deterministic and records stay byte-identical for any `jobs`.
  struct WarmGroup {
    std::vector<std::size_t> members;
    std::shared_ptr<const WarmState> state;
  };
  std::map<std::string, WarmGroup> warm_groups;
  std::vector<const WarmState*> warm_of(specs.size(), nullptr);
  if (options_.warm_start) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const RunSpec& spec = specs[i];
      if (!spec.checkpoint_at || spec.resume_from) continue;
      // Recording specs run cold (see run_one_impl) — don't warm them up.
      if (!spec.record_events_to.empty()) continue;
      if (*spec.checkpoint_at == 0 || *spec.checkpoint_at >= spec.max_cycles)
        continue;
      warm_groups[warm_group_key(spec)].members.push_back(i);
    }
    for (auto& [key, group] : warm_groups) {
      (void)key;
      if (group.members.size() < 2) continue;
      if (budgeted && Clock::now() >= deadline) break;
      const RunSpec& leader = specs[group.members.front()];
      const Clock::time_point warm_start = Clock::now();
      group.state = capture_warm_state(leader, *leader.checkpoint_at);
      const double warm_wall =
          std::chrono::duration<double>(Clock::now() - warm_start).count();
      if (!group.state) continue;  // members fall back to cold runs
      result.perf.warmups += 1;
      result.perf.warmup_wall_seconds += warm_wall;
      result.perf.warmup_saved_seconds +=
          warm_wall * static_cast<double>(group.members.size() - 1);
      result.perf.warm_resumed += group.members.size();
      for (std::size_t i : group.members) warm_of[i] = group.state.get();
    }
  }

  std::vector<RunRecord>& records = result.records;
  std::vector<std::uint8_t> executed(specs.size(), 0);
  std::atomic<std::size_t> next{0};
  std::size_t done = 0;
  std::mutex progress_mutex;
  std::exception_ptr callback_error;

  auto worker = [&] {
    for (;;) {
      // A run that has started always finishes; the budget only stops new
      // runs from being claimed.
      if (budgeted && Clock::now() >= deadline) return;
      const std::size_t index = next.fetch_add(1);
      if (index >= specs.size()) return;
      const Clock::time_point run_start = Clock::now();
      records[index] = run_one_impl(
          specs[index],
          warm_of[index] != nullptr ? warm_of[index]
                                    : specs[index].resume_from.get(),
          /*ring_slot=*/index);
      result.perf.run_wall_seconds[index] =
          std::chrono::duration<double>(Clock::now() - run_start).count();
      executed[index] = 1;
      const std::lock_guard<std::mutex> lock(progress_mutex);
      ++done;
      if (options_.on_result) {
        // A throwing progress callback must not escape a worker thread
        // (std::terminate); remember it, stop scheduling, rethrow below.
        try {
          options_.on_result(records[index], done, specs.size());
        } catch (...) {
          if (!callback_error) callback_error = std::current_exception();
          next.store(specs.size());
          return;
        }
      }
    }
  };

  util::run_workers(util::resolve_jobs(options_.jobs, specs.size()), worker);
  if (callback_error) std::rethrow_exception(callback_error);

  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (executed[i]) {
      result.perf.executed += 1;
      // `sim_cycles` counts cycles actually simulated by this sweep: a
      // resumed record's cycle count includes its warm prefix, which this
      // sweep either simulated once per group (added below) or — for a
      // caller-provided `resume_from` — not at all.
      const WarmState* warm = warm_of[i] != nullptr
                                  ? warm_of[i]
                                  : specs[i].resume_from.get();
      std::uint64_t simulated = records[i].cycles();
      if (warm != nullptr) {
        simulated -= std::min(simulated, warm->snapshot.cycle());
      }
      result.perf.sim_cycles += simulated;
    } else {
      // Never claimed (budget expired or callback abort): report the spec
      // with an explicit skip status rather than an empty record.
      records[i].spec = specs[i];
      records[i].status = "skipped";
      records[i].verify_error = "perf budget exhausted before this run started";
      result.perf.skipped += 1;
    }
  }
  for (const auto& [key, group] : warm_groups) {
    (void)key;
    if (group.state) result.perf.sim_cycles += group.state->snapshot.cycle();
  }
  result.perf.wall_seconds =
      std::chrono::duration<double>(Clock::now() - sweep_start).count();
  return result;
}

}  // namespace ulpsync::scenario

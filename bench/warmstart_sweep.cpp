// Warm-start sweep harness: measures the wall-clock savings of sharing one
// simulated warm-up prefix across a fan-out of runs (RunSpec::checkpoint_at,
// sim/snapshot.h).
//
// The sweep shape is the init-heavy one every timing study produces: the
// same kernel observed at K progressively longer cycle horizons. A cold
// sweep re-simulates the common prefix K times; a warm sweep simulates it
// once, snapshots it, and resumes every horizon from the snapshot. Records
// are byte-identical either way (asserted here via the CSV round-trip), so
// the whole difference is host wall time, reported from SweepPerf.
//
// A third, sharded mode (--shards N) additionally spools the same sweep to
// disk (scenario/shard.h) — shipping the shared WarmState in the bundles —
// and drains it with worker threads standing in for worker processes,
// asserting the merged CSV is byte-identical to the in-process sweeps.
//
// Flags:
//   --workload NAME  builtin workload (default mrpfltr)
//   --samples N      samples per channel (default 256)
//   --horizons K     fan-out width (default 8)
//   --cohort N       fan the sweep out over N per-patient generator draws
//                    (ecg/cohort.h); each patient keeps its own shared
//                    warm-up prefix across the horizon fan-out (default 0)
//   --cohort-seed S  master cohort seed (default 2024)
//   --out PATH       output JSON path (default BENCH_warm_start.json)
//   --shards N       also run the sweep through an on-disk work spool
//                    split into N shards (default 0 = skip)
//   --workers W      concurrent spool workers in sharded mode (default 2)
//   --spool DIR      spool directory (default warmstart_spool; recreated)

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ecg/cohort.h"
#include "scenario/cli.h"
#include "scenario/report.h"
#include "scenario/shard.h"

int main(int argc, char** argv) {
  using namespace ulpsync;
  using namespace ulpsync::scenario;

  const util::CliArgs args(argc, argv);
  const std::string workload = args.get("workload", "mrpfltr");
  const unsigned horizons = static_cast<unsigned>(args.get_int("horizons", 8));
  const std::string out_path = args.get("out", "BENCH_warm_start.json");
  WorkloadParams params;
  params.samples = static_cast<unsigned>(args.get_int("samples", 256));

  EngineOptions options = engine_options_from(args);
  options.jobs = 1;  // serial: the measured saving must come from sharing,
                     // not from thread scheduling

  // Calibrate: one full run tells us the kernel's total cycle count, from
  // which the shared prefix (3/4 of the run) and the horizon fan-out are
  // derived.
  RunSpec probe;
  probe.workload = workload;
  probe.params = params;
  probe.design = DesignVariant::synchronized();
  const Engine probe_engine(Registry::builtins(), options);
  const RunRecord probe_record = probe_engine.run_one(probe);
  if (!probe_record.ok()) {
    std::fprintf(stderr, "probe run failed: %s\n",
                 probe_record.verify_error.c_str());
    return 1;
  }
  const std::uint64_t total = probe_record.cycles();
  const std::uint64_t prefix = total * 3 / 4;
  if (prefix == 0 || horizons == 0) {
    std::fprintf(stderr, "degenerate sweep (total=%llu)\n",
                 static_cast<unsigned long long>(total));
    return 1;
  }

  // Optional cohort axis: each patient is its own identical-prefix group
  // (patients differ in generator draws, so their warm-up prefixes differ),
  // sharing one warm state across its horizon fan-out. The prefix length
  // is calibrated once on the base parameters; per-patient run lengths stay
  // close enough for the 3/4 split to hold.
  const cli::CohortAxis cohort_axis = cli::cohort_from_flags(args);
  const unsigned patients = cohort_axis.patients;
  const ecg::CohortParams& cohort_params = cohort_axis.params;

  std::vector<RunSpec> specs;
  for (unsigned p = 0; p < std::max(1u, patients); ++p) {
    RunSpec patient = probe;
    if (patients != 0) {
      patient.params.generator =
          ecg::patient_params(cohort_params, probe.params.generator, p);
      patient.cohort = CohortTag{cohort_params.seed, p, patients};
    }
    for (unsigned i = 0; i < horizons; ++i) {
      RunSpec spec = patient;
      spec.checkpoint_at = prefix;
      // Horizons span (prefix, total]; the last one runs to completion.
      spec.max_cycles = prefix + (total - prefix) * (i + 1) / horizons + 1;
      specs.push_back(spec);
    }
  }

  auto sweep = [&](bool warm) {
    EngineOptions sweep_options = options;
    sweep_options.warm_start = warm;
    const Engine engine(Registry::builtins(), sweep_options);
    return engine.run_timed(specs);
  };
  const SweepResult cold = sweep(false);
  const SweepResult warm = sweep(true);

  if (to_csv(cold.records) != to_csv(warm.records)) {
    std::fprintf(stderr,
                 "warm-started records differ from cold records — "
                 "snapshot resume is broken\n");
    return 1;
  }

  // Sharded mode: the same sweep through the on-disk spool, with the warm
  // state shipped in the bundles and worker threads draining the queue.
  const unsigned shards = static_cast<unsigned>(args.get_int("shards", 0));
  const unsigned workers =
      std::max(1u, static_cast<unsigned>(args.get_int("workers", 2)));
  double sharded_wall = 0.0;
  std::size_t sharded_warm_resumed = 0;
  if (shards > 0) {
    const std::string spool = args.get("spool", "warmstart_spool");
    std::filesystem::remove_all(spool);
    const auto start = std::chrono::steady_clock::now();
    const PlanResult plan =
        plan_spool(spool, specs, Registry::builtins(), {.shards = shards});
    std::vector<WorkReport> reports(workers);
    std::vector<std::string> worker_errors(workers);
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        // A spool I/O failure must surface as a clean bench error, not an
        // exception escaping the thread (std::terminate).
        try {
          reports[w] = work_spool(spool, Registry::builtins(),
                                  {.worker_id = "bench-" + std::to_string(w)});
        } catch (const std::exception& error) {
          worker_errors[w] = error.what();
        }
      });
    }
    for (auto& worker : pool) worker.join();
    for (unsigned w = 0; w < workers; ++w) {
      if (!worker_errors[w].empty()) {
        std::fprintf(stderr, "spool worker %u failed: %s\n", w,
                     worker_errors[w].c_str());
        return 1;
      }
    }
    const std::string merged = merge_spool(spool);
    sharded_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    for (const WorkReport& report : reports) {
      sharded_warm_resumed += report.warm_resumed;
    }
    if (merged != to_csv(cold.records)) {
      std::fprintf(stderr,
                   "sharded merge differs from the in-process sweep — "
                   "the spool path is broken\n");
      return 1;
    }
    std::printf("sharded sweep: %.3f s wall (plan+%u worker(s)+merge), "
                "%u shard(s), %zu warm state(s) shipped, %zu run(s) "
                "warm-resumed — merged CSV byte-identical\n",
                sharded_wall, workers, plan.shards, plan.warm_states,
                sharded_warm_resumed);
  }

  const double speedup = warm.perf.wall_seconds > 0.0
                             ? cold.perf.wall_seconds / warm.perf.wall_seconds
                             : 0.0;
  std::printf("workload %s, %u samples/ch: %llu total cycles, shared prefix "
              "%llu, %u horizons\n",
              workload.c_str(), params.samples,
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(prefix), horizons);
  std::printf("cold sweep: %.3f s wall, %llu sim cycles\n",
              cold.perf.wall_seconds,
              static_cast<unsigned long long>(cold.perf.sim_cycles));
  std::printf("warm sweep: %.3f s wall, %llu sim cycles (%zu warm-up(s), "
              "%.3f s; %zu resumed; est. %.3f s saved) — records "
              "byte-identical\n",
              warm.perf.wall_seconds,
              static_cast<unsigned long long>(warm.perf.sim_cycles),
              warm.perf.warmups, warm.perf.warmup_wall_seconds,
              warm.perf.warm_resumed, warm.perf.warmup_saved_seconds);
  std::printf("speedup: %.2fx\n", speedup);

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"bench\": \"warm_start\",\n"
      << "  \"workload\": \"" << workload << "\",\n"
      << "  \"samples_per_channel\": " << params.samples << ",\n"
      << "  \"horizons\": " << horizons << ",\n";
  if (patients > 0) {
    out << "  \"cohort\": " << patients << ",\n"
        << "  \"cohort_seed\": " << cohort_params.seed << ",\n";
  }
  out
      << "  \"total_cycles\": " << total << ",\n"
      << "  \"prefix_cycles\": " << prefix << ",\n"
      << "  \"cold_wall_seconds\": " << cold.perf.wall_seconds << ",\n"
      << "  \"warm_wall_seconds\": " << warm.perf.wall_seconds << ",\n"
      << "  \"cold_sim_cycles\": " << cold.perf.sim_cycles << ",\n"
      << "  \"warm_sim_cycles\": " << warm.perf.sim_cycles << ",\n"
      << "  \"warmups\": " << warm.perf.warmups << ",\n"
      << "  \"warm_resumed\": " << warm.perf.warm_resumed << ",\n"
      << "  \"warmup_wall_seconds\": " << warm.perf.warmup_wall_seconds << ",\n"
      << "  \"warmup_saved_seconds\": " << warm.perf.warmup_saved_seconds << ",\n"
      << "  \"speedup\": " << speedup << ",\n"
      << "  \"runs\": [\n"
      << "    {\"mode\": \"cold\", \"wall_seconds\": " << cold.perf.wall_seconds
      << ", \"sim_cycles\": " << cold.perf.sim_cycles << "},\n"
      << "    {\"mode\": \"warm\", \"wall_seconds\": " << warm.perf.wall_seconds
      << ", \"sim_cycles\": " << warm.perf.sim_cycles << "}\n"
      << "  ],\n";
  if (shards > 0) {
    out << "  \"sharded_shards\": " << shards << ",\n"
        << "  \"sharded_workers\": " << workers << ",\n"
        << "  \"sharded_wall_seconds\": " << sharded_wall << ",\n"
        << "  \"sharded_warm_resumed\": " << sharded_warm_resumed << ",\n"
        << "  \"sharded_merge_identical\": true,\n";
  }
  out << "  \"records_identical\": true\n"
      << "}\n";
  std::printf("JSON written to %s\n", out_path.c_str());
  return 0;
}

// snapshot_tool: capture, inspect, diff and hash deterministic platform
// snapshots (sim/snapshot.h).
//
//   snapshot_tool capture <workload> --cycle N [--out file.snap]
//                 [--samples N] [--design synchronized|baseline] [--no-ff]
//       Runs a builtin workload to cycle N and writes the snapshot. This is
//       also how the committed golden snapshots under tests/golden/ are
//       regenerated after an intentional simulator change.
//   snapshot_tool dump <file.snap>
//       Prints a human-readable summary: config, cycle, per-core state,
//       counter totals, DM occupancy, content hash.
//   snapshot_tool diff <a.snap> <b.snap>
//       Prints the first differences between two snapshots (empty output
//       and exit 0 when identical; exit 2 when they differ).
//   snapshot_tool hash <file.snap|file.evt...>
//       Prints the 64-bit content hash of each image (snapshots and
//       recorded-run envelopes alike — `.evt` files are detected by
//       extension).
//   snapshot_tool record <workload> [--out file.evt] [--samples N]
//                 [--design synchronized|baseline|xbar] [--max-cycles N]
//       Runs a builtin workload to completion, recording its external-event
//       schedule, and writes the recorded-run envelope (scenario/replay.h).
//       This is how the committed golden schedules under tests/golden/ are
//       regenerated after an intentional simulator change.
//   snapshot_tool replay <file.evt>
//       Replays a recorded-run envelope and checks bit-identity against the
//       recording (exit 0 when faithful, 2 on divergence).

#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>

#include "core/lockstep.h"
#include "scenario/checkpoint_ring.h"
#include "scenario/registry.h"
#include "scenario/replay.h"
#include "sim/platform.h"
#include "sim/snapshot.h"
#include "util/cli.h"
#include "util/hash.h"

namespace {

using namespace ulpsync;

int cmd_capture(const util::CliArgs& args) {
  if (args.positional().size() < 2) {
    std::fprintf(stderr, "usage: snapshot_tool capture <workload> --cycle N\n");
    return 1;
  }
  const std::string name = args.positional()[1];
  const auto cycle = static_cast<std::uint64_t>(args.get_int("cycle", 1000));
  const std::string out = args.get("out", name + ".snap");

  const scenario::Registry& registry = scenario::Registry::builtins();
  if (!registry.contains(name)) {
    std::fprintf(stderr, "unknown workload '%s'; available:\n", name.c_str());
    for (const std::string& known : registry.names())
      std::fprintf(stderr, "  %s\n", known.c_str());
    return 1;
  }

  scenario::WorkloadParams params;
  params.samples = static_cast<unsigned>(args.get_int("samples", 48));
  const auto workload = registry.make(name, params);

  const bool baseline = args.get("design", "synchronized") == "baseline";
  sim::PlatformConfig config = workload->base_config(!baseline);
  config.features = baseline ? sim::SyncFeatures::disabled()
                             : sim::SyncFeatures::enabled();
  if (args.has("no-ff")) config.fast_forward = false;

  sim::Platform platform(config);
  platform.load_program(workload->program(!baseline));
  workload->load_inputs(platform);
  const sim::RunResult result = platform.run(cycle);

  const sim::Snapshot snapshot = platform.save_snapshot();
  sim::write_snapshot_file(out, snapshot);
  std::printf("%s: %s; snapshot at cycle %llu -> %s (hash %016llx)\n",
              name.c_str(), result.to_string().c_str(),
              static_cast<unsigned long long>(snapshot.cycle()), out.c_str(),
              static_cast<unsigned long long>(snapshot.content_hash()));
  return 0;
}

void print_summary(const std::string& path, const sim::Snapshot& snap) {
  const sim::PlatformConfig& config = snap.config;
  std::printf("%s:\n", path.c_str());
  std::printf("  format v%u, content hash %016llx\n", sim::Snapshot::kFormatVersion,
              static_cast<unsigned long long>(snap.content_hash()));
  std::printf("  platform: %u cores, IM %ux%u (line %u), DM %ux%u, "
              "sync=%d dxbar=%d ixbar=%d, arbitration %d\n",
              config.num_cores, config.im_banks, config.im_bank_slots,
              config.im_line_slots, config.dm_banks, config.dm_bank_words,
              config.features.hardware_synchronizer ? 1 : 0,
              config.features.dxbar_pc_policy ? 1 : 0,
              config.features.ixbar_partial_broadcast ? 1 : 0,
              static_cast<int>(config.arbitration));
  std::printf("  image fingerprint %016llx\n",
              static_cast<unsigned long long>(snap.im_fingerprint));
  std::printf("  cycle %llu (%llu fast-forwarded), retired %llu, rr %u\n",
              static_cast<unsigned long long>(snap.cycle()),
              static_cast<unsigned long long>(snap.fast_forwarded_cycles),
              static_cast<unsigned long long>(snap.counters.retired_ops),
              snap.rr_pointer);
  for (std::size_t i = 0; i < snap.cores.size(); ++i) {
    const sim::CoreSnapshot& core = snap.cores[i];
    std::printf("  core %zu: %-11s pc %-6u stall_age %llu bubble %u ramp %u\n",
                i, std::string(sim::to_string(core.status)).c_str(),
                core.arch.pc, static_cast<unsigned long long>(core.stall_age),
                core.bubble_cycles, core.ramp_cycles);
  }
  std::size_t dm_words = 0;
  for (const sim::DmRun& run : snap.dm_runs) dm_words += run.words.size();
  std::printf("  synchronizer: %llu RMWs, %llu wake events%s\n",
              static_cast<unsigned long long>(snap.sync.stats.rmw_ops),
              static_cast<unsigned long long>(snap.sync.stats.wakeup_events),
              snap.sync.inflight_active ? ", RMW in flight" : "");
  std::printf("  dm: %zu non-zero words in %zu runs; %zu host words\n",
              dm_words, snap.dm_runs.size(), snap.host_words.size());
}

int cmd_dump(const util::CliArgs& args) {
  if (args.positional().size() < 2) {
    std::fprintf(stderr, "usage: snapshot_tool dump <file.snap>\n");
    return 1;
  }
  print_summary(args.positional()[1],
                sim::read_snapshot_file(args.positional()[1]));
  return 0;
}

int cmd_diff(const util::CliArgs& args) {
  if (args.positional().size() < 3) {
    std::fprintf(stderr, "usage: snapshot_tool diff <a.snap> <b.snap>\n");
    return 1;
  }
  const sim::Snapshot a = sim::read_snapshot_file(args.positional()[1]);
  const sim::Snapshot b = sim::read_snapshot_file(args.positional()[2]);
  if (a == b) return 0;
  std::printf("%s", sim::diff_snapshots(a, b, 64).c_str());
  return 2;
}

bool has_extension(const std::string& path, const std::string& ext) {
  return path.size() >= ext.size() &&
         path.compare(path.size() - ext.size(), ext.size(), ext) == 0;
}

/// Raw-byte FNV-1a 64 of a file — how text fixtures (the design-search
/// frontier CSVs) are pinned; wire images hash their parsed content
/// instead, which validates the image on the way.
std::uint64_t raw_file_hash(const std::string& path) {
  return util::fnv1a64(scenario::read_file_bytes(path));
}

int cmd_hash(const util::CliArgs& args) {
  if (args.positional().size() < 2) {
    std::fprintf(stderr,
                 "usage: snapshot_tool hash <file.snap|file.evt|file.csv...>\n");
    return 1;
  }
  for (std::size_t i = 1; i < args.positional().size(); ++i) {
    const std::string& path = args.positional()[i];
    const std::uint64_t hash =
        has_extension(path, ".evt")
            ? scenario::read_recorded_run_file(path).content_hash()
            : has_extension(path, ".csv")
                  ? raw_file_hash(path)
                  : sim::read_snapshot_file(path).content_hash();
    std::printf("%016llx  %s\n", static_cast<unsigned long long>(hash),
                path.c_str());
  }
  return 0;
}

int cmd_record(const util::CliArgs& args) {
  if (args.positional().size() < 2) {
    std::fprintf(stderr, "usage: snapshot_tool record <workload>\n");
    return 1;
  }
  const std::string name = args.positional()[1];
  const std::string out = args.get("out", name + ".evt");

  const scenario::Registry& registry = scenario::Registry::builtins();
  if (!registry.contains(name)) {
    std::fprintf(stderr, "unknown workload '%s'; available:\n", name.c_str());
    for (const std::string& known : registry.names())
      std::fprintf(stderr, "  %s\n", known.c_str());
    return 1;
  }

  scenario::RunSpec spec;
  spec.workload = name;
  spec.params.samples = static_cast<unsigned>(args.get_int("samples", 48));
  spec.max_cycles =
      static_cast<std::uint64_t>(args.get_int("max-cycles", 3'000'000));
  const std::string design = args.get("design", "auto");
  if (design == "baseline") {
    spec.design = scenario::DesignVariant::baseline();
  } else if (design == "xbar") {
    spec.design = scenario::DesignVariant::xbar_only();
  } else if (design == "synchronized") {
    spec.design = scenario::DesignVariant::synchronized();
  } else {
    // auto: the synchronizer tops out at 8 cores.
    const auto workload = registry.make(name, spec.params);
    spec.design = workload->num_cores() <= 8
                      ? scenario::DesignVariant::synchronized()
                      : scenario::DesignVariant::xbar_only();
  }

  const scenario::RecordOutcome outcome =
      scenario::record_one(spec, registry);
  scenario::write_recorded_run_file(out, outcome.recorded);
  std::printf("%s: %s; %zu event(s) -> %s (hash %016llx)\n", name.c_str(),
              outcome.record.status.c_str(),
              outcome.recorded.schedule.events.size(), out.c_str(),
              static_cast<unsigned long long>(
                  outcome.recorded.content_hash()));
  return 0;
}

int cmd_replay(const util::CliArgs& args) {
  if (args.positional().size() < 2) {
    std::fprintf(stderr, "usage: snapshot_tool replay <file.evt>\n");
    return 1;
  }
  const scenario::RecordedRun run =
      scenario::read_recorded_run_file(args.positional()[1]);
  const scenario::ReplayReport report =
      scenario::replay_recorded_run(run, scenario::Registry::builtins());
  if (!report.bit_identical) {
    std::fprintf(stderr, "replay diverged: %s\n", report.error.c_str());
    return 2;
  }
  std::printf("%s: replay bit-identical (%s, %llu cycles)\n",
              run.spec.workload.c_str(), report.record.status.c_str(),
              static_cast<unsigned long long>(report.record.cycles()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  if (args.positional().empty()) {
    std::fprintf(stderr,
                 "usage: snapshot_tool <capture|dump|diff|hash|record|replay>"
                 " ...\n");
    return 1;
  }
  const std::string& command = args.positional().front();
  try {
    if (command == "capture") return cmd_capture(args);
    if (command == "dump") return cmd_dump(args);
    if (command == "diff") return cmd_diff(args);
    if (command == "hash") return cmd_hash(args);
    if (command == "record") return cmd_record(args);
    if (command == "replay") return cmd_replay(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "snapshot_tool: %s\n", error.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 1;
}

// ulpbench: the repository benchmark (see README.md).
//
//   ulpbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Runs one workload for S seconds and prints, as the last line of standard
// output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set. The line before it stamps the host and build.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "util/cli.h"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"sim_mcyc_per_s", "Mcyc/s"}, {"trials_per_s", "1/s"},
    {"run_p50_ms", "ms"},         {"run_p90_ms", "ms"},
    {"setup_s", "s"},             {"peak_rss_mb", "MB"},
};

// Every workload sets every per-layer metric; a layer its timed section does
// not use is set to 0 explicitly (see workloads.cpp), so a metric a workload
// forgets fails the run instead of reading 0.
constexpr MetricSpec kPerLayer[] = {
    {"stage.make_s", "s"},
    {"stage.assemble_s", "s"},
    {"stage.platform_s", "s"},
    {"stage.load_inputs_s", "s"},
    {"stage.drive_s", "s"},
    {"stage.verify_s", "s"},
    {"stage.finish_s", "s"},
    {"stage.csv_s", "s"},
    {"stage.drive_share", "frac"},
    {"stage.sum_s", "s"},
    {"stage.run_one_s", "s"},
    {"stage.specs", "count"},
    {"exec.burst_share", "frac"},
    {"exec.fetch_region_share", "frac"},
    {"exec.ff_share", "frac"},
    {"sim.host_ns_per_cycle", "ns"},
    {"engine.parallel_efficiency", "frac"},
    {"batch.groups", "count"},
    {"batch.batched_frac", "frac"},
    {"batch.diverged_lanes", "count"},
    {"batch.group_bails", "count"},
    {"batch.emulated_instructions", "count"},
    {"batch.speedup.p1", "x"},
    {"batch.speedup.p8", "x"},
    {"batch.speedup.p64", "x"},
    {"batch.speedup.p512", "x"},
    {"spool.plan_s", "s"},
    {"spool.merge_s", "s"},
    {"spool.claim_ms", "ms"},
    {"spool.append_row_us", "us"},
    {"spool.complete_ms", "ms"},
    {"spool.fetch_blob_ms", "ms"},
    {"spool.claim_calls", "count"},
    {"spool.append_row_calls", "count"},
    {"spool.complete_calls", "count"},
    {"spool.fetch_blob_calls", "count"},
    {"spool.transport_share", "frac"},
    {"spool.compute_share", "frac"},
    {"spool.rows_reused", "count"},
    {"spool.warm_resumed", "count"},
    {"spool.requeues", "count"},
    {"campaign.record_s", "s"},
    {"campaign.clean_replay_s", "s"},
    {"campaign.trial_ms", "ms"},
    {"campaign.masked", "count"},
    {"campaign.detected", "count"},
    {"campaign.sdc", "count"},
    {"trace.untraced_wall_s", "s"},
    {"trace.traced_wall_s", "s"},
    {"trace.overhead_frac", "frac"},
    {"trace.spans", "count"},
    {"failed_frac", "frac"},
};

const std::map<std::string, Outcome (*)(const Options&)> kWorkloads = {
    {"paper_sweep", run_paper_sweep},
    {"cohort_batch", run_cohort_batch},
    {"spool_tcp", run_spool_tcp},
    {"fault_campaign", run_fault_campaign},
};

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

int usage(const std::string& message) {
  std::cerr << "ulpbench: " << message
            << "\nusage: ulpbench --workload "
               "paper_sweep|cohort_batch|spool_tcp|fault_campaign --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "ulpbench: refusing to measure a build without NDEBUG "
               "(asserts on); build with CMAKE_BUILD_TYPE=Release\n";
  return 3;
#endif
  const ulpsync::util::CliArgs args(argc, argv);
  for (const std::string& name : args.names()) {
    if (name != "workload" && name != "seed" && name != "seconds" &&
        name != "trace" && name != "work-dir") {
      return usage("unknown flag --" + name);
    }
  }
  const std::string workload = args.get("workload", "");
  const auto found = kWorkloads.find(workload);
  if (found == kWorkloads.end()) return usage("unknown workload '" + workload + "'");
  if (!args.has("seed") || !args.has("seconds") || !args.has("work-dir")) {
    return usage("--seed, --seconds and --work-dir are required");
  }

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  Options options;
  options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  options.seconds = args.get_double("seconds", 10.0);
  options.trace = args.get_int("trace", 0) != 0;
  options.work_dir = args.get("work-dir", "") + "/" + workload + "-" +
                     std::to_string(::getpid());
  if (options.seconds <= 0.0) return usage("--seconds must be positive");

  std::cout << "{\"host\": {\"nproc\": " << nproc
            << ", \"cpu\": " << json_string(cpu_model())
            << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"ndebug\": true, \"workload\": " << json_string(workload)
            << ", \"seed\": " << options.seed << "}}\n";

  Outcome outcome;
  try {
    outcome = found->second(options);
    std::filesystem::remove_all(options.work_dir);
  } catch (const std::exception& error) {
    std::filesystem::remove_all(options.work_dir);
    std::cerr << "ulpbench: " << workload << " failed: " << error.what() << '\n';
    return 1;
  }
  outcome.metrics["failed_frac"] = {outcome.rows.failed_frac(), "frac"};

  std::ostringstream metrics;
  bool first = true;
  auto emit = [&](const MetricSpec& spec) {
    const double value = outcome.metrics.at(spec.name).value;
    std::cerr << "  " << spec.name << " = " << json_number(value) << ' '
              << spec.unit << '\n';
    metrics << (first ? "" : ", ") << json_string(spec.name)
            << ": {\"value\": " << json_number(value)
            << ", \"unit\": " << json_string(spec.unit) << '}';
    first = false;
  };
  const auto emit_all = [&](const auto& table) {
    for (const MetricSpec& spec : table) {
      if (outcome.metrics.count(spec.name) == 0) {
        std::cerr << "ulpbench: " << workload << " did not measure "
                  << spec.name << '\n';
        return false;
      }
    }
    for (const MetricSpec& spec : table) emit(spec);
    return true;
  };
  if (options.trace) {
    if (!emit_all(kPerLayer)) return 1;
    const std::string path = args.get("work-dir", "") + "/spans-" + workload +
                             "-" + std::to_string(options.seed) + ".json";
    write_spans_json(path, outcome.spans);
    std::cerr << "spans: " << outcome.spans.size() << " written to " << path << '\n';
  } else if (!emit_all(kEndToEnd)) {
    return 1;
  }

  const bool correct = outcome.rows.attempted > 0 && outcome.rows.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << outcome.rows.attempted
            << ", \"failed\": " << outcome.rows.failed << ", \"metrics\": {"
            << metrics.str() << "}}" << std::endl;
  return 0;
}

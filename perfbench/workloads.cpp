// The four benchmark workloads. Each one builds its inputs from the seed,
// repeats set-up plus a timed section (Matrix to merged CSV) until its time
// is up, then checks every repetition's merged bytes against a
// single-process reference computed outside the timed section. A traced
// invocation first repeats the untraced section for half its time, then the
// same section under spans, then re-runs the workload's specs through the
// stage split (stages.h), and reports per-layer figures.
//
// Every timed section runs on one thread (the spool server's connection
// thread aside), so its wall time is the sum of its calls, not set by the
// slower of two threads or by wake-ups across the few shared cores.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <exception>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "scenario/batch.h"
#include "scenario/engine.h"
#include "scenario/matrix.h"
#include "scenario/record.h"
#include "scenario/registry.h"
#include "scenario/replay.h"
#include "scenario/resilience.h"
#include "scenario/shard.h"
#include "scenario/transport.h"
#include "stages.h"
#include "timed_transport.h"

namespace perfbench {

using namespace ulpsync;
using namespace ulpsync::scenario;
namespace fs = std::filesystem;

namespace {

/// SplitMix64 of (seed, stream): independent, reproducible sub-seeds for
/// the generator, cohort and campaign inputs of one benchmark seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec, so under a
  // launcher it would report the launcher's peak when that is larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/// Runs `rep(index)` until `seconds` have passed, and at least `min_reps`
/// times.
template <class Rep>
void repeat_for(double seconds, unsigned min_reps, Rep&& rep) {
  const Clock::time_point start = Clock::now();
  for (unsigned reps = 0; reps < min_reps || seconds_since(start) < seconds; ++reps) {
    rep(reps);
  }
}

// Sub-seed streams of one benchmark seed.
constexpr std::uint64_t kGeneratorStream = 1;
constexpr std::uint64_t kCohortStream = 2;
constexpr std::uint64_t kCampaignStream = 3;
constexpr std::uint64_t kSpecStream = 1000;  // + spec index

/// Cheap set-ups (registry plus matrix expansion) take microseconds, so
/// each repetition times them this many times and keeps the median.
constexpr unsigned kCheapSetupRepeats = 16;
constexpr unsigned kMinReps = 3;

/// Per-repetition figures of the end-to-end metrics.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> cycles_per_s;
  std::vector<double> rows_per_s;
  std::vector<double> latency_s;  ///< per-run host latency, pooled

  void add_rep(double setup, double wall, double cycles, double rows) {
    setup_s.push_back(setup);
    cycles_per_s.push_back(cycles / wall);
    rows_per_s.push_back(rows / wall);
  }

  void fill(Metrics& m, double rss_mb) const {
    const LatencySummary latency = summarize_latency(latency_s);
    m["sim_mcyc_per_s"] = {median(cycles_per_s) / 1e6, "Mcyc/s"};
    m["trials_per_s"] = {median(rows_per_s), "1/s"};
    m["run_p50_ms"] = {latency.p50 * 1e3, "ms"};
    m["run_p90_ms"] = {latency.p90 * 1e3, "ms"};
    m["setup_s"] = {median(setup_s), "s"};
    m["peak_rss_mb"] = {rss_mb, "MB"};
    const auto [low, high] =
        std::minmax_element(cycles_per_s.begin(), cycles_per_s.end());
    std::cerr << "reps: " << cycles_per_s.size() << ", Mcyc/s min "
              << *low / 1e6 << " median " << median(cycles_per_s) / 1e6
              << " max " << *high / 1e6 << '\n';
    std::cerr << "latency: " << latency.samples << " samples, p"
              << latency.tail_percentile << " = " << latency.tail * 1e3
              << " ms\n";
  }
};

/// The two timed phases of a traced invocation, side by side.
struct TracePhases {
  std::vector<double> untraced_wall_s;
  std::vector<double> traced_wall_s;
};

/// Runs `rep(traced)` for the whole time (untraced), or for half the time
/// untraced and half under spans when tracing. `rep` returns its timed
/// wall seconds. A first, warm-up repetition is checked like the others but
/// its figures in `e2e` are dropped: it pays the process's first-touch page
/// faults and cold caches. An untraced run continues past its time until
/// `e2e` holds enough latency samples for the 90th percentile.
TracePhases run_phases(const Options& options, EndToEnd& e2e,
                       const std::function<double(bool traced)>& rep) {
  (void)rep(false);
  e2e = {};
  TracePhases phases;
  auto untraced = [&](unsigned) { phases.untraced_wall_s.push_back(rep(false)); };
  if (!options.trace) {
    repeat_for(options.seconds, kMinReps, untraced);
    while (supported_tail_percentile(e2e.latency_s.size()) < 90.0) untraced(0);
    return phases;
  }
  repeat_for(options.seconds / 2, kMinReps, untraced);
  Tracer::global().set_enabled(true);
  repeat_for(options.seconds / 2, kMinReps, [&](unsigned index) {
    ScopedSpan span("rep", index);
    phases.traced_wall_s.push_back(rep(true));
  });
  return phases;
}

void fill_trace_overhead(Metrics& m, const TracePhases& phases,
                         std::size_t spans) {
  const double untraced = median(phases.untraced_wall_s);
  const double traced = median(phases.traced_wall_s);
  m["trace.untraced_wall_s"] = {untraced, "s"};
  m["trace.traced_wall_s"] = {traced, "s"};
  m["trace.overhead_frac"] = {traced / untraced - 1.0, "frac"};
  m["trace.spans"] = {static_cast<double>(spans), "count"};
  // The stage split's own check: its stages should add up to the untraced
  // Engine::run_one wall of the same specs, within the tracing overhead.
  const double stage_excess =
      m.at("stage.sum_s").value / m.at("stage.run_one_s").value - 1.0;
  std::cerr << "stage split: stage.sum_s / stage.run_one_s - 1 = "
            << stage_excess << " (trace.overhead_frac "
            << m.at("trace.overhead_frac").value << ")\n";
}

/// Moves the tracer's spans into `out.spans` and returns their self times.
std::map<std::string, SelfTime> collect_spans(Outcome& out) {
  const std::vector<Span> spans = Tracer::global().take();
  out.spans.insert(out.spans.end(), spans.begin(), spans.end());
  return self_time_by_name(spans);
}

/// Runs the stage split over `specs` under spans and fills the
/// stage/executor metrics; guard mismatches count as failed rows. Spans
/// recorded before the call must already have been collected.
void stage_split(Outcome& out, const std::vector<RunSpec>& specs,
                 const Registry& registry) {
  Tracer::global().set_enabled(true);
  const StagePass pass = run_stage_pass(specs, registry);
  const std::map<std::string, SelfTime> self = collect_spans(out);

  Metrics& m = out.metrics;
  double sum = 0.0;
  for (const char* stage : {"make", "assemble", "platform", "load_inputs",
                            "drive", "verify", "finish", "csv"}) {
    const auto found = self.find(std::string("stage.") + stage);
    const double seconds = found == self.end() ? 0.0 : found->second.seconds;
    m[std::string("stage.") + stage + "_s"] = {seconds, "s"};
    sum += seconds;
  }
  // finish_record verifies again internally, so the verify span's time is
  // taken out of finish: the stages then add up to one run, comparable
  // with stage.run_one_s.
  m["stage.finish_s"].value -= m["stage.verify_s"].value;
  sum -= m["stage.verify_s"].value;
  const double drive = m["stage.drive_s"].value;
  const auto cycles = static_cast<double>(pass.cycles);
  m["stage.drive_share"] = {share(drive, sum), "frac"};
  m["stage.sum_s"] = {sum, "s"};
  m["stage.run_one_s"] = {pass.run_one_seconds, "s"};
  m["stage.specs"] = {static_cast<double>(pass.specs), "count"};
  m["exec.burst_share"] = {share(static_cast<double>(pass.burst_cycles), cycles), "frac"};
  m["exec.fetch_region_share"] = {
      share(static_cast<double>(pass.fetch_region_cycles), cycles), "frac"};
  m["exec.ff_share"] = {
      share(static_cast<double>(pass.fast_forwarded_cycles), cycles), "frac"};
  m["sim.host_ns_per_cycle"] = {share(drive * 1e9, cycles), "ns"};

  out.rows.attempted += pass.specs;
  out.rows.failed += pass.mismatches;
  if (pass.mismatches != 0) {
    std::cerr << "stage-split guard: " << pass.mismatches << " of "
              << pass.specs << " rows differ; first: " << pass.first_mismatch
              << '\n';
  }
}

/// Sets `names` to 0 with `unit`: the per-layer metrics of a layer the
/// workload does not run.
void set_zero(Metrics& m, std::initializer_list<const char*> names,
              const char* unit) {
  for (const char* name : names) m[name] = {0.0, unit};
}

void no_batch(Metrics& m) {
  set_zero(m, {"batch.groups", "batch.diverged_lanes", "batch.group_bails",
               "batch.emulated_instructions"}, "count");
  set_zero(m, {"batch.batched_frac"}, "frac");
  set_zero(m, {"batch.speedup.p1", "batch.speedup.p8", "batch.speedup.p64",
               "batch.speedup.p512"}, "x");
}

void no_spool(Metrics& m) {
  set_zero(m, {"spool.plan_s", "spool.merge_s"}, "s");
  set_zero(m, {"spool.claim_ms", "spool.complete_ms", "spool.fetch_blob_ms"}, "ms");
  set_zero(m, {"spool.append_row_us"}, "us");
  set_zero(m, {"spool.claim_calls", "spool.append_row_calls", "spool.complete_calls",
               "spool.fetch_blob_calls", "spool.rows_reused", "spool.warm_resumed",
               "spool.requeues"}, "count");
  set_zero(m, {"spool.transport_share", "spool.compute_share"}, "frac");
}

void no_campaign(Metrics& m) {
  set_zero(m, {"campaign.record_s", "campaign.clean_replay_s"}, "s");
  set_zero(m, {"campaign.trial_ms"}, "ms");
  set_zero(m, {"campaign.masked", "campaign.detected", "campaign.sdc"}, "count");
}

/// Mean self seconds of the spans named `name` (0 without such spans).
double mean_self(const std::map<std::string, SelfTime>& self,
                 const std::string& name) {
  const auto found = self.find(name);
  if (found == self.end() || found->second.spans == 0) return 0.0;
  return found->second.seconds / static_cast<double>(found->second.spans);
}

/// Every repetition's merged CSV and row status, kept once per distinct
/// value (the repetitions of a correct program produce identical bytes), so
/// memory, and with it peak_rss_mb, does not grow with the repetition
/// count.
class MergedOutputs {
 public:
  void add(std::string csv, std::vector<bool> row_ok) {
    if (!kept_.empty() && kept_.back().csv == csv && kept_.back().row_ok == row_ok) {
      kept_.back().reps += 1;
      return;
    }
    kept_.push_back({std::move(csv), std::move(row_ok), 1});
  }

  /// Row check of every repetition against `reference`.
  [[nodiscard]] RowTally check(std::string_view reference) const {
    RowTally total;
    for (const Kept& kept : kept_) {
      const RowTally one = check_rows(kept.csv, reference, kept.row_ok);
      total.attempted += one.attempted * kept.reps;
      total.failed += one.failed * kept.reps;
    }
    return total;
  }

 private:
  struct Kept {
    std::string csv;
    std::vector<bool> row_ok;
    std::size_t reps = 0;
  };
  std::vector<Kept> kept_;
};

/// Status column check for sweep CSVs: which rows are `ok()` records.
std::vector<bool> records_ok(const std::vector<RunRecord>& records) {
  std::vector<bool> ok;
  ok.reserve(records.size());
  for (const RunRecord& record : records) ok.push_back(record.ok());
  return ok;
}

/// Parses a merged sweep CSV; a CSV that does not parse yields no records
/// and marks every row as failed.
std::vector<bool> parse_merged(const std::string& csv,
                               std::vector<RunRecord>& records) {
  try {
    records = records_from_csv(csv);
    return records_ok(records);
  } catch (const std::exception& error) {
    std::cerr << "merged CSV does not parse: " << error.what() << '\n';
    records.clear();
    return std::vector<bool>(csv_lines(csv).size(), false);
  }
}

double total_cycles(const std::vector<RunRecord>& records) {
  double cycles = 0.0;
  for (const RunRecord& record : records) {
    cycles += static_cast<double>(record.cycles());
  }
  return cycles;
}

/// A fresh, empty scratch directory for one repetition's spool. It also
/// flushes the file system's dirty pages and metadata, most of them the
/// previous repetition's spool files: left to pile up, they made the next
/// plan's file creation two to four times slower, depending on where the
/// kernel's writeback cycle stood when a run began.
std::string fresh_dir(const Options& options, const char* name, unsigned rep) {
  const fs::path dir =
      fs::path(options.work_dir) / (std::string(name) + "-" + std::to_string(rep));
  fs::remove_all(dir);
  fs::create_directories(dir.parent_path());
  const int fd = ::open(dir.parent_path().c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0 || ::syncfs(fd) != 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("cannot sync the file system of " +
                             dir.parent_path().string());
  }
  ::close(fd);
  return dir.string();
}

/// Per-layer figures of a spool drain, from the traced repetition's
/// transport log (worker plus merge) and the per-repetition shares.
void fill_spool_metrics(Metrics& m, const TransportLog& log,
                        const std::vector<double>& transport_share,
                        const std::vector<double>& compute_share) {
  m["spool.claim_ms"] = {log.claim.mean() * 1e3, "ms"};
  m["spool.append_row_us"] = {log.append_row.mean() * 1e6, "us"};
  m["spool.complete_ms"] = {log.complete.mean() * 1e3, "ms"};
  m["spool.fetch_blob_ms"] = {log.fetch_blob.mean() * 1e3, "ms"};
  m["spool.claim_calls"] = {static_cast<double>(log.claim.calls), "count"};
  m["spool.append_row_calls"] = {static_cast<double>(log.append_row.calls), "count"};
  m["spool.complete_calls"] = {static_cast<double>(log.complete.calls), "count"};
  m["spool.fetch_blob_calls"] = {static_cast<double>(log.fetch_blob.calls), "count"};
  m["spool.transport_share"] = {median(transport_share), "frac"};
  m["spool.compute_share"] = {median(compute_share), "frac"};
}

// --- campaigns -----------------------------------------------------------------

constexpr unsigned kCampaignShards = 16;

/// One mrpfltr run on the paper's synchronized 8-core platform: the run
/// every trial replays.
RunSpec campaign_spec(std::uint64_t seed) {
  RunSpec spec;
  spec.workload = "mrpfltr";
  spec.params.samples = 16;
  spec.params.generator.seed = derive_seed(seed, kGeneratorStream);
  spec.design = DesignVariant::synchronized();
  return spec;
}

/// Every error model over a three-point voltage axis, eight faults per
/// sampled (voltage, model) point.
CampaignConfig campaign_config(std::uint64_t seed) {
  CampaignConfig config;
  config.models = {ErrorModel::kDmSingle, ErrorModel::kDmMulti,
                   ErrorModel::kDmBurst,  ErrorModel::kDmRow,
                   ErrorModel::kIm,       ErrorModel::kWakeDelay,
                   ErrorModel::kWakeDrop, ErrorModel::kRate};
  config.count = 8;
  config.seed = derive_seed(seed, kCampaignStream);
  config.voltages = {0.6, 0.8, 1.0};
  config.rate_scale = 25.0;
  return config;
}

/// Outcome column of a campaign CSV row (see campaign_csv_header).
std::string_view outcome_of(std::string_view row) {
  for (int field = 0; field < 12; ++field) {
    const std::size_t comma = row.find(',');
    if (comma == std::string_view::npos) return {};
    row.remove_prefix(comma + 1);
  }
  return row.substr(0, row.find(','));
}

bool replays(std::string_view outcome) {
  return outcome == "masked" || outcome == "detected" || outcome == "sdc";
}

/// Runs every fault of `config` over `run` directly through run_fault_trial
/// under spans, checks the rows against `reference` (the campaign CSV),
/// and fills campaign.trial_ms and the exact outcome counts.
void trial_pass(Outcome& out, const RecordedRun& run, const Registry& registry,
                const CampaignConfig& config, const sim::Snapshot& clean_final,
                const std::string& reference) {
  Tracer::global().set_enabled(true);
  const auto workload = registry.make(run.spec.workload, run.spec.params);
  const std::vector<CampaignFault> faults = expand_campaign(
      config, run.schedule, workload->program(run.spec.with_synchronizer()),
      workload->num_cores());
  std::vector<FaultTrialRow> rows;
  for (const CampaignFault& fault : faults) {
    ScopedSpan span("campaign.run_fault_trial", static_cast<std::int64_t>(fault.index));
    rows.push_back(run_fault_trial(run, registry, fault, config, &clean_final));
  }
  const std::map<std::string, SelfTime> self = collect_spans(out);
  out.rows.add(check_rows(campaign_csv(rows), reference));

  std::size_t masked = 0, detected = 0, sdc = 0;
  for (const ResilienceBucket& bucket : aggregate_resilience(rows).buckets) {
    masked += bucket.masked;
    detected += bucket.detected;
    sdc += bucket.sdc;
  }
  Metrics& m = out.metrics;
  m["campaign.trial_ms"] = {mean_self(self, "campaign.run_fault_trial") * 1e3, "ms"};
  m["campaign.masked"] = {static_cast<double>(masked), "count"};
  m["campaign.detected"] = {static_cast<double>(detected), "count"};
  m["campaign.sdc"] = {static_cast<double>(sdc), "count"};
}

// --- paper_sweep ---------------------------------------------------------------

struct SweepSetup {
  Registry registry;
  std::vector<RunSpec> specs;
};

/// The paper's 8-core platform over its three kernels (512 samples) plus
/// the streaming and clip8 examples (2048 samples) in both designs, and the
/// sleepgen scaling rows on 8 to 64 cores (512 samples). The examples'
/// longer inputs put the pooled median on 8-core runs of about 15 ms, not on
/// a many-core sleepgen run of a few milliseconds that is mostly platform
/// construction. The sleepgen rows stay short: a many-core platform outgrows
/// the core's cache, and its speed follows the shared host's memory traffic
/// (a 64-core run varied three times as much as a kernel run over the same
/// minutes). The 48-core scaling row makes the count fifteen, so the pooled
/// median falls inside the eighth-longest spec's samples and the 90th
/// percentile inside the fourteenth's, not between the samples of two specs.
SweepSetup paper_setup(std::uint64_t seed) {
  SweepSetup setup{Registry::with_builtins(), {}};
  WorkloadParams base;
  base.generator.seed = derive_seed(seed, kGeneratorStream);
  const auto both_designs = [&](std::initializer_list<std::string> workloads,
                                unsigned samples) {
    Matrix matrix;
    base.samples = samples;
    matrix.workloads(workloads)
        .base_params(base)
        .num_cores({8})
        .designs({DesignVariant::baseline(), DesignVariant::synchronized()});
    return matrix.expand();
  };
  setup.specs = both_designs({"mrpfltr", "sqrt32", "mrpdln"}, 512);
  for (RunSpec& spec : both_designs({"streaming", "clip8"}, 2048)) {
    setup.specs.push_back(std::move(spec));
  }
  Matrix scaling;
  base.samples = 512;
  scaling.workload("sleepgen")
      .base_params(base)
      .num_cores({8, 16, 32, 48, 64})
      .design(DesignVariant::xbar_only());
  for (RunSpec& spec : scaling.expand()) setup.specs.push_back(std::move(spec));
  return setup;
}

/// Times `kCheapSetupRepeats` set-ups, keeps the last, returns the median.
template <class Make, class Setup>
double time_cheap_setup(Make&& make, Setup& setup) {
  std::vector<double> samples;
  for (unsigned k = 0; k < kCheapSetupRepeats; ++k) {
    const Clock::time_point start = Clock::now();
    setup = make();
    samples.push_back(seconds_since(start));
  }
  return median(samples);
}

}  // namespace

Outcome run_paper_sweep(const Options& options) {
  Outcome out;
  EndToEnd e2e;
  MergedOutputs merged;
  std::vector<double> efficiency;

  const TracePhases phases = run_phases(options, e2e, [&](bool traced) {
    SweepSetup setup;
    double setup_s = 0.0;
    {
      ScopedSpan span("setup");
      setup_s = time_cheap_setup([&] { return paper_setup(options.seed); }, setup);
    }
    const Clock::time_point start = Clock::now();
    SweepResult sweep;
    std::string csv;
    {
      ScopedSpan span("engine.run_timed");
      sweep = Engine(setup.registry).run_timed(setup.specs);
    }
    {
      ScopedSpan span("record.to_csv");
      csv = to_csv(sweep.records);
    }
    const double wall = seconds_since(start);

    if (!traced) {
      e2e.add_rep(setup_s, wall, total_cycles(sweep.records),
                  static_cast<double>(sweep.records.size()));
      e2e.latency_s.insert(e2e.latency_s.end(), sweep.perf.run_wall_seconds.begin(),
                           sweep.perf.run_wall_seconds.end());
    } else {
      const double busy = std::accumulate(sweep.perf.run_wall_seconds.begin(),
                                          sweep.perf.run_wall_seconds.end(), 0.0);
      efficiency.push_back(share(busy, sweep.perf.wall_seconds));
    }
    merged.add(std::move(csv), records_ok(sweep.records));
    return wall;
  });
  const double rss = peak_rss_mb();

  const SweepSetup setup = paper_setup(options.seed);
  const std::string reference = to_csv(Engine(setup.registry).run(setup.specs));
  out.rows.add(merged.check(reference));

  if (!options.trace) {
    e2e.fill(out.metrics, rss);
    return out;
  }
  out.spans = Tracer::global().take();
  const std::size_t traced_spans = out.spans.size();
  out.metrics["engine.parallel_efficiency"] = {median(efficiency), "frac"};
  stage_split(out, setup.specs, setup.registry);
  no_batch(out.metrics);
  no_spool(out.metrics);
  no_campaign(out.metrics);
  fill_trace_overhead(out.metrics, phases, traced_spans);
  return out;
}

// --- cohort_batch --------------------------------------------------------------

namespace {

/// One cohort request: `lanes` patients of one workload on one design point.
struct Cohort {
  std::string workload;
  unsigned lanes = 1;
  unsigned samples = 256;
  DesignVariant design;
  std::uint64_t seed = 0;
};

/// Per workload: one 512-lane cohort, eight of 64, twenty-four of 8 and
/// sixteen single patients, largest first. The counts put the median
/// request latency inside the 8-lane class and the 90th percentile inside
/// the 64-lane class, not on a boundary between classes. Cohorts of 8
/// lanes or fewer vary their sample count and design (both
/// `batch_group_key` fields) so each forms its own group.
std::vector<Cohort> cohort_plan(std::uint64_t seed) {
  std::vector<Cohort> plan;
  const std::pair<unsigned, unsigned> kShape[] = {{512, 1}, {64, 8}, {8, 24}, {1, 16}};
  for (const auto& [lanes, count] : kShape) {
    for (const char* workload : {"sleepgen", "streaming.uniform"}) {
      for (unsigned k = 0; k < count; ++k) {
        Cohort cohort;
        cohort.workload = workload;
        cohort.lanes = lanes;
        cohort.samples = lanes > 8 ? 256 : 192 + 16 * (k % 8);
        cohort.design = lanes > 8 || (k / 8) % 2 == 0
                            ? DesignVariant::synchronized()
                            : DesignVariant::baseline();
        cohort.seed = derive_seed(seed, kCohortStream * 1000 + plan.size());
        plan.push_back(std::move(cohort));
      }
    }
  }
  return plan;
}

struct CohortSetup {
  Registry registry;
  std::vector<std::vector<RunSpec>> cohorts;  ///< specs of each request
};

CohortSetup cohort_setup(const std::vector<Cohort>& plan) {
  CohortSetup setup{Registry::with_builtins(), {}};
  for (const Cohort& cohort : plan) {
    ecg::CohortParams params;
    params.seed = cohort.seed;
    Matrix matrix;
    matrix.workload(cohort.workload)
        .num_cores({8})
        .samples({cohort.samples})
        .design(cohort.design)
        .cohort(cohort.lanes, params);
    setup.cohorts.push_back(matrix.expand());
  }
  return setup;
}

std::size_t size_class(unsigned lanes) {
  return lanes <= 1 ? 0 : lanes <= 8 ? 1 : lanes <= 64 ? 2 : 3;
}

}  // namespace

Outcome run_cohort_batch(const Options& options) {
  Outcome out;
  EndToEnd e2e;
  const std::vector<Cohort> plan = cohort_plan(options.seed);
  MergedOutputs merged;
  std::vector<double> efficiency;
  BatchStats traced_stats;

  const TracePhases phases = run_phases(options, e2e, [&](bool traced) {
    CohortSetup setup;
    double setup_s = 0.0;
    {
      ScopedSpan span("setup");
      setup_s = time_cheap_setup([&] { return cohort_setup(plan); }, setup);
    }
    const BatchEngine engine(setup.registry);

    std::vector<BatchResult> results(plan.size());
    std::vector<double> latency(plan.size(), 0.0);
    const Clock::time_point start = Clock::now();
    for (std::size_t c = 0; c < plan.size(); ++c) {
      ScopedSpan span("batch.run", static_cast<std::int64_t>(c));
      const Clock::time_point call = Clock::now();
      results[c] = engine.run(setup.cohorts[c]);
      latency[c] = seconds_since(call);
    }
    const double drain = seconds_since(start);
    std::vector<RunRecord> records;
    for (BatchResult& result : results) {
      for (RunRecord& record : result.records) records.push_back(std::move(record));
    }
    std::string csv;
    {
      ScopedSpan span("record.to_csv");
      csv = to_csv(records);
    }
    const double wall = seconds_since(start);

    if (!traced) {
      e2e.add_rep(setup_s, wall, total_cycles(records),
                  static_cast<double>(records.size()));
      e2e.latency_s.insert(e2e.latency_s.end(), latency.begin(), latency.end());
    } else {
      efficiency.push_back(
          share(std::accumulate(latency.begin(), latency.end(), 0.0), drain));
      traced_stats = {};
      for (const BatchResult& result : results) {
        traced_stats.groups += result.stats.groups;
        traced_stats.batched_runs += result.stats.batched_runs;
        traced_stats.scalar_runs += result.stats.scalar_runs;
        traced_stats.diverged_lanes += result.stats.diverged_lanes;
        traced_stats.group_bails += result.stats.group_bails;
        traced_stats.emulated_instructions += result.stats.emulated_instructions;
      }
    }
    merged.add(std::move(csv), records_ok(records));
    return wall;
  });
  const double rss = peak_rss_mb();
  out.spans = Tracer::global().take();
  const std::size_t traced_spans = out.spans.size();

  // Reference: the scalar engine, one cohort at a time. A traced run also
  // times the batch engine on each cohort, serially, for the per-size-class
  // speedups.
  Tracer::global().set_enabled(false);
  const CohortSetup setup = cohort_setup(plan);
  const Engine scalar(setup.registry);
  const BatchEngine batch(setup.registry);
  std::vector<RunRecord> reference;
  double scalar_s[4] = {}, batch_s[4] = {};
  for (std::size_t c = 0; c < plan.size(); ++c) {
    Clock::time_point start = Clock::now();
    std::vector<RunRecord> records = scalar.run(setup.cohorts[c]);
    scalar_s[size_class(plan[c].lanes)] += seconds_since(start);
    for (RunRecord& record : records) reference.push_back(std::move(record));
    if (options.trace) {
      start = Clock::now();
      (void)batch.run(setup.cohorts[c]);
      batch_s[size_class(plan[c].lanes)] += seconds_since(start);
    }
  }
  const std::string reference_csv = to_csv(reference);
  out.rows.add(merged.check(reference_csv));

  if (!options.trace) {
    e2e.fill(out.metrics, rss);
    return out;
  }
  Metrics& m = out.metrics;
  const double runs =
      static_cast<double>(traced_stats.batched_runs + traced_stats.scalar_runs);
  m["engine.parallel_efficiency"] = {median(efficiency), "frac"};
  m["batch.groups"] = {static_cast<double>(traced_stats.groups), "count"};
  m["batch.batched_frac"] = {share(static_cast<double>(traced_stats.batched_runs), runs), "frac"};
  m["batch.diverged_lanes"] = {static_cast<double>(traced_stats.diverged_lanes), "count"};
  m["batch.group_bails"] = {static_cast<double>(traced_stats.group_bails), "count"};
  m["batch.emulated_instructions"] = {
      static_cast<double>(traced_stats.emulated_instructions), "count"};
  const char* kClassNames[] = {"batch.speedup.p1", "batch.speedup.p8",
                               "batch.speedup.p64", "batch.speedup.p512"};
  for (std::size_t k = 0; k < 4; ++k) {
    m[kClassNames[k]] = {share(scalar_s[k], batch_s[k]), "x"};
  }
  // The stage split runs each cohort's first patient: the platform
  // executors run only group leaders here.
  std::vector<RunSpec> leaders;
  for (const std::vector<RunSpec>& cohort : setup.cohorts) {
    leaders.push_back(cohort.front());
  }
  stage_split(out, leaders, setup.registry);
  no_spool(m);
  no_campaign(m);
  fill_trace_overhead(m, phases, traced_spans);
  return out;
}

// --- spool_tcp -----------------------------------------------------------------

namespace {

/// Warm-up prefix of the horizon group, in cycles.
constexpr std::uint64_t kWarmCycle = 40'000;

/// 240 short specs (six kernels × both designs × 20 inputs) plus one
/// eight-spec horizon group that shares a warm-up prefix.
std::vector<RunSpec> spool_specs(std::uint64_t seed) {
  struct Kind {
    const char* workload;
    unsigned samples;
  };
  constexpr Kind kKinds[] = {{"sqrt32", 16},    {"mrpfltr", 16}, {"mrpdln", 32},
                             {"streaming", 16}, {"clip8", 16},   {"sleepgen", 32}};
  std::vector<RunSpec> specs;
  for (unsigned round = 0; round < 20; ++round) {
    for (const Kind& kind : kKinds) {
      for (const DesignVariant& design :
           {DesignVariant::baseline(), DesignVariant::synchronized()}) {
        RunSpec spec;
        spec.workload = kind.workload;
        spec.params.samples = kind.samples;
        spec.params.generator.seed = derive_seed(seed, kSpecStream + specs.size());
        spec.design = design;
        specs.push_back(std::move(spec));
      }
    }
  }
  RunSpec horizon;
  horizon.workload = "mrpfltr";
  horizon.params.samples = 64;
  horizon.params.generator.seed = derive_seed(seed, kGeneratorStream);
  horizon.checkpoint_at = kWarmCycle;
  for (unsigned k = 0; k < 8; ++k) {
    horizon.max_cycles = 10'000'000 + 1'000'000ull * k;
    specs.push_back(horizon);
  }
  return specs;
}

constexpr unsigned kSweepShards = 24;

}  // namespace

Outcome run_spool_tcp(const Options& options) {
  Outcome out;
  EndToEnd e2e;
  MergedOutputs merged;
  std::vector<double> efficiency, transport_share;
  TransportLog traced_log;
  WorkReport traced_report;
  std::size_t requeues = 0;
  unsigned rep_index = 0;

  const TracePhases phases = run_phases(options, e2e, [&](bool traced) {
    const std::string dir = fresh_dir(options, "spool_tcp", rep_index++);
    const Clock::time_point setup_start = Clock::now();
    Registry registry = Registry::with_builtins();
    const std::vector<RunSpec> specs = spool_specs(options.seed);
    {
      ScopedSpan span("spool.plan");
      SpoolOptions spool_options;
      spool_options.shards = kSweepShards;
      (void)plan_spool(dir, specs, registry, spool_options);
    }
    SpoolServer server(dir);
    server.start();
    const double setup_s = seconds_since(setup_start);

    TransportLog worker_log, merge_log;
    WorkReport report;
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan span("spool.worker");
      TcpTransport tcp("127.0.0.1", server.port());
      TimedTransport timed(tcp, worker_log);
      WorkOptions work;
      work.worker_id = "bench";
      report = work_spool_transport(timed, registry, work);
    }
    const double drain = seconds_since(start);
    std::string csv;
    {
      ScopedSpan span("spool.merge");
      TcpTransport tcp("127.0.0.1", server.port());
      TimedTransport timed(tcp, merge_log);
      csv = merge_spool_transport(timed);
    }
    const double wall = seconds_since(start);
    server.stop();
    fs::remove_all(dir);

    std::vector<RunRecord> records;
    std::vector<bool> ok = parse_merged(csv, records);
    if (!traced) {
      e2e.add_rep(setup_s, wall, total_cycles(records),
                  static_cast<double>(records.size()));
      e2e.latency_s.insert(e2e.latency_s.end(), worker_log.cost_seconds.begin(),
                           worker_log.cost_seconds.end());
    } else {
      const double busy = std::accumulate(worker_log.cost_seconds.begin(),
                                          worker_log.cost_seconds.end(), 0.0);
      efficiency.push_back(share(busy, drain));
      transport_share.push_back(share(worker_log.transport_seconds(), drain));
      traced_log = worker_log;
      traced_log.add(merge_log);
      traced_report = report;
      requeues = requeued_claims({worker_log, merge_log});
    }
    merged.add(std::move(csv), std::move(ok));
    return wall;
  });
  const double rss = peak_rss_mb();

  const Registry registry = Registry::with_builtins();
  const std::vector<RunSpec> specs = spool_specs(options.seed);
  const std::string reference = to_csv(Engine(registry).run(specs));
  out.rows.add(merged.check(reference));

  if (!options.trace) {
    e2e.fill(out.metrics, rss);
    return out;
  }
  out.spans = Tracer::global().take();
  const std::size_t traced_spans = out.spans.size();
  const std::map<std::string, SelfTime> self = self_time_by_name(out.spans);
  Metrics& m = out.metrics;
  m["engine.parallel_efficiency"] = {median(efficiency), "frac"};
  fill_spool_metrics(m, traced_log, transport_share, efficiency);
  m["spool.plan_s"] = {mean_self(self, "spool.plan"), "s"};
  m["spool.merge_s"] = {mean_self(self, "spool.merge"), "s"};
  m["spool.rows_reused"] = {static_cast<double>(traced_report.rows_reused), "count"};
  m["spool.warm_resumed"] = {static_cast<double>(traced_report.warm_resumed), "count"};
  m["spool.requeues"] = {static_cast<double>(requeues), "count"};
  stage_split(out, specs, registry);
  no_batch(m);
  no_campaign(m);
  fill_trace_overhead(m, phases, traced_spans);
  return out;
}

// --- fault_campaign ------------------------------------------------------------

Outcome run_fault_campaign(const Options& options) {
  Outcome out;
  EndToEnd e2e;
  const CampaignConfig config = campaign_config(options.seed);
  MergedOutputs merged;
  std::vector<double> efficiency, transport_share;
  TransportLog traced_log;
  std::size_t rows_reused = 0;
  std::size_t requeues = 0;
  unsigned rep_index = 0;
  RecordedRun recorded;
  sim::Snapshot clean_final;

  const TracePhases phases = run_phases(options, e2e, [&](bool traced) {
    const std::string dir = fresh_dir(options, "fault_campaign", rep_index++);
    const Clock::time_point setup_start = Clock::now();
    Registry registry = Registry::with_builtins();
    {
      ScopedSpan span("campaign.record_one");
      recorded = record_one(campaign_spec(options.seed), registry).recorded;
    }
    {
      ScopedSpan span("campaign.clean_final_state");
      clean_final = clean_final_state(recorded, registry);
    }
    {
      ScopedSpan span("campaign.plan_spool");
      CampaignSpoolOptions spool_options;
      spool_options.shards = kCampaignShards;
      (void)plan_campaign_spool(dir, recorded, config, registry, spool_options);
    }
    const double setup_s = seconds_since(setup_start);

    TransportLog worker_log, merge_log;
    CampaignWorkReport report;
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan span("spool.worker");
      FsTransport local(dir);
      TimedTransport timed(local, worker_log);
      CampaignWorkOptions work;
      work.worker_id = "bench";
      work.jobs = 1;
      report = work_campaign_transport(timed, registry, work);
    }
    const double drain = seconds_since(start);
    std::string csv;
    {
      ScopedSpan span("spool.merge");
      FsTransport local(dir);
      TimedTransport timed(local, merge_log);
      csv = merge_campaign_transport(timed);
    }
    const double wall = seconds_since(start);
    fs::remove_all(dir);

    const std::vector<std::string_view> lines = csv_lines(csv);
    std::size_t replayed = 0;
    std::vector<bool> ok;
    for (std::size_t i = 1; i < lines.size(); ++i) {
      const std::string_view outcome = outcome_of(lines[i]);
      replayed += replays(outcome) ? 1 : 0;
      ok.push_back(outcome != "error" && outcome != "core-count-mismatch");
    }
    if (!traced) {
      e2e.add_rep(setup_s, wall,
                  static_cast<double>(replayed) *
                      static_cast<double>(recorded.schedule.final_result.cycles),
                  static_cast<double>(lines.size() - 1));
      e2e.latency_s.insert(e2e.latency_s.end(), worker_log.block_trial_seconds.begin(),
                           worker_log.block_trial_seconds.end());
    } else {
      efficiency.push_back(share(worker_log.block_seconds, drain));
      transport_share.push_back(share(worker_log.transport_seconds(), drain));
      traced_log = worker_log;
      traced_log.add(merge_log);
      rows_reused = report.rows_reused;
      requeues = requeued_claims({worker_log, merge_log});
    }
    merged.add(std::move(csv), std::move(ok));
    return wall;
  });
  const double rss = peak_rss_mb();
  out.spans = Tracer::global().take();
  const std::size_t traced_spans = out.spans.size();
  Tracer::global().set_enabled(false);

  const Registry registry = Registry::with_builtins();
  const std::vector<FaultTrialRow> reference_rows =
      run_campaign(recorded, registry, config, 1);
  const std::string reference = campaign_csv(reference_rows);
  out.rows.add(merged.check(reference));

  if (!options.trace) {
    e2e.fill(out.metrics, rss);
    return out;
  }

  // Trial cost outside the spool: every fault through run_fault_trial
  // directly, serially, against the shared clean final state.
  const std::map<std::string, SelfTime> self = self_time_by_name(out.spans);
  trial_pass(out, recorded, registry, config, clean_final, reference);
  Metrics& m = out.metrics;
  m["engine.parallel_efficiency"] = {median(efficiency), "frac"};
  fill_spool_metrics(m, traced_log, transport_share, efficiency);
  m["spool.plan_s"] = {mean_self(self, "campaign.plan_spool"), "s"};
  m["spool.merge_s"] = {mean_self(self, "spool.merge"), "s"};
  m["spool.rows_reused"] = {static_cast<double>(rows_reused), "count"};
  m["spool.warm_resumed"] = {0.0, "count"};  // campaign spools ship no warm states
  m["spool.requeues"] = {static_cast<double>(requeues), "count"};
  m["campaign.record_s"] = {mean_self(self, "campaign.record_one"), "s"};
  m["campaign.clean_replay_s"] = {mean_self(self, "campaign.clean_final_state"), "s"};
  stage_split(out, {recorded.spec}, registry);
  no_batch(m);
  fill_trace_overhead(m, phases, traced_spans);
  return out;
}

}  // namespace perfbench

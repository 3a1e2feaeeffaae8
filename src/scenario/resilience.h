#pragma once

/// Resilience studies: error models, outcome statistics, and spool-sharded
/// fault campaigns over recorded runs.
///
/// PR 7's fault harness could inject one fault at a time and bisect to its
/// first architectural effect. This module grows that into a *study*
/// subsystem with three pieces:
///
///  1. **Error models** (`ErrorModel`, `expand_campaign`). Beyond the
///     single-event upsets of the original campaign (one DM bit, one IM
///     bit, one perturbed wake-up), campaigns now draw multi-bit upsets
///     (adjacent bits of one word), spatially-correlated bursts (the same
///     pattern across adjacent DM words), whole-row patterns, and — the
///     voltage tie-in — a per-window *rate mode* where every recorded DM
///     deposit bit is an upset candidate and the per-bit upset probability
///     comes from `power::RetentionModel` at the campaign point's supply
///     voltage. Rate-mode sampling is *monotonically coupled*: each
///     candidate bit draws one voltage-independent uniform from a counter
///     hash and is injected iff it falls below p(V), so the injected set
///     at a higher voltage is a subset of the set at any lower voltage —
///     an `--energy-volt` sweep shows monotone non-increasing fault
///     density by construction, not by luck.
///
///  2. **Outcome statistics** (`run_fault_trial`, `aggregate_resilience`).
///     Every injected fault is classified against the clean replay:
///     *masked* (the final normalized state equals the clean run's),
///     *detected* (a core trapped, the image would not load, or a core
///     failed to reach the clean run's halt — an externally observable
///     failure), or *SDC* (silent data corruption: the run "succeeded"
///     but final state differs). `ResilienceReport` aggregates exact
///     counts and rates per (voltage × error model) bucket into a
///     deterministic CSV. The legacy bisection path (`localize`) is kept
///     for pinpointing a fault's first divergent cycle.
///
///  3. **Spool sharding** (`plan_campaign_spool` & friends). A campaign is
///     deterministic given its config and the recorded run, so a
///     million-fault campaign shards by *fault-index range*: the plan
///     writes one `campaign.bin` (config + recorded-run envelope, hashed)
///     plus tiny range files — the campaign payload kind of the one spool
///     protocol sweeps use (scenario/spool.h). Workers re-expand the
///     fault list locally, append rows to `.partial` part files (complete
///     rows of a SIGKILLed worker are adopted on `--resume`), and `merge`
///     reassembles the campaign CSV **byte-identical** to a single-process
///     `--jobs N` run. `sweep_shard work/merge/status` auto-detect
///     campaign spools from the manifest header.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "asm/assembler.h"
#include "power/scaling.h"
#include "scenario/registry.h"
#include "scenario/replay.h"
#include "scenario/shard.h"
#include "sim/event_schedule.h"
#include "sim/snapshot.h"
#include "util/cli.h"

namespace ulpsync::scenario {

/// Display name of a replay-time fault kind ("dm-flip", "wake-delay",
/// "wake-drop") — unconditional, unlike the old tool-local helper that
/// returned "?" for a drop unless a flag happened to be set.
[[nodiscard]] const char* fault_class_name(sim::FaultAction::Kind kind);

/// One error-model axis entry of a campaign.
enum class ErrorModel : std::uint8_t {
  kDmSingle = 0,  ///< flip one bit of one recorded-deposit DM word
  kDmMulti = 1,   ///< flip `multi_bits` adjacent bits of one word
  kDmBurst = 2,   ///< flip the same bit across `burst_words` adjacent words
  kDmRow = 3,     ///< flip one bit across a whole `row_words`-aligned row
  kIm = 4,        ///< flip one bit of one encoded instruction word
  kWakeDelay = 5, ///< deliver one recorded wake-up late
  kWakeDrop = 6,  ///< never deliver one recorded wake-up
  kRate = 7,      ///< voltage-tied per-bit upset rate over all deposits
};

/// Display name ("dm", "dm-multi", "dm-burst", "dm-row", "im",
/// "wake-delay", "wake-drop", "rate").
[[nodiscard]] const char* error_model_name(ErrorModel model);

/// Parses one `error_model_name` string; std::nullopt when unknown.
[[nodiscard]] std::optional<ErrorModel> parse_error_model(
    const std::string& name);

/// Parses a comma list of error-model names. Throws std::runtime_error on
/// an unknown name; an empty list input yields an empty vector.
[[nodiscard]] std::vector<ErrorModel> parse_error_models(
    const std::string& csv);

/// Parses a comma list of voltages ("0.5,0.7,1.0"). Throws
/// std::runtime_error on a malformed or non-positive entry.
[[nodiscard]] std::vector<double> parse_voltage_list(const std::string& csv);

/// Everything that determines a campaign's fault list (together with the
/// recorded run). Serialized into campaign spools, so expansion is
/// reproducible in any worker process.
struct CampaignConfig {
  /// Error-model axis, in emission order.
  std::vector<ErrorModel> models = {ErrorModel::kDmSingle, ErrorModel::kIm,
                                    ErrorModel::kWakeDelay,
                                    ErrorModel::kWakeDrop};
  /// Faults per (voltage × model) point for the sampled models (all but
  /// kRate, whose density the retention model dictates).
  unsigned count = 4;
  std::uint64_t seed = 2024;
  /// Voltage axis. Empty = one unspecified point (voltage 0 in rows;
  /// kRate then evaluates the retention model at its nominal voltage).
  std::vector<double> voltages;
  unsigned multi_bits = 3;        ///< kDmMulti: adjacent bits per upset
  std::uint32_t burst_words = 4;  ///< kDmBurst: adjacent words per burst
  std::uint32_t row_words = 16;   ///< kDmRow: row width (aligns the base)
  power::RetentionParams retention;  ///< kRate: upset-probability model
  /// kRate: multiplies the retention model's p(V) (still clamped to 1) —
  /// lets short CI campaigns reach visible densities without distorting
  /// the model's voltage shape.
  double rate_scale = 1.0;
  /// true: legacy bisection mode (outcomes localized/masked, exact first
  /// divergent cycle). false: outcome mode (masked/detected/sdc against
  /// the clean final state — one replay per trial instead of a bisection).
  bool localize = false;
  /// Bisection checkpoint stride (localize mode only).
  std::uint64_t stride = 4096;
};

/// One expanded campaign entry: either a replay-time FaultAction or an
/// image flip (applied before load, so it has no FaultAction form).
struct CampaignFault {
  std::uint64_t index = 0;  ///< global campaign index (CSV row order)
  ErrorModel model = ErrorModel::kDmSingle;
  double voltage = 0.0;     ///< campaign-point supply; 0 = unspecified
  bool is_im_flip = false;
  sim::FaultAction action;  ///< valid when !is_im_flip
  std::size_t im_word = 0;  ///< is_im_flip: index into Program::image
  unsigned im_bit = 0;      ///< is_im_flip: bit 0..31
  bool no_target = false;   ///< model had no event to target
};

/// Deterministically expands a campaign into its fault list: same config,
/// schedule, and program always produce the same faults, in the same
/// order (voltage axis outermost, then models, then per-model indices).
/// Sampled models draw from a per-model RNG stream seeded independently
/// of the voltage, so their fault sets are identical at every voltage;
/// kRate thins the deposit-bit candidates against the retention model's
/// p(V) with voltage-independent uniforms (see the file comment). DM
/// targets are clamped to the platform's DM size at delivery, never
/// wrapped.
[[nodiscard]] std::vector<CampaignFault> expand_campaign(
    const CampaignConfig& config, const sim::EventSchedule& schedule,
    const assembler::Program& program, unsigned num_cores);

/// One finished trial: the fault plus its classified outcome.
///
/// Outcomes (outcome mode): "masked", "detected" (detail says why: trap,
/// liveness, status), "sdc", "undecodable-image", "no-target", "error".
/// Localize mode instead reports "localized" (with the first divergent
/// cycle and state class) or "masked". "core-count-mismatch" flags
/// incomparable snapshots instead of silently comparing a prefix.
struct FaultTrialRow {
  CampaignFault fault;
  std::string outcome;
  std::uint64_t divergence_cycle = 0;
  int divergence_core = -1;
  std::string state_class;
  std::string detail;
};

/// Classifies which architectural state class differs between a clean and
/// a faulty snapshot pair (first differing core's status/PC/registers,
/// else counters/sync/policy), filling `divergence_core` and
/// `state_class`. Snapshots with differing core counts are not comparable:
/// the row's outcome *and* state class become "core-count-mismatch"
/// (never a silent common-prefix comparison).
void classify_state_divergence(const sim::Snapshot& clean,
                               const sim::Snapshot& faulty,
                               FaultTrialRow& row);

/// Replays the clean recorded run to its final cycle and captures the
/// platform snapshot — the comparison target outcome-mode trials share.
/// (The recorded `final_state_hash` is not enough: events recorded *at*
/// the final cycle are not yet delivered when a cursor stops there, so
/// trials compare cursor-final against cursor-final.)
[[nodiscard]] sim::Snapshot clean_final_state(const RecordedRun& run,
                                              const Registry& registry);

/// Runs one trial: injects `fault` into a replay of `run` and classifies
/// the outcome (see FaultTrialRow). `clean_final` is the shared
/// `clean_final_state` snapshot; it may be null in localize mode (the
/// bisection replays its own clean side). Never throws — failures become
/// "error" rows.
[[nodiscard]] FaultTrialRow run_fault_trial(const RecordedRun& run,
                                            const Registry& registry,
                                            const CampaignFault& fault,
                                            const CampaignConfig& config,
                                            const sim::Snapshot* clean_final);

/// The campaign CSV header (no trailing newline).
[[nodiscard]] std::string campaign_csv_header();
/// One campaign CSV row (no trailing newline). Fields never contain
/// commas or newlines, so the CSV stays line-oriented.
[[nodiscard]] std::string fault_row_csv(const FaultTrialRow& row);

/// Expands and runs a whole campaign on a thread pool; rows land at their
/// fault's index, so the result is identical for any `jobs` (0 = one
/// thread per hardware core).
[[nodiscard]] std::vector<FaultTrialRow> run_campaign(
    const RecordedRun& run, const Registry& registry,
    const CampaignConfig& config, unsigned jobs);

/// Header + rows + trailing newline — the canonical campaign CSV, which
/// sharded merges reproduce byte-identically.
[[nodiscard]] std::string campaign_csv(const std::vector<FaultTrialRow>& rows);

/// Exact outcome counts of one (voltage × error model) bucket.
struct ResilienceBucket {
  double voltage = 0.0;
  ErrorModel model = ErrorModel::kDmSingle;
  std::size_t faults = 0;      ///< all rows in the bucket
  std::size_t no_target = 0;   ///< rows that had nothing to corrupt
  std::size_t masked = 0;
  std::size_t detected = 0;
  std::size_t sdc = 0;
  std::size_t localized = 0;   ///< localize-mode rows
  std::size_t undecodable = 0; ///< IM flips the loader rejected
  std::size_t errors = 0;      ///< trial errors + incomparable snapshots

  /// Rows that actually injected something.
  [[nodiscard]] std::size_t injected() const { return faults - no_target; }
};

/// Deterministic per-bucket aggregation of a campaign's rows, in first-
/// appearance order (= expansion order: voltage outermost, then model).
struct ResilienceReport {
  std::vector<ResilienceBucket> buckets;

  /// CSV: voltage,model,faults,injected,no_target,masked,detected,sdc,
  /// localized,undecodable,errors,masked_rate,detected_rate,sdc_rate —
  /// rates are over injected rows (undecodable images count as detected:
  /// the failure is externally observable before the run even starts).
  [[nodiscard]] std::string to_csv() const;
};

[[nodiscard]] ResilienceReport aggregate_resilience(
    const std::vector<FaultTrialRow>& rows);

// --- campaign spool ----------------------------------------------------------

/// Knobs of `plan_campaign_spool`.
struct CampaignSpoolOptions {
  unsigned shards = 4;
};

/// What `plan_campaign_spool` wrote.
struct CampaignPlanResult {
  std::size_t faults = 0;
  unsigned shards = 0;
  std::uint64_t fingerprint = 0;  ///< config ⊕ recorded-run identity
};

/// Identity of (config, recorded run) — stamped into the campaign spool
/// manifest and every range file.
[[nodiscard]] std::uint64_t campaign_fingerprint(const CampaignConfig& config,
                                                 const RecordedRun& run);

/// Plans a campaign spool at `dir` (created; must not already hold a
/// manifest): writes `campaign.bin` (config + recorded-run envelope,
/// content-hashed) and one contiguous fault-index range file per shard
/// under `queue/`. Deterministic. Throws std::runtime_error on I/O
/// failure and std::invalid_argument on an empty campaign.
CampaignPlanResult plan_campaign_spool(const std::string& dir,
                                       const RecordedRun& run,
                                       const CampaignConfig& config,
                                       const Registry& registry,
                                       const CampaignSpoolOptions& options = {});

/// True when `dir` holds a *campaign* spool manifest (vs a sweep spool or
/// nothing) — how `sweep_shard` dispatches work/merge/status.
[[nodiscard]] bool is_campaign_spool(const std::string& dir);

/// The same dispatch over manifest text a transport served — works for
/// spools that are not locally mounted.
[[nodiscard]] bool is_campaign_manifest(const std::string& manifest_text);

/// Knobs of `work_campaign_spool`.
struct CampaignWorkOptions {
  /// Recorded in the claim's `.owner` file; defaults to the process id.
  std::string worker_id;
  /// Re-queue orphaned claims before working (same operator contract as
  /// the sweep spool: no worker holding them may still be alive).
  bool resume = false;
  /// Trial threads per shard; 0 = one per hardware core.
  unsigned jobs = 1;
  /// Stop after completing this many shards; 0 = drain the queue.
  std::size_t max_shards = 0;
};

/// What one `work_campaign_spool` call did.
struct CampaignWorkReport {
  std::size_t shards_completed = 0;
  std::size_t trials_executed = 0;
  std::size_t rows_reused = 0;  ///< rows adopted from partial part files
};

/// Claims and executes fault-range shards until the queue is empty (or
/// `max_shards`). Safe to call concurrently from any number of processes
/// on the same spool; trial failures become "error" rows, exactly as in a
/// single-process campaign. Throws std::runtime_error on a corrupt spool.
CampaignWorkReport work_campaign_spool(const std::string& dir,
                                       const Registry& registry,
                                       const CampaignWorkOptions& options = {});
/// The same drain over any `SpoolTransport` (scenario/transport.h) — the
/// `dir` overload is this with the filesystem transport. Row bytes are
/// identical over every transport.
CampaignWorkReport work_campaign_transport(
    SpoolTransport& transport, const Registry& registry,
    const CampaignWorkOptions& options = {});

/// Assembles the finished parts into the campaign CSV — byte-identical to
/// `campaign_csv(run_campaign(...))` of the same config and recording.
/// Throws std::runtime_error when any shard's part is missing or
/// inconsistent.
[[nodiscard]] std::string merge_campaign_spool(const std::string& dir);
[[nodiscard]] std::string merge_campaign_transport(SpoolTransport& transport);

/// Campaign-spool progress: `spool_status` of a campaign spool (`specs`
/// counts faults). Throws std::runtime_error for any other spool.
[[nodiscard]] SpoolStatus campaign_spool_status(const std::string& dir);

/// Loads the planned campaign back from `<dir>/campaign.bin` (validated
/// against its content hash). Exposed for tools and tests.
struct PlannedCampaign {
  CampaignConfig config;
  RecordedRun run;
  std::uint64_t fingerprint = 0;
};
[[nodiscard]] PlannedCampaign load_planned_campaign(const std::string& dir);

/// The same parse over an in-memory `campaign.bin` image — what workers
/// that fetched it over a transport validate with. `what` names the image
/// in diagnostics.
[[nodiscard]] PlannedCampaign parse_planned_campaign(
    std::span<const std::uint8_t> bytes, const std::string& what);

// --- shared campaign CLI vocabulary ------------------------------------------

/// Builds a CampaignConfig from the campaign flag vocabulary shared by
/// `fault_campaign` and `sweep_shard plan --campaign`: --faults, --count,
/// --seed, --stride, --volts, --energy-mhz (resolved to the minimum
/// sustaining supply via power::VoltageScaling), --multi-bits,
/// --burst-words, --row-words, --rate-scale, --retention-v,
/// --rate-p-nominal, --rate-sensitivity, --mode outcome|localize
/// (--require-localized implies localize when --mode is absent). Throws
/// std::runtime_error on an unknown class, mode, or infeasible frequency.
[[nodiscard]] CampaignConfig campaign_config_from_flags(
    const util::CliArgs& args);

/// The run a campaign replays: loads --evt when given, else records one
/// from --workload/--samples/--design/--max-cycles (the original
/// fault_campaign recording path). Throws when the recording run fails.
[[nodiscard]] RecordedRun acquire_campaign_run(const util::CliArgs& args,
                                               const Registry& registry);

}  // namespace ulpsync::scenario

#pragma once

/// Cross-process sharded sweeps: the sweep kind of the work spool
/// (scenario/spool.h holds the layout and the shared protocol).
///
/// A sweep shard's payload is a bundle (`queue/shard-0002.bundle`) that
/// carries its specs *with their global sweep indices* plus one serialized
/// `WarmState` per identical-prefix group (`warm_group_key`) captured at
/// plan time, so every worker — in any process, on any machine sharing the
/// spool — resumes the group's shared prefix instead of re-simulating it.
/// The planner keeps each group on one shard and balances shards by spec
/// count (or by measured cost); planning is fully deterministic. Workers
/// stream one CSV row and one cost line per finished run; with a ring
/// stride, long runs also checkpoint into `rings/run-<index>/` and a
/// resumed worker continues them mid-flight. `merge` assembles the parts
/// into one CSV that is **byte-identical** to `to_csv` of a single-process
/// sweep of the same specs, no matter how many workers ran, died, or
/// resumed.

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "scenario/engine.h"
#include "scenario/registry.h"
#include "scenario/spec.h"
#include "scenario/spool.h"
#include "util/wire.h"

namespace ulpsync::scenario {

// --- cost model --------------------------------------------------------------

/// Measured per-run wall times fed back into the planner. Workers append
/// one `cost` line per executed run (`cost_line`) through their
/// transport; `load_cost_model` folds any number of such files (or whole
/// spools) into a model the next `plan_spool` schedules with. Exact
/// spec-identity matches (`spec_cost_key`) predict from their own mean;
/// unseen specs fall back to their workload's measured seconds-per-cycle
/// rate times the spec's cycle budget; unseen workloads predict a uniform
/// constant — with no history at all the planner degrades to the original
/// count-balanced split.
struct CostModel {
  /// Measured wall time of one exact spec identity.
  struct SpecCost {
    double wall_seconds = 0.0;  ///< summed over `runs`
    std::size_t runs = 0;
  };
  /// Aggregate seconds-per-cycle rate of one workload.
  struct WorkloadRate {
    double wall_seconds = 0.0;
    double cycles = 0.0;
    std::size_t runs = 0;
  };
  std::map<std::uint64_t, SpecCost> by_spec;
  std::map<std::string, WorkloadRate> by_workload;

  /// True when no measurement was folded in (planner stays count-balanced).
  [[nodiscard]] bool empty() const {
    return by_spec.empty() && by_workload.empty();
  }
  /// Folds one measured run into the model.
  void add(std::uint64_t key, const std::string& workload,
           std::uint64_t cycles, double wall_seconds);
  /// Predicted wall seconds of one run (always > 0).
  [[nodiscard]] double predict(const RunSpec& spec) const;
};

/// Identity a spec's measured cost is keyed on: the FNV-1a64 of its wire
/// encoding, so re-planned sweeps recognize exactly the specs they ran.
[[nodiscard]] std::uint64_t spec_cost_key(const RunSpec& spec);

/// One cost-feedback line: `cost <key> <workload> <cycles> <wall>`.
[[nodiscard]] std::string cost_line(const RunSpec& spec, std::uint64_t cycles,
                                    double wall_seconds);

/// Folds one `cost` line into the model; returns false (and changes
/// nothing) for malformed or foreign lines, so cost files never gate a
/// plan.
bool absorb_cost_line(CostModel& model, const std::string& line);

/// Loads cost feedback from each path: a file of `cost` lines, or a spool
/// directory (reads its `costs/*.cost` part files). Missing paths and
/// malformed lines are skipped, never errors.
[[nodiscard]] CostModel load_cost_model(const std::vector<std::string>& paths);

/// Knobs of `plan_spool`.
struct SpoolOptions {
  unsigned shards = 4;
  /// Capture one WarmState per identical-prefix group (two or more specs
  /// sharing a `checkpoint_at` prefix) at plan time and ship it in the
  /// group's bundle. Capture failures degrade to cold runs, never errors.
  bool ship_warm_states = true;
  /// Cost feedback from earlier runs (`load_cost_model`). Empty keeps the
  /// original count-balanced split; otherwise units are placed
  /// longest-processing-time-first onto the least-loaded shard by
  /// predicted seconds, and shards are numbered heaviest-first so workers
  /// claim the long poles before the stragglers. Shard membership never
  /// affects merged bytes — `merge_spool` assembles by global index.
  CostModel costs;
};

/// What `plan_spool` wrote.
struct PlanResult {
  std::size_t specs = 0;
  unsigned shards = 0;
  std::size_t warm_states = 0;     ///< groups that got a shipped WarmState
  std::uint64_t fingerprint = 0;   ///< spec-list fingerprint (see below)
};

/// Serializes the sweep into a spool at `dir` (created; must be empty of
/// spool files). Deterministic: the same specs and options produce the
/// same bundles byte for byte. Throws std::runtime_error on I/O failure
/// and std::invalid_argument on an empty spec list.
PlanResult plan_spool(const std::string& dir, const std::vector<RunSpec>& specs,
                      const Registry& registry, const SpoolOptions& options = {});

/// Fingerprint of a spec list — the identity `plan_spool` stamps into the
/// manifest and every bundle. Two spec lists with equal fingerprints
/// serialize identically, so round-trips can be asserted without a
/// field-by-field `RunSpec` comparison.
[[nodiscard]] std::uint64_t spec_fingerprint(const std::vector<RunSpec>& specs);

/// Knobs of `work_spool`.
struct WorkOptions {
  /// Recorded in the claim's `.owner` file; defaults to the process id.
  std::string worker_id;
  /// Re-queue orphaned claims (claimed bundles whose part file never
  /// became final) before working. Only safe when no worker holding them
  /// is still alive — the operator asserts that by passing the flag.
  bool resume = false;
  /// Checkpoint-ring stride for the shard's runs (cycles); 0 disables
  /// rings. Rings live under `<spool>/rings/run-<global index>/`, so a
  /// resumed worker continues interrupted runs mid-flight.
  std::uint64_t ring_stride = 0;
  unsigned ring_keep = 4;
  /// Stop after completing this many shards; 0 = drain the queue.
  std::size_t max_shards = 0;
  /// When non-empty, every run records its external-event schedule to
  /// `<record_dir>/run-<global index>.evt` (a recorded-run envelope,
  /// scenario/replay.h). Recording forces the runs cold and ring-less
  /// (bit-identical rows either way), so it composes with — but disables —
  /// `ring_stride` and shipped warm states for the recorded runs.
  std::string record_dir;
};

/// What one `work_spool` call did.
struct WorkReport {
  std::size_t shards_completed = 0;
  std::size_t runs_executed = 0;
  std::size_t rows_reused = 0;    ///< rows adopted from partial part files
  std::size_t warm_resumed = 0;   ///< runs resumed from shipped WarmStates
};

/// Claims and executes shards until the queue is empty (or `max_shards` is
/// reached). Safe to call concurrently from any number of processes or
/// threads on the same spool. Throws std::runtime_error on a corrupt
/// spool or an I/O failure; individual run failures surface as "error"
/// rows, exactly as in a single-process sweep. The `dir` overload works
/// the directory through the filesystem transport; the transport overload
/// works any `SpoolTransport` (a TCP coordinator included) with identical
/// row bytes.
WorkReport work_spool(const std::string& dir, const Registry& registry,
                      const WorkOptions& options = {});
/// (See `work_spool`.)
WorkReport work_spool_transport(SpoolTransport& transport,
                                const Registry& registry,
                                const WorkOptions& options = {});

/// Assembles the finished parts into the sweep's CSV — byte-identical to
/// `to_csv` of a single-process run of the planned specs. Throws
/// std::runtime_error when any shard's part is missing or inconsistent.
[[nodiscard]] std::string merge_spool(const std::string& dir);
/// The same merge through any transport (a TCP coordinator included).
[[nodiscard]] std::string merge_spool_transport(SpoolTransport& transport);

/// One loaded shard bundle (exposed for tests; workers use `work_spool`).
/// `warm_ref[i]` indexes `warm_states`, or is negative when spec `i` runs
/// cold.
struct ShardBundle {
  unsigned id = 0;
  std::uint64_t fingerprint = 0;
  std::vector<std::uint64_t> indices;  ///< global spec indices, ascending
  std::vector<RunSpec> specs;
  std::vector<std::int32_t> warm_ref;
  std::vector<std::shared_ptr<const WarmState>> warm_states;
};

/// Parses and validates a bundle file (magic, version, trailing content
/// hash). Throws std::invalid_argument on truncation or corruption and
/// std::runtime_error when unreadable. `load_warm_states = false` skips
/// deserializing the shipped snapshots (they can dwarf the spec table) —
/// what `merge_spool` uses, since it only needs indices; the content hash
/// still validates the whole image either way.
[[nodiscard]] ShardBundle load_bundle(const std::string& path,
                                      bool load_warm_states = true);

/// The same parse over an in-memory image — what transports that stream
/// bundles over the wire (and `load_bundle`) validate with. `what` names
/// the image in diagnostics.
[[nodiscard]] ShardBundle parse_bundle_bytes(
    std::span<const std::uint8_t> bytes, const std::string& what,
    bool load_warm_states = true);

/// Stable wire encoding of one RunSpec — the codec shard bundles store
/// specs with, shared with the recorded-run envelope (scenario/replay.h).
/// Serializes the execution-relevant fields (workload, params, design,
/// platform overrides, budgets) plus the energy request (it shapes the
/// record's CSV bytes); host-side plumbing (`resume_from`,
/// `record_events_to`, the cohort tag) is deliberately not on the wire.
void encode_run_spec(util::WireWriter& w, const RunSpec& spec);
/// Decodes `encode_run_spec` output. Throws std::invalid_argument on
/// truncation or out-of-range fields.
[[nodiscard]] RunSpec decode_run_spec(util::WireReader& r);

}  // namespace ulpsync::scenario

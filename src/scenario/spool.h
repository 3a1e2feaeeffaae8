#pragma once

/// The work spool: one protocol that shards a job of globally indexed CSV
/// rows across worker processes, used by sweeps (scenario/shard.h) and
/// fault campaigns (scenario/resilience.h) alike.
///
///     spool/
///       MANIFEST                  kind header, fingerprint, row count,
///                                 shard table and a check line (FNV-1a 64
///                                 of the rest) — written last at plan time
///       queue/shard-0002.<ext>    unclaimed shard payloads
///       claimed/shard-0002.<ext>  a worker claimed it (atomic rename)
///       claimed/shard-0002.owner  informational: who claimed it
///       done/shard-0002.<ext>     shard finished, its part file is final
///       parts/part-0002.partial   rows appended as the shard's rows finish
///       parts/part-0002.csv       the shard's finished rows (atomic rename)
///
/// The two spool kinds differ only in their payload and row function:
///
///  * **sweep** (`.bundle`): a binary bundle of RunSpecs with their global
///    sweep indices plus shipped warm states; one row per run. Manifest
///    rows carry each bundle's content hash.
///  * **campaign** (`.range`): a one-line contiguous fault-index range over
///    the spool's `campaign.bin`; rows are computed in blocks of trials.
///
/// Everything else is shared: the manifest parser, the claim → row →
/// complete drain (`drain_spool`), the merge that places every part's rows
/// at their global indices (`merge_spool_rows`), and the status scan
/// (`spool_status`). Before a worker appends a row, or a merge places one,
/// the shard's payload is checked against the manifest row it was claimed
/// under: its embedded shard id, its spool fingerprint, its row count and
/// (sweep) its content hash must all agree, so a swapped or foreign payload
/// ends in a one-line error instead of rows filed under the wrong indices.
///
/// Rows are deterministic, so a resumed shard adopts the complete rows of
/// its `.partial` file byte-identically, and the merged CSV is identical to
/// a single-process run no matter how many workers ran, died, or resumed.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace ulpsync::scenario {

class SpoolTransport;  // scenario/transport.h

/// What a spool shards: sweep specs or campaign faults.
enum class SpoolKind : std::uint8_t { kSweep, kCampaign };

/// Payload file extension of a kind, without the dot ("bundle", "range") —
/// also the `ClaimedShard::kind` a claim of that kind reports.
[[nodiscard]] std::string payload_extension(SpoolKind kind);

/// "shard-0007": the stem of a shard's payload and owner files.
[[nodiscard]] std::string shard_name(unsigned id);
/// "part-0007": the stem of a shard's partial and final part files.
[[nodiscard]] std::string part_name(unsigned id);
/// "shard-0007.bundle" / "shard-0007.range": a shard's payload file.
[[nodiscard]] std::string payload_file(SpoolKind kind, unsigned id);

/// Splits text into its complete (newline-terminated) lines; a torn
/// trailing fragment is dropped — the spool's torn-row rule.
[[nodiscard]] std::vector<std::string> split_complete_lines(
    const std::string& text);
/// Whole file as text; "" when it cannot be read.
[[nodiscard]] std::string read_text_file(const std::string& path);

/// The spool manifest, parsed.
struct SpoolManifest {
  SpoolKind kind = SpoolKind::kSweep;
  std::uint64_t fingerprint = 0;
  std::size_t specs = 0;  ///< rows of the whole job (specs or faults)
  /// One shard-table line.
  struct Row {
    unsigned id = 0;
    std::size_t specs = 0;          ///< rows of this shard
    std::uint64_t bundle_hash = 0;  ///< sweep: FNV-1a64 of the bundle
    std::uint64_t begin = 0;        ///< campaign: first fault index
  };
  std::vector<Row> shards;
};

/// Parses a manifest of either kind from its text. `what` names the spool
/// in diagnostics. Throws std::runtime_error on a malformed manifest.
[[nodiscard]] SpoolManifest parse_spool_manifest_text(const std::string& text,
                                                      const std::string& what);
/// The manifest's text — the inverse of `parse_spool_manifest_text`.
[[nodiscard]] std::string spool_manifest_text(const SpoolManifest& manifest);
/// The kind named by a manifest's header line; nullopt for anything else.
[[nodiscard]] std::optional<SpoolKind> manifest_kind(const std::string& text);

/// Refuses a directory that already holds a manifest, then creates the
/// spool directories (plus `rings/` for sweeps). Plans then write each
/// payload to `queue/` and the manifest last, so a spool without one is
/// unplanned, never half-planned. Throws std::runtime_error.
void create_spool_dirs(const std::string& dir, SpoolKind kind);

/// One shard's observable state, for `spool_status`.
struct ShardState {
  unsigned id = 0;
  std::size_t specs = 0;
  std::string state;            ///< "queued", "claimed", "done", or "lost"
  std::string owner;            ///< contents of the `.owner` file, if any
  bool part_final = false;      ///< the shard's `.csv` part exists
  std::size_t partial_rows = 0; ///< complete rows in its `.partial` file
};

/// Spool-level progress summary.
struct SpoolStatus {
  SpoolKind kind = SpoolKind::kSweep;
  std::uint64_t fingerprint = 0;
  std::size_t specs = 0;  ///< rows of the whole job (specs or faults)
  std::vector<ShardState> shards;

  /// True when every shard's part file is final (a merge will work).
  [[nodiscard]] bool complete() const {
    for (const ShardState& shard : shards) {
      if (!shard.part_final) return false;
    }
    return true;
  }
};

/// Reads the manifest (either kind) and the shard files' states. Throws
/// std::runtime_error on a missing or malformed manifest.
[[nodiscard]] SpoolStatus spool_status(const std::string& dir);

/// What a payload says about its shard: its identity and the global
/// indices of its rows — listed, or (empty `indices`) the contiguous range
/// [first, first + count).
struct ShardPayload {
  unsigned id = 0;                     ///< embedded shard id
  std::uint64_t fingerprint = 0;       ///< embedded spool fingerprint
  std::vector<std::uint64_t> indices;  ///< global row indices, in row order
  std::uint64_t first = 0;             ///< range form: first global index
  std::size_t count = 0;               ///< range form: row count

  /// Rows in the shard.
  [[nodiscard]] std::size_t size() const {
    return indices.empty() ? count : indices.size();
  }
  /// Global index of the shard's row `k`.
  [[nodiscard]] std::uint64_t index(std::size_t k) const {
    return indices.empty() ? first + k : indices[k];
  }
};

/// Rows (and, for sweeps, one cost-feedback line per row) of one block.
struct RowBlock {
  std::vector<std::string> rows;
  std::vector<std::string> costs;  ///< empty, or one per row
};

/// One spool kind's half of the protocol: how a payload decodes into
/// global row indices, how a block of rows is computed, and the CSV
/// header. `drain_spool` and `merge_spool_rows` do everything else.
class IndexedRowJob {
 public:
  IndexedRowJob() = default;
  IndexedRowJob(const IndexedRowJob&) = delete;
  IndexedRowJob& operator=(const IndexedRowJob&) = delete;
  virtual ~IndexedRowJob() = default;

  /// The spool kind this job works.
  [[nodiscard]] virtual SpoolKind kind() const = 0;
  /// Header line of the merged CSV (no trailing newline).
  [[nodiscard]] virtual std::string csv_header() const = 0;
  /// Parses a payload image (`what` names it in diagnostics). `full`
  /// means a worker will compute its rows next — the job keeps whatever
  /// `compute` needs; a merge passes false and needs only the indices.
  [[nodiscard]] virtual ShardPayload decode(std::span<const std::uint8_t> bytes,
                                            const std::string& what,
                                            bool full) = 0;
  /// Worker setup, once per drain: after the manifest is read and orphans
  /// are adopted, before the first claim.
  virtual void prepare(SpoolTransport& /*transport*/,
                       const SpoolManifest& /*manifest*/) {}
  /// Most rows one `compute` call produces (one heartbeat each).
  [[nodiscard]] virtual std::size_t block_rows() const { return 1; }
  /// Rows [first, first + count) of the shard `decode(..., true)` opened.
  [[nodiscard]] virtual RowBlock compute(std::size_t first,
                                         std::size_t count) = 0;
};

/// What one `drain_spool` call did.
struct DrainReport {
  std::size_t shards_completed = 0;
  std::size_t rows_executed = 0;
  std::size_t rows_reused = 0;  ///< rows adopted from partial part files
};

/// Claims and completes shards until the queue is empty (or `max_shards`
/// are done; 0 = drain). Per shard: check the payload against its manifest
/// row, adopt the claim's complete rows, then heartbeat before each block
/// and append its rows (and cost lines), and complete with the part's
/// FNV-1a64. `resume` re-queues orphaned claims first; `worker_id`
/// defaults to the process id. Throws std::runtime_error on a corrupt or
/// mismatched spool.
DrainReport drain_spool(SpoolTransport& transport, IndexedRowJob& job,
                        const std::string& worker_id, bool resume,
                        std::size_t max_shards);

/// Assembles the finished parts into the job's CSV: every shard's payload
/// is checked as the drain checks it, and its rows land at their global
/// indices. Throws std::runtime_error when a part is missing or any row
/// is uncovered, duplicated, or mismatched.
[[nodiscard]] std::string merge_spool_rows(SpoolTransport& transport,
                                           IndexedRowJob& job);

}  // namespace ulpsync::scenario

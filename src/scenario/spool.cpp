#include "scenario/spool.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "scenario/transport.h"
#include "util/hash.h"

namespace ulpsync::scenario {

namespace fs = std::filesystem;

namespace {

/// The per-kind vocabulary of the manifest and the payload files.
struct KindInfo {
  const char* name;       ///< in diagnostics
  const char* header;     ///< manifest first line
  const char* count_tag;  ///< manifest directive carrying the row count
  const char* extension;  ///< payload file extension
};

const KindInfo& info(SpoolKind kind) {
  static constexpr KindInfo kKinds[] = {
      {"sweep", "ulpsync-spool v2", "specs", "bundle"},
      {"campaign", "ulpsync-campaign-spool v2", "faults", "range"},
  };
  return kKinds[static_cast<std::size_t>(kind)];
}

std::string numbered(const char* stem, unsigned id) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%s-%04u", stem, id);
  return buffer;
}

/// The manifest a transport serves, required to be of `kind`.
SpoolManifest read_manifest(SpoolTransport& transport, SpoolKind kind) {
  SpoolManifest manifest = parse_spool_manifest_text(transport.manifest_text(),
                                                     transport.describe());
  if (manifest.kind != kind) {
    throw std::runtime_error(transport.describe() + " holds a " +
                             info(manifest.kind).name + " spool, not a " +
                             info(kind).name + " spool");
  }
  return manifest;
}

/// Decodes shard `id`'s payload and checks it against the manifest row it
/// was claimed or fetched under — before any of its rows is appended or
/// placed.
ShardPayload checked_payload(IndexedRowJob& job, const SpoolManifest& manifest,
                             unsigned id, std::span<const std::uint8_t> bytes,
                             const std::string& origin, bool full) {
  const auto row = std::find_if(
      manifest.shards.begin(), manifest.shards.end(),
      [id](const SpoolManifest::Row& candidate) { return candidate.id == id; });
  const std::string what = "shard " + std::to_string(id) + " payload from " +
                           origin;
  if (row == manifest.shards.end()) {
    throw std::runtime_error(what + " is not in the spool manifest");
  }
  ShardPayload shard = job.decode(bytes, what, full);
  if (shard.fingerprint != manifest.fingerprint) {
    throw std::runtime_error(what + " does not belong to this spool");
  }
  if (shard.id != id ||
      (manifest.kind == SpoolKind::kSweep &&
       util::fnv1a64(bytes) != row->bundle_hash)) {
    throw std::runtime_error(what + " does not match its manifest row (it "
                             "names shard " + std::to_string(shard.id) +
                             "; swapped payload?)");
  }
  const bool in_range =
      shard.indices.empty()
          ? shard.count <= manifest.specs &&
                shard.first <= manifest.specs - shard.count
          : *std::max_element(shard.indices.begin(), shard.indices.end()) <
                manifest.specs;
  if (shard.size() != row->specs || !in_range ||
      (manifest.kind == SpoolKind::kCampaign && shard.first != row->begin)) {
    throw std::runtime_error(what + " disagrees with its manifest row");
  }
  return shard;
}

/// The manifest's last line: the FNV-1a 64 of every byte before it.
std::string check_line(std::string_view body) {
  return "check " + util::hex64(util::fnv1a64(body)) + "\n";
}

}  // namespace

std::string payload_extension(SpoolKind kind) { return info(kind).extension; }

std::string shard_name(unsigned id) { return numbered("shard", id); }

std::string part_name(unsigned id) { return numbered("part", id); }

std::string payload_file(SpoolKind kind, unsigned id) {
  return shard_name(id) + "." + info(kind).extension;
}

std::vector<std::string> split_complete_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') {
      lines.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return lines;
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// --- manifest ----------------------------------------------------------------

std::optional<SpoolKind> manifest_kind(const std::string& text) {
  const std::string header = text.substr(0, text.find('\n'));
  for (const SpoolKind kind : {SpoolKind::kSweep, SpoolKind::kCampaign}) {
    if (header == info(kind).header) return kind;
  }
  return std::nullopt;
}

SpoolManifest parse_spool_manifest_text(const std::string& text,
                                        const std::string& what) {
  // The check line catches a torn or bit-flipped manifest before any field
  // is read: no such mutant can parse to a different, plausible spool.
  const std::size_t end =
      text.size() < 2 ? std::string::npos : text.rfind('\n', text.size() - 2);
  const std::size_t body = end == std::string::npos ? 0 : end + 1;
  if (body == 0 ||
      text.compare(body, std::string::npos,
                   check_line(std::string_view(text).substr(0, body))) != 0) {
    throw std::runtime_error("spool manifest in " + what +
                             " is torn or corrupt (check line mismatch)");
  }
  std::istringstream in(text.substr(0, body));
  std::string line;
  std::getline(in, line);
  const std::optional<SpoolKind> kind = manifest_kind(line);
  if (!kind) throw std::runtime_error("malformed spool manifest in " + what);
  SpoolManifest manifest;
  manifest.kind = *kind;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "fingerprint") {
      std::string hex;
      fields >> hex;
      manifest.fingerprint = std::strtoull(hex.c_str(), nullptr, 16);
    } else if (tag == info(*kind).count_tag) {
      fields >> manifest.specs;
    } else if (tag == "shards") {
      continue;  // redundant with the shard rows; kept for readability
    } else if (tag == "shard") {
      // Sweep rows: id, spec count, bundle hash. Campaign rows: id and
      // the [begin, end) fault range.
      SpoolManifest::Row row;
      std::string hex;
      std::uint64_t end = 0;
      if (*kind == SpoolKind::kSweep) {
        fields >> row.id >> row.specs >> hex;
        row.bundle_hash = std::strtoull(hex.c_str(), nullptr, 16);
      } else {
        fields >> row.id >> row.begin >> end;
        row.specs = static_cast<std::size_t>(end - row.begin);
      }
      if (fields.fail() || (*kind == SpoolKind::kSweep ? hex.empty()
                                                        : end < row.begin)) {
        throw std::runtime_error("malformed shard row in spool manifest: " +
                                 line);
      }
      manifest.shards.push_back(row);
    } else if (!tag.empty()) {
      throw std::runtime_error("unknown spool manifest directive: " + line);
    }
  }
  if (manifest.shards.empty()) {
    throw std::runtime_error("spool manifest lists no shards in " + what);
  }
  return manifest;
}

std::string spool_manifest_text(const SpoolManifest& manifest) {
  const KindInfo& kind = info(manifest.kind);
  std::ostringstream out;
  out << kind.header << '\n';
  out << "fingerprint " << util::hex64(manifest.fingerprint) << '\n';
  out << kind.count_tag << ' ' << manifest.specs << '\n';
  out << "shards " << manifest.shards.size() << '\n';
  for (const SpoolManifest::Row& row : manifest.shards) {
    out << "shard " << row.id << ' ';
    if (manifest.kind == SpoolKind::kSweep) {
      out << row.specs << ' ' << util::hex64(row.bundle_hash) << '\n';
    } else {
      out << row.begin << ' ' << row.begin + row.specs << '\n';
    }
  }
  const std::string body = out.str();
  return body + check_line(body);
}

// --- plan --------------------------------------------------------------------

void create_spool_dirs(const std::string& dir, SpoolKind kind) {
  if (fs::exists(dir + "/MANIFEST")) {
    throw std::runtime_error("spool " + dir +
                             " is already planned; use a fresh directory");
  }
  std::vector<std::string> subs = {"/queue", "/claimed", "/done", "/parts"};
  if (kind == SpoolKind::kSweep) subs.push_back("/rings");
  for (const std::string& sub : subs) {
    std::error_code ec;
    fs::create_directories(dir + sub, ec);
    if (ec) {
      throw std::runtime_error("cannot create spool directory " + dir + sub +
                               ": " + ec.message());
    }
  }
}

// --- status ------------------------------------------------------------------

SpoolStatus spool_status(const std::string& dir) {
  const SpoolManifest manifest =
      parse_spool_manifest_text(FsTransport(dir).manifest_text(), dir);
  SpoolStatus status;
  status.kind = manifest.kind;
  status.fingerprint = manifest.fingerprint;
  status.specs = manifest.specs;
  for (const SpoolManifest::Row& row : manifest.shards) {
    ShardState shard;
    shard.id = row.id;
    shard.specs = row.specs;
    const std::string payload = payload_file(manifest.kind, row.id);
    if (fs::exists(dir + "/done/" + payload)) {
      shard.state = "done";
    } else if (fs::exists(dir + "/claimed/" + payload)) {
      shard.state = "claimed";
      std::ifstream owner(dir + "/claimed/" + shard_name(row.id) + ".owner");
      std::getline(owner, shard.owner);
    } else if (fs::exists(dir + "/queue/" + payload)) {
      shard.state = "queued";
    } else {
      shard.state = "lost";
    }
    const std::string part = dir + "/parts/" + part_name(row.id);
    shard.part_final = fs::exists(part + ".csv");
    shard.partial_rows =
        split_complete_lines(read_text_file(part + ".partial")).size();
    status.shards.push_back(std::move(shard));
  }
  return status;
}

// --- drain and merge ---------------------------------------------------------

DrainReport drain_spool(SpoolTransport& transport, IndexedRowJob& job,
                        const std::string& worker_id, bool resume,
                        std::size_t max_shards) {
  const SpoolManifest manifest = read_manifest(transport, job.kind());
  const std::string worker =
      worker_id.empty() ? std::to_string(::getpid()) : worker_id;
  if (resume) transport.adopt_orphans();
  job.prepare(transport, manifest);

  DrainReport report;
  while (max_shards == 0 || report.shards_completed < max_shards) {
    const std::optional<ClaimedShard> claimed = transport.claim(worker);
    if (!claimed) break;  // queue drained (or raced dry)
    const unsigned id = claimed->id;
    if (claimed->kind != payload_extension(job.kind())) {
      throw std::runtime_error("shard " + std::to_string(id) + " is a ." +
                               claimed->kind + " payload, not a ." +
                               payload_extension(job.kind()) +
                               " (mixed spool?)");
    }
    const ShardPayload shard = checked_payload(
        job, manifest, id, claimed->payload, transport.describe(), true);
    const std::size_t total = shard.size();

    std::vector<std::string> rows = claimed->rows;
    if (rows.size() > total) {
      throw std::runtime_error("partial part of shard " + std::to_string(id) +
                               " has more rows than the shard");
    }
    report.rows_reused += rows.size();
    // Rows already present are skipped, not re-run: they are
    // deterministic, so adopting them is byte-identical and a resumed
    // spool never repeats finished work. Rows stream back in index order,
    // so a kill loses at most one in-flight block.
    while (rows.size() < total) {
      transport.heartbeat(id);  // a block can outlast a quiet lease
      const std::size_t count = std::min(
          total - rows.size(), std::max<std::size_t>(job.block_rows(), 1));
      RowBlock block = job.compute(rows.size(), count);
      for (std::size_t i = 0; i < block.rows.size(); ++i) {
        transport.append_row(id, block.rows[i]);
        if (i < block.costs.size()) transport.append_cost(id, block.costs[i]);
        rows.push_back(std::move(block.rows[i]));
      }
      report.rows_executed += block.rows.size();
    }
    std::string part;
    for (const std::string& row : rows) part += row + '\n';
    transport.complete(id, util::fnv1a64(part));
    report.shards_completed += 1;
  }
  return report;
}

std::string merge_spool_rows(SpoolTransport& transport, IndexedRowJob& job) {
  const SpoolManifest manifest = read_manifest(transport, job.kind());
  std::vector<std::string> rows(manifest.specs);
  std::vector<bool> filled(manifest.specs, false);
  for (const SpoolManifest::Row& row : manifest.shards) {
    const std::vector<std::string> lines =
        split_complete_lines(transport.part_text(row.id));
    const ShardPayload shard = checked_payload(
        job, manifest, row.id,
        transport.fetch_blob(payload_file(manifest.kind, row.id)),
        transport.describe(), false);
    if (lines.size() != shard.size()) {
      throw std::runtime_error(
          "cannot merge: part of shard " + std::to_string(row.id) + " has " +
          std::to_string(lines.size()) + " rows, its payload expects " +
          std::to_string(shard.size()));
    }
    for (std::size_t k = 0; k < lines.size(); ++k) {
      const std::uint64_t index = shard.index(k);
      if (filled[index]) {
        throw std::runtime_error("cannot merge: shard " +
                                 std::to_string(row.id) +
                                 " covers a duplicate row index");
      }
      rows[index] = lines[k];
      filled[index] = true;
    }
  }
  for (std::size_t i = 0; i < filled.size(); ++i) {
    if (!filled[i]) {
      throw std::runtime_error("cannot merge: row " + std::to_string(i) +
                               " is covered by no shard");
    }
  }
  std::string out = job.csv_header() + '\n';
  for (const std::string& row : rows) out += row + '\n';
  return out;
}

}  // namespace ulpsync::scenario

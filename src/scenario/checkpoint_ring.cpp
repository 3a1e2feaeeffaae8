#include "scenario/checkpoint_ring.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/wire.h"

namespace ulpsync::scenario {

namespace fs = std::filesystem;

namespace {

constexpr util::Frame kRingFrame{{'U', 'L', 'P', 'R', 'I', 'N', 'G', '\n'}, 1};
constexpr std::string_view kManifestHeader = "ulpsync-ring v1";

std::string entry_file_name(std::uint64_t cycle) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "entry-%012" PRIu64 ".ring", cycle);
  return buffer;
}

/// One serialized ring entry: magic, version, identity, cycle, warm-state
/// blob, trailing content hash of everything before it.
std::vector<std::uint8_t> serialize_entry(std::uint64_t identity,
                                          std::uint64_t cycle,
                                          const WarmState& state) {
  util::WireWriter w = kRingFrame.begin();
  w.u64(identity);
  w.u64(cycle);
  w.blob(serialize_warm_state(state));
  return util::Frame::seal(w);
}

/// Parses and validates one entry image against the expected identity.
/// Throws std::invalid_argument on any mismatch.
RingEntry parse_entry(std::span<const std::uint8_t> bytes,
                      std::uint64_t identity) {
  util::WireReader r = kRingFrame.open(bytes, "ring entry");
  if (r.u64() != identity) {
    throw std::invalid_argument("ring entry: identity mismatch");
  }
  RingEntry entry;
  entry.cycle = r.u64();
  entry.state = deserialize_warm_state(r.blob());
  return entry;
}

struct ParsedManifest {
  std::uint64_t identity = 0;
  std::uint64_t stride = 0;
  struct Row {
    std::uint64_t cycle = 0;
    std::string file;
    std::uint64_t hash = 0;
  };
  std::vector<Row> rows;  ///< oldest first
};

std::uint64_t parse_hex64(const std::string& text) {
  return std::strtoull(text.c_str(), nullptr, 16);
}

/// Parses the ring manifest; nullopt when absent or malformed (a torn or
/// foreign manifest means "no usable ring", never an error).
std::optional<ParsedManifest> parse_manifest(const std::string& dir) {
  std::ifstream in(dir + "/MANIFEST");
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line) || line != kManifestHeader) return std::nullopt;
  ParsedManifest manifest;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "identity") {
      std::string hex;
      fields >> hex;
      manifest.identity = parse_hex64(hex);
    } else if (tag == "stride") {
      fields >> manifest.stride;
    } else if (tag == "entry") {
      ParsedManifest::Row row;
      std::string hex;
      fields >> row.cycle >> row.file >> hex;
      if (fields.fail() || row.file.empty()) return std::nullopt;
      row.hash = parse_hex64(hex);
      manifest.rows.push_back(std::move(row));
    } else if (!tag.empty()) {
      return std::nullopt;  // unknown directive: treat as foreign
    }
  }
  return manifest;
}

}  // namespace

void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) throw std::runtime_error("cannot write " + tmp);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    throw std::runtime_error("cannot rename " + tmp + " to " + path + ": " +
                             ec.message());
  }
}

void write_text_atomic(const std::string& path, const std::string& text) {
  write_file_atomic(path, {reinterpret_cast<const std::uint8_t*>(text.data()),
                           text.size()});
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::vector<std::uint8_t> serialize_warm_state(const WarmState& state) {
  util::WireWriter w;
  w.u64(state.lockstep.observed_cycles);
  w.u64(state.lockstep.full_lockstep_cycles);
  for (const std::uint64_t bin : state.lockstep.pc_group_histogram) w.u64(bin);
  w.blob(state.snapshot.serialize());
  return w.take();
}

WarmState deserialize_warm_state(std::span<const std::uint8_t> bytes) {
  util::WireReader r(bytes);
  WarmState state;
  state.lockstep.observed_cycles = r.u64();
  state.lockstep.full_lockstep_cycles = r.u64();
  for (std::uint64_t& bin : state.lockstep.pc_group_histogram) bin = r.u64();
  state.snapshot = sim::Snapshot::deserialize(r.blob());
  return state;
}

std::string ring_run_dir(const std::string& base, std::uint64_t slot) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "run-%012" PRIu64, slot);
  return base + "/" + buffer;
}

std::optional<RingEntry> load_latest_ring_entry(const std::string& dir,
                                                std::uint64_t identity,
                                                std::uint64_t max_cycle) {
  const auto manifest = parse_manifest(dir);
  if (!manifest || manifest->identity != identity) return std::nullopt;
  for (auto row = manifest->rows.rbegin(); row != manifest->rows.rend();
       ++row) {
    if (row->cycle > max_cycle) continue;
    try {
      const auto bytes = read_file_bytes(dir + "/" + row->file);
      if (fnv1a64(bytes) != row->hash) continue;
      return parse_entry(bytes, identity);
    } catch (const std::exception&) {
      continue;  // torn or corrupt entry: fall back to an older one
    }
  }
  return std::nullopt;
}

RingWriter::RingWriter(std::string dir, std::uint64_t identity,
                       std::uint64_t stride, unsigned keep,
                       std::uint64_t start_cycle,
                       const core::LockstepAnalyzer* analyzer)
    : dir_(std::move(dir)),
      identity_(identity),
      stride_(std::max<std::uint64_t>(1, stride)),
      keep_(std::max(1u, keep)),
      next_due_(0),
      analyzer_(analyzer) {
  next_due_ = (start_cycle / stride_ + 1) * stride_;
  // A resumed run extends its own ring; a ring written by a differently
  // configured run is restarted (its entries can never be restored here).
  if (const auto manifest = parse_manifest(dir_);
      manifest && manifest->identity == identity_) {
    for (const auto& row : manifest->rows) {
      entries_.push_back({row.cycle, row.file, row.hash});
    }
  }
}

void RingWriter::write_manifest() const {
  std::ostringstream out;
  out << kManifestHeader << '\n';
  out << "identity " << util::hex64(identity_) << '\n';
  out << "stride " << stride_ << '\n';
  for (const ManifestRow& row : entries_) {
    out << "entry " << row.cycle << ' ' << row.file << ' '
        << util::hex64(row.hash) << '\n';
  }
  write_text_atomic(dir_ + "/MANIFEST", out.str());
}

void RingWriter::offer(sim::Platform& platform,
                       const std::vector<std::uint64_t>& host_words) {
  const std::uint64_t cycle = platform.counters().cycles;
  if (cycle < next_due_) return;
  next_due_ = (cycle / stride_ + 1) * stride_;

  if (!dir_ready_) {
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec) {
      throw std::runtime_error("cannot create ring directory " + dir_ + ": " +
                               ec.message());
    }
    dir_ready_ = true;
  }

  WarmState state;
  state.snapshot = platform.save_snapshot();
  state.snapshot.host_words = host_words;
  if (analyzer_ != nullptr) state.lockstep = analyzer_->metrics();

  const std::vector<std::uint8_t> bytes =
      serialize_entry(identity_, cycle, state);
  const std::string file = entry_file_name(cycle);
  write_file_atomic(dir_ + "/" + file, bytes);

  // Keep the manifest strictly increasing in cycle: a run resumed from an
  // older entry re-offers points an earlier execution already wrote (the
  // bytes are identical — the simulation is bit-exact), so rows at or
  // beyond the offered cycle are superseded, not history.
  std::vector<std::string> stale;
  while (!entries_.empty() && entries_.back().cycle >= cycle) {
    if (entries_.back().cycle != cycle) stale.push_back(entries_.back().file);
    entries_.pop_back();
  }
  entries_.push_back({cycle, file, fnv1a64(bytes)});
  while (entries_.size() > keep_) {
    stale.push_back(entries_.front().file);
    entries_.erase(entries_.begin());
  }
  write_manifest();
  // Entry files are deleted only after the manifest stopped referencing
  // them, so a crash at any point leaves a consistent ring.
  for (const std::string& file_name : stale) {
    std::error_code ec;
    fs::remove(dir_ + "/" + file_name, ec);
  }
}

}  // namespace ulpsync::scenario

#include "sim/snapshot.h"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/hash.h"

namespace ulpsync::sim {

namespace {

constexpr std::uint8_t kMagic[8] = {'U', 'L', 'P', 'S', 'N', 'A', 'P', '\n'};

/// Little-endian append-only byte sink of the wire format.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void boolean(bool v) { u8(v ? 1 : 0); }

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian reader; throws std::invalid_argument on
/// truncation so corrupted images can never read out of range.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    if (pos_ >= bytes_.size()) throw std::invalid_argument("snapshot: truncated image");
    return bytes_[pos_++];
  }
  std::uint16_t u16() {
    const auto lo = u8();
    return static_cast<std::uint16_t>(lo | (u8() << 8));
  }
  std::uint32_t u32() {
    const auto lo = u16();
    return lo | (static_cast<std::uint32_t>(u16()) << 16);
  }
  std::uint64_t u64() {
    const auto lo = u32();
    return lo | (static_cast<std::uint64_t>(u32()) << 32);
  }
  bool boolean() {
    const auto v = u8();
    if (v > 1) throw std::invalid_argument("snapshot: invalid boolean field");
    return v != 0;
  }
  [[nodiscard]] bool at_end() const { return pos_ == bytes_.size(); }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

void write_config(ByteWriter& w, const PlatformConfig& config) {
  w.u32(config.num_cores);
  w.u32(config.im_banks);
  w.u32(config.im_bank_slots);
  w.u32(config.im_line_slots);
  w.u32(config.dm_banks);
  w.u32(config.dm_bank_words);
  w.boolean(config.features.hardware_synchronizer);
  w.boolean(config.features.dxbar_pc_policy);
  w.boolean(config.features.ixbar_partial_broadcast);
  w.boolean(config.im_fetch_broadcast);
  w.boolean(config.dm_read_broadcast);
  w.u16(config.sync_array_base);
  w.u32(config.base_cpi);
  w.u32(config.branch_taken_penalty);
  w.u32(config.wakeup_penalty);
  w.u8(static_cast<std::uint8_t>(config.arbitration));
  w.u32(config.start_stagger_cycles);
  w.boolean(config.fast_forward);
}

PlatformConfig read_config(ByteReader& r) {
  PlatformConfig config;
  config.num_cores = r.u32();
  config.im_banks = r.u32();
  config.im_bank_slots = r.u32();
  config.im_line_slots = r.u32();
  config.dm_banks = r.u32();
  config.dm_bank_words = r.u32();
  config.features.hardware_synchronizer = r.boolean();
  config.features.dxbar_pc_policy = r.boolean();
  config.features.ixbar_partial_broadcast = r.boolean();
  config.im_fetch_broadcast = r.boolean();
  config.dm_read_broadcast = r.boolean();
  config.sync_array_base = r.u16();
  config.base_cpi = r.u32();
  config.branch_taken_penalty = r.u32();
  config.wakeup_penalty = r.u32();
  const std::uint8_t arbitration = r.u8();
  if (arbitration > static_cast<std::uint8_t>(ArbitrationPolicy::kRoundRobin))
    throw std::invalid_argument("snapshot: invalid arbitration policy");
  config.arbitration = static_cast<ArbitrationPolicy>(arbitration);
  config.start_stagger_cycles = r.u32();
  config.fast_forward = r.boolean();
  // (The burst knob is host-side only and not serialized: the wire format
  // predates it and snapshots restore into either setting.)
  const std::string error = config.validate();
  if (!error.empty()) throw std::invalid_argument("snapshot: " + error);
  return config;
}

/// Per-core counter arrays on the wire: the historical format always wrote
/// `kMaxCores == 8` entries; wider platforms write one entry per core so
/// every ≤8-core image (all committed goldens) stays byte-identical.
unsigned per_core_wire_entries(const PlatformConfig& config) {
  return std::max(config.num_cores, 8u);
}

/// Policy-group masks on the wire: 16 bits for ≤16-core platforms (the
/// historical format), 64 bits beyond.
bool wide_masks(const PlatformConfig& config) { return config.num_cores > 16; }

void write_core(ByteWriter& w, const CoreSnapshot& core) {
  for (std::uint16_t reg : core.arch.regs) w.u16(reg);
  w.boolean(core.arch.flags.z);
  w.boolean(core.arch.flags.n);
  w.boolean(core.arch.flags.c);
  w.boolean(core.arch.flags.v);
  w.u32(core.arch.pc);
  w.u16(core.arch.rsync);
  w.u16(core.arch.core_id);
  w.u16(core.arch.num_cores);
  w.u8(static_cast<std::uint8_t>(core.status));
  w.u64(core.stall_age);
  w.u32(core.bubble_cycles);
  w.u32(core.ramp_cycles);
  w.boolean(core.mem_is_store);
  w.u32(core.mem_addr);
  w.u16(core.store_data);
  w.u8(core.load_reg);
  w.u32(core.mem_next_pc);
  w.boolean(core.load_latched);
  w.u16(core.latched_load);
  w.boolean(core.sync_is_checkout);
  w.u32(core.sync_addr);
  w.u32(core.sync_next_pc);
}

CoreSnapshot read_core(ByteReader& r) {
  CoreSnapshot core;
  for (std::uint16_t& reg : core.arch.regs) reg = r.u16();
  core.arch.flags.z = r.boolean();
  core.arch.flags.n = r.boolean();
  core.arch.flags.c = r.boolean();
  core.arch.flags.v = r.boolean();
  core.arch.pc = r.u32();
  core.arch.rsync = r.u16();
  core.arch.core_id = r.u16();
  core.arch.num_cores = r.u16();
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(CoreStatus::kTrapped))
    throw std::invalid_argument("snapshot: invalid core status");
  core.status = static_cast<CoreStatus>(status);
  core.stall_age = r.u64();
  core.bubble_cycles = r.u32();
  core.ramp_cycles = r.u32();
  core.mem_is_store = r.boolean();
  core.mem_addr = r.u32();
  core.store_data = r.u16();
  core.load_reg = r.u8();
  core.mem_next_pc = r.u32();
  core.load_latched = r.boolean();
  core.latched_load = r.u16();
  core.sync_is_checkout = r.boolean();
  core.sync_addr = r.u32();
  core.sync_next_pc = r.u32();
  return core;
}

/// Field table driving counter (de)serialization and the counter diff —
/// one list, so the wire format and the diff cannot drift apart.
struct CounterField {
  const char* name;
  std::uint64_t EventCounters::* member;
};
constexpr CounterField kCounterFields[] = {
    {"cycles", &EventCounters::cycles},
    {"im_bank_accesses", &EventCounters::im_bank_accesses},
    {"im_fetches_delivered", &EventCounters::im_fetches_delivered},
    {"im_broadcast_groups", &EventCounters::im_broadcast_groups},
    {"fetch_conflict_cycles", &EventCounters::fetch_conflict_cycles},
    {"dm_bank_accesses", &EventCounters::dm_bank_accesses},
    {"dm_requests_granted", &EventCounters::dm_requests_granted},
    {"dm_broadcast_reads", &EventCounters::dm_broadcast_reads},
    {"dm_conflict_cycles", &EventCounters::dm_conflict_cycles},
    {"policy_hold_events", &EventCounters::policy_hold_events},
    {"retired_ops", &EventCounters::retired_ops},
    {"core_active_cycles", &EventCounters::core_active_cycles},
    {"core_fetch_stall_cycles", &EventCounters::core_fetch_stall_cycles},
    {"core_mem_stall_cycles", &EventCounters::core_mem_stall_cycles},
    {"core_sync_stall_cycles", &EventCounters::core_sync_stall_cycles},
    {"core_sleep_cycles", &EventCounters::core_sleep_cycles},
    {"core_branch_bubble_cycles", &EventCounters::core_branch_bubble_cycles},
    {"core_wakeup_ramp_cycles", &EventCounters::core_wakeup_ramp_cycles},
    {"lockstep_cycles", &EventCounters::lockstep_cycles},
    {"fetch_cycles", &EventCounters::fetch_cycles},
    {"divergence_events", &EventCounters::divergence_events},
};

void write_counters(ByteWriter& w, const EventCounters& counters,
                    unsigned per_core_entries) {
  for (const CounterField& field : kCounterFields) w.u64(counters.*field.member);
  for (unsigned i = 0; i < per_core_entries; ++i) w.u64(counters.per_core_retired[i]);
  for (unsigned i = 0; i < per_core_entries; ++i) w.u64(counters.per_core_active[i]);
  for (unsigned i = 0; i < per_core_entries; ++i) w.u64(counters.per_core_sleep[i]);
}

EventCounters read_counters(ByteReader& r, unsigned per_core_entries) {
  EventCounters counters;
  for (const CounterField& field : kCounterFields) counters.*field.member = r.u64();
  for (unsigned i = 0; i < per_core_entries; ++i) counters.per_core_retired[i] = r.u64();
  for (unsigned i = 0; i < per_core_entries; ++i) counters.per_core_active[i] = r.u64();
  for (unsigned i = 0; i < per_core_entries; ++i) counters.per_core_sleep[i] = r.u64();
  return counters;
}

std::string core_status_name(CoreStatus status) {
  return std::string(to_string(status));
}

}  // namespace

std::vector<std::uint8_t> Snapshot::serialize() const {
  ByteWriter w;
  for (std::uint8_t byte : kMagic) w.u8(byte);
  w.u32(kFormatVersion);
  write_config(w, config);
  w.u64(im_fingerprint);

  w.u32(static_cast<std::uint32_t>(cores.size()));
  for (const CoreSnapshot& core : cores) write_core(w, core);

  w.u32(static_cast<std::uint32_t>(policy_groups.size()));
  for (const PolicyGroupSnapshot& group : policy_groups) {
    w.boolean(group.active);
    w.u32(group.pc);
    if (wide_masks(config)) {
      w.u64(group.member_mask);
      w.u64(group.unserved_mask);
    } else {
      w.u16(static_cast<std::uint16_t>(group.member_mask));
      w.u16(static_cast<std::uint16_t>(group.unserved_mask));
    }
  }
  w.u32(active_policy_groups);

  write_counters(w, counters, per_core_wire_entries(config));

  w.u64(sync.stats.rmw_ops);
  w.u64(sync.stats.dm_accesses);
  w.u64(sync.stats.checkins);
  w.u64(sync.stats.checkouts);
  w.u64(sync.stats.merged_requests);
  w.u64(sync.stats.wakeup_events);
  w.u64(sync.stats.wakeups_delivered);
  w.u64(sync.stats.max_merge_width);
  w.boolean(sync.inflight_active);
  w.u32(sync.inflight_addr);
  w.u16(sync.inflight_checkin_mask);
  w.u16(sync.inflight_checkout_mask);

  w.boolean(has_pending_stop);
  w.u8(static_cast<std::uint8_t>(pending_stop.status));
  w.u64(pending_stop.cycles);
  w.u32(pending_stop.trap_core);
  w.u8(static_cast<std::uint8_t>(pending_stop.trap));
  w.u32(pending_stop.trap_pc);

  w.boolean(was_lockstep);
  w.u32(rr_pointer);
  w.u64(fast_forwarded_cycles);

  w.u32(static_cast<std::uint32_t>(dm_runs.size()));
  for (const DmRun& run : dm_runs) {
    w.u32(run.addr);
    w.u32(static_cast<std::uint32_t>(run.words.size()));
    for (std::uint16_t word : run.words) w.u16(word);
  }

  w.u32(static_cast<std::uint32_t>(host_words.size()));
  for (std::uint64_t word : host_words) w.u64(word);

  return w.take();
}

Snapshot Snapshot::deserialize(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  for (std::uint8_t expected : kMagic) {
    if (r.u8() != expected)
      throw std::invalid_argument("snapshot: bad magic (not a snapshot image)");
  }
  const std::uint32_t version = r.u32();
  if (version != kFormatVersion) {
    throw std::invalid_argument("snapshot: unsupported format version " +
                                std::to_string(version) + " (expected " +
                                std::to_string(kFormatVersion) + ")");
  }

  Snapshot snap;
  snap.config = read_config(r);
  snap.im_fingerprint = r.u64();

  const std::uint32_t num_cores = r.u32();
  if (num_cores != snap.config.num_cores)
    throw std::invalid_argument("snapshot: core record count disagrees with config");
  snap.cores.reserve(num_cores);
  for (std::uint32_t i = 0; i < num_cores; ++i) snap.cores.push_back(read_core(r));

  const std::uint32_t num_groups = r.u32();
  if (num_groups != snap.config.dm_banks)
    throw std::invalid_argument("snapshot: policy group count disagrees with config");
  snap.policy_groups.reserve(num_groups);
  for (std::uint32_t i = 0; i < num_groups; ++i) {
    PolicyGroupSnapshot group;
    group.active = r.boolean();
    group.pc = r.u32();
    if (wide_masks(snap.config)) {
      group.member_mask = r.u64();
      group.unserved_mask = r.u64();
    } else {
      group.member_mask = r.u16();
      group.unserved_mask = r.u16();
    }
    snap.policy_groups.push_back(group);
  }
  snap.active_policy_groups = r.u32();
  if (snap.active_policy_groups > num_groups)
    throw std::invalid_argument("snapshot: active policy group count out of range");

  snap.counters = read_counters(r, per_core_wire_entries(snap.config));

  snap.sync.stats.rmw_ops = r.u64();
  snap.sync.stats.dm_accesses = r.u64();
  snap.sync.stats.checkins = r.u64();
  snap.sync.stats.checkouts = r.u64();
  snap.sync.stats.merged_requests = r.u64();
  snap.sync.stats.wakeup_events = r.u64();
  snap.sync.stats.wakeups_delivered = r.u64();
  snap.sync.stats.max_merge_width = r.u64();
  snap.sync.inflight_active = r.boolean();
  snap.sync.inflight_addr = r.u32();
  snap.sync.inflight_checkin_mask = r.u16();
  snap.sync.inflight_checkout_mask = r.u16();

  snap.has_pending_stop = r.boolean();
  const std::uint8_t stop_status = r.u8();
  if (stop_status > static_cast<std::uint8_t>(RunResult::Status::kTrap))
    throw std::invalid_argument("snapshot: invalid pending stop status");
  snap.pending_stop.status = static_cast<RunResult::Status>(stop_status);
  snap.pending_stop.cycles = r.u64();
  snap.pending_stop.trap_core = r.u32();
  const std::uint8_t trap_kind = r.u8();
  if (trap_kind > static_cast<std::uint8_t>(TrapKind::kSyncWithoutHardware))
    throw std::invalid_argument("snapshot: invalid trap kind");
  snap.pending_stop.trap = static_cast<TrapKind>(trap_kind);
  snap.pending_stop.trap_pc = r.u32();

  snap.was_lockstep = r.boolean();
  snap.rr_pointer = r.u32();
  snap.fast_forwarded_cycles = r.u64();

  const std::uint64_t dm_words =
      static_cast<std::uint64_t>(snap.config.dm_banks) * snap.config.dm_bank_words;
  const std::uint32_t num_runs = r.u32();
  if (num_runs > dm_words)
    throw std::invalid_argument("snapshot: DM run count out of range");
  snap.dm_runs.reserve(num_runs);
  for (std::uint32_t i = 0; i < num_runs; ++i) {
    DmRun run;
    run.addr = r.u32();
    const std::uint32_t count = r.u32();
    if (count == 0 || run.addr + static_cast<std::uint64_t>(count) > dm_words)
      throw std::invalid_argument("snapshot: DM run out of range");
    run.words.reserve(count);
    for (std::uint32_t j = 0; j < count; ++j) run.words.push_back(r.u16());
    snap.dm_runs.push_back(std::move(run));
  }

  const std::uint32_t num_host_words = r.u32();
  // Each host word occupies 8 bytes that the reader bound-checks, so a
  // corrupt count can over-claim by at most the remaining image size.
  snap.host_words.reserve(std::min<std::size_t>(num_host_words, 1u << 20));
  for (std::uint32_t i = 0; i < num_host_words; ++i)
    snap.host_words.push_back(r.u64());

  if (!r.at_end())
    throw std::invalid_argument("snapshot: trailing bytes after image");
  return snap;
}

std::uint64_t Snapshot::content_hash() const {
  return util::fnv1a64(serialize());
}

// --- Platform capture/restore ----------------------------------------------

Snapshot Platform::save_snapshot() const {
  flush_sleep_accounting();  // settle lazy per-core sleep attribution
  Snapshot snap;
  snap.config = config_;
  snap.im_fingerprint = im_.fingerprint();

  snap.cores.reserve(cores_.size());
  for (const CoreRuntime& core : cores_) {
    CoreSnapshot c;
    c.arch = core.arch;
    c.status = core.status;
    c.stall_age = core.stall_age;
    c.bubble_cycles = core.bubble_cycles;
    c.ramp_cycles = core.ramp_cycles;
    c.mem_is_store = core.mem_is_store;
    c.mem_addr = core.mem_addr;
    c.store_data = core.store_data;
    c.load_reg = core.load_reg;
    c.mem_next_pc = core.mem_next_pc;
    c.load_latched = core.load_latched;
    c.latched_load = core.latched_load;
    c.sync_is_checkout = core.sync_is_checkout;
    c.sync_addr = core.sync_addr;
    c.sync_next_pc = core.sync_next_pc;
    snap.cores.push_back(c);
  }

  snap.policy_groups.reserve(policy_groups_.size());
  for (const PolicyGroup& group : policy_groups_) {
    snap.policy_groups.push_back(
        {group.active, group.pc, group.member_mask, group.unserved_mask});
  }
  snap.active_policy_groups = active_policy_groups_;

  snap.counters = counters_;
  snap.sync = synchronizer_.save_state();

  snap.has_pending_stop = pending_stop_.has_value();
  if (pending_stop_) snap.pending_stop = *pending_stop_;
  snap.was_lockstep = was_lockstep_;
  // The wire format stores the historical raw accumulator (one increment
  // per cycle since reset == cycles mod 2^32); the platform keeps the
  // pointer normalized modulo num_cores internally. Past the 2^32-cycle
  // wrap on a core count that does not divide 2^32, the truncated cycle
  // count's residue drifts from the true modular pointer, so nudge the
  // wire value within its congruence class — below the wrap it is exactly
  // the historical byte pattern.
  {
    const auto raw = static_cast<std::uint32_t>(counters_.cycles);
    std::uint64_t wire = static_cast<std::uint64_t>(raw) -
                         raw % config_.num_cores + rr_pointer_;
    if (wire > 0xFFFFFFFFull) wire -= config_.num_cores;
    snap.rr_pointer = static_cast<unsigned>(wire);
  }
  snap.fast_forwarded_cycles = fast_forwarded_cycles_;

  // Sparse DM dump: maximal runs of non-zero words.
  const std::uint32_t dm_size = dm_.size();
  for (std::uint32_t addr = 0; addr < dm_size;) {
    if (dm_.read(addr) == 0) {
      ++addr;
      continue;
    }
    DmRun run;
    run.addr = addr;
    while (addr < dm_size && dm_.read(addr) != 0) run.words.push_back(dm_.read(addr++));
    snap.dm_runs.push_back(std::move(run));
  }
  return snap;
}

void Platform::restore_snapshot(const Snapshot& snapshot) {
  // Config must match except for the host-side fast-forward/burst knobs
  // (which never change results, only how the host reaches them).
  PlatformConfig mine = config_;
  PlatformConfig theirs = snapshot.config;
  mine.fast_forward = theirs.fast_forward = true;
  mine.burst = theirs.burst = true;
  if (!(mine == theirs))
    throw std::invalid_argument(
        "snapshot: platform configuration mismatch (snapshot was taken on a "
        "differently configured platform)");
  if (snapshot.im_fingerprint != im_.fingerprint())
    throw std::invalid_argument(
        "snapshot: loaded program mismatch (image fingerprint differs)");
  if (snapshot.cores.size() != cores_.size() ||
      snapshot.policy_groups.size() != policy_groups_.size() ||
      snapshot.active_policy_groups > policy_groups_.size())
    throw std::invalid_argument("snapshot: malformed state record");

  for (unsigned i = 0; i < cores_.size(); ++i) {
    const CoreSnapshot& c = snapshot.cores[i];
    CoreRuntime& core = cores_[i];
    core.arch = c.arch;
    core.status = c.status;
    core.stall_age = c.stall_age;
    core.bubble_cycles = c.bubble_cycles;
    core.ramp_cycles = c.ramp_cycles;
    core.mem_is_store = c.mem_is_store;
    core.mem_addr = c.mem_addr;
    core.store_data = c.store_data;
    core.load_reg = c.load_reg;
    core.mem_next_pc = c.mem_next_pc;
    core.load_latched = c.load_latched;
    core.latched_load = c.latched_load;
    core.sync_is_checkout = c.sync_is_checkout;
    core.sync_addr = c.sync_addr;
    core.sync_next_pc = c.sync_next_pc;
  }

  for (unsigned i = 0; i < policy_groups_.size(); ++i) {
    const PolicyGroupSnapshot& g = snapshot.policy_groups[i];
    policy_groups_[i] = PolicyGroup{g.active, g.pc, g.member_mask, g.unserved_mask};
  }
  active_policy_groups_ = snapshot.active_policy_groups;

  counters_ = snapshot.counters;
  synchronizer_.restore_state(snapshot.sync);

  pending_stop_.reset();
  if (snapshot.has_pending_stop) pending_stop_ = snapshot.pending_stop;
  was_lockstep_ = snapshot.was_lockstep;
  // The wire value is the raw accumulator; only its residue matters for
  // arbitration, and normalizing here keeps it equivalent forever.
  rr_pointer_ = snapshot.rr_pointer % config_.num_cores;
  fast_forwarded_cycles_ = snapshot.fast_forwarded_cycles;
  burst_cycles_ = 0;  // host-side accounting, not simulated state
  fetch_region_cycles_ = 0;
  last_policy_latch_retired_.assign(cores_.size(), kNoPolicyLatch);

  // Derived scheduling state: population counts, the active-core list, and
  // the lazy sleep attribution (the restored per-core counters are fully
  // settled, so crediting resumes at the next tick).
  in_tick_ = false;
  active_this_cycle_.fill(0);
  touched_cores_.clear();
  rebuild_schedule_state();
  for (unsigned i = 0; i < cores_.size(); ++i) {
    sleep_pending_from_[i] = counters_.cycles + 1;
  }

  dm_.clear();
  for (const DmRun& run : snapshot.dm_runs) {
    for (std::size_t i = 0; i < run.words.size(); ++i)
      dm_.write(run.addr + static_cast<std::uint32_t>(i), run.words[i]);
  }
}

// --- diffing and divergence bisection ---------------------------------------

bool snapshots_equal(const Snapshot& a, const Snapshot& b, DivergenceScope scope) {
  if (scope == DivergenceScope::kFullState) {
    // The host-side fast-forward/burst knobs and their accounting are not
    // simulated state: two runs that differ only there are behaviorally
    // identical.
    Snapshot x = a;
    Snapshot y = b;
    x.config.fast_forward = y.config.fast_forward = true;
    x.config.burst = y.config.burst = true;
    x.fast_forwarded_cycles = y.fast_forwarded_cycles = 0;
    return x == y;
  }
  return a.cores == b.cores && a.policy_groups == b.policy_groups &&
         a.active_policy_groups == b.active_policy_groups &&
         a.counters == b.counters && a.sync == b.sync &&
         a.has_pending_stop == b.has_pending_stop &&
         (!a.has_pending_stop || a.pending_stop == b.pending_stop) &&
         a.was_lockstep == b.was_lockstep && a.rr_pointer == b.rr_pointer;
}

std::string diff_snapshots(const Snapshot& a, const Snapshot& b,
                           unsigned max_items) {
  std::ostringstream out;
  unsigned items = 0;
  auto line = [&](const std::string& text) {
    if (items < max_items) out << text << "\n";
    ++items;
  };

  if (a.cycle() != b.cycle()) {
    line("cycle: " + std::to_string(a.cycle()) + " vs " +
         std::to_string(b.cycle()));
  }
  const std::size_t cores = std::min(a.cores.size(), b.cores.size());
  if (a.cores.size() != b.cores.size())
    line("core count: " + std::to_string(a.cores.size()) + " vs " +
         std::to_string(b.cores.size()));
  for (std::size_t i = 0; i < cores; ++i) {
    const CoreSnapshot& x = a.cores[i];
    const CoreSnapshot& y = b.cores[i];
    if (x == y) continue;
    std::ostringstream delta;
    delta << "core " << i << ":";
    if (x.status != y.status)
      delta << " status " << core_status_name(x.status) << " vs "
            << core_status_name(y.status);
    if (x.arch.pc != y.arch.pc)
      delta << " pc " << x.arch.pc << " vs " << y.arch.pc;
    for (unsigned reg = 1; reg < isa::kNumRegisters; ++reg) {
      if (x.arch.regs[reg] != y.arch.regs[reg])
        delta << " r" << reg << " " << x.arch.regs[reg] << " vs "
              << y.arch.regs[reg];
    }
    if (x.arch.flags != y.arch.flags) delta << " flags differ";
    if (x.bubble_cycles != y.bubble_cycles || x.ramp_cycles != y.ramp_cycles ||
        x.stall_age != y.stall_age)
      delta << " pipeline microstate differs";
    if (x.mem_addr != y.mem_addr || x.mem_is_store != y.mem_is_store ||
        x.load_latched != y.load_latched)
      delta << " pending-mem state differs";
    line(delta.str());
  }

  for (const CounterField& field : kCounterFields) {
    const std::uint64_t x = a.counters.*field.member;
    const std::uint64_t y = b.counters.*field.member;
    if (x != y)
      line(std::string("counter ") + field.name + ": " + std::to_string(x) +
           " vs " + std::to_string(y));
  }
  if (!(a.sync == b.sync)) line("synchronizer state differs");
  if (a.policy_groups != b.policy_groups) line("D-Xbar policy groups differ");

  // DM: compare through a dense walk of the sparse runs.
  if (a.dm_runs != b.dm_runs) {
    auto value_at = [](const Snapshot& snap, std::uint32_t addr) -> std::uint16_t {
      for (const DmRun& run : snap.dm_runs) {
        if (addr >= run.addr && addr < run.addr + run.words.size())
          return run.words[addr - run.addr];
      }
      return 0;
    };
    // Collect candidate addresses from both run sets.
    std::vector<std::uint32_t> addrs;
    for (const Snapshot* snap : {&a, &b}) {
      for (const DmRun& run : snap->dm_runs) {
        for (std::size_t i = 0; i < run.words.size(); ++i)
          addrs.push_back(run.addr + static_cast<std::uint32_t>(i));
      }
    }
    std::sort(addrs.begin(), addrs.end());
    addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
    for (std::uint32_t addr : addrs) {
      const std::uint16_t x = value_at(a, addr);
      const std::uint16_t y = value_at(b, addr);
      if (x != y)
        line("dm[" + std::to_string(addr) + "]: " + std::to_string(x) + " vs " +
             std::to_string(y));
      if (items > max_items) break;
    }
  }

  if (items > max_items)
    out << "... (" << (items - max_items) << " more differences)\n";
  return out.str();
}

DivergenceReport find_first_divergence(Platform& a, Platform& b,
                                       std::uint64_t max_cycles,
                                       DivergenceScope scope,
                                       std::uint64_t stride) {
  if (stride == 0) stride = 1;
  Snapshot last_a = a.save_snapshot();
  Snapshot last_b = b.save_snapshot();
  {
    PlatformConfig ca = last_a.config, cb = last_b.config;
    ca.fast_forward = cb.fast_forward = true;
    ca.burst = cb.burst = true;
    if (!(ca == cb) || last_a.im_fingerprint != last_b.im_fingerprint ||
        last_a.cycle() != last_b.cycle())
      throw std::invalid_argument(
          "find_first_divergence: platforms are not comparable (different "
          "config, program, or start cycle)");
  }
  if (!snapshots_equal(last_a, last_b, scope)) {
    return {true, last_a.cycle(), diff_snapshots(last_a, last_b)};
  }

  auto finished = [](const Platform& p) {
    for (unsigned i = 0; i < p.config().num_cores; ++i) {
      const CoreStatus status = p.core_status(i);
      if (status != CoreStatus::kHalted && status != CoreStatus::kTrapped)
        return false;
    }
    return true;
  };

  while (last_a.cycle() < max_cycles) {
    if (finished(a) && finished(b)) return {};  // frozen and equal: done
    const std::uint64_t target =
        std::min(max_cycles, last_a.cycle() + stride);
    while (a.counters().cycles < target) a.tick();
    while (b.counters().cycles < target) b.tick();
    Snapshot now_a = a.save_snapshot();
    Snapshot now_b = b.save_snapshot();
    if (!snapshots_equal(now_a, now_b, scope)) {
      // Mismatch inside (last, target]: replay from the last equal pair,
      // single-stepping to the exact first divergent cycle.
      a.restore_snapshot(last_a);
      b.restore_snapshot(last_b);
      while (a.counters().cycles < target) {
        a.tick();
        b.tick();
        Snapshot step_a = a.save_snapshot();
        Snapshot step_b = b.save_snapshot();
        if (!snapshots_equal(step_a, step_b, scope)) {
          return {true, step_a.cycle(), diff_snapshots(step_a, step_b)};
        }
      }
      // Unreachable: the checkpoint mismatch must reappear in the replay.
      return {true, target, diff_snapshots(now_a, now_b)};
    }
    last_a = std::move(now_a);
    last_b = std::move(now_b);
  }
  return {};
}

// --- file I/O ----------------------------------------------------------------

void write_snapshot_file(const std::string& path, const Snapshot& snapshot) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) throw std::runtime_error("snapshot: cannot open " + path + " for writing");
  const std::vector<std::uint8_t> bytes = snapshot.serialize();
  file.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  if (!file) throw std::runtime_error("snapshot: write to " + path + " failed");
}

Snapshot read_snapshot_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("snapshot: cannot open " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(file)),
                                  std::istreambuf_iterator<char>());
  if (file.bad()) throw std::runtime_error("snapshot: read from " + path + " failed");
  return Snapshot::deserialize(bytes);
}

}  // namespace ulpsync::sim

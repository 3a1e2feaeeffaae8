#include "sim/platform.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <map>
#include <sstream>
#include <stdexcept>

namespace ulpsync::sim {

namespace {

/// Widest mask loops ever needed for synchronizer events: its masks carry
/// one bit per synchronizer-capable core.
constexpr unsigned kSyncMaskBits = 16;

/// Stable insertion sort of `items[0..count)` by `bank_of(item)`. Stability
/// preserves the ascending-core collection order, so the result is the
/// (bank, core) order every arbitration rule in this file assumes — one
/// shared definition of that invariant. Request counts are at most
/// num_cores, where insertion sort beats a general sort by a wide margin;
/// in the lockstep common case (one bank) nothing moves.
template <typename Item, typename BankOf>
void stable_sort_by_bank(Item* items, std::size_t count, BankOf bank_of) {
  for (std::size_t i = 1; i < count; ++i) {
    const Item item = items[i];
    const auto bank = bank_of(item);
    std::size_t j = i;
    while (j > 0 && bank_of(items[j - 1]) > bank) {
      items[j] = items[j - 1];
      --j;
    }
    items[j] = item;
  }
}

/// Calls `f(index)` for every set bit of `mask`, lowest first — ascending
/// core order when the bits are cores.
template <typename F>
void for_each_bit(std::uint64_t mask, F&& f) {
  for (; mask != 0; mask &= mask - 1)
    f(static_cast<unsigned>(std::countr_zero(mask)));
}

/// Distinct-value counter clamped at 8 — the lockstep histogram's width —
/// by linear probing into a fixed array. Beyond 8 distinct PCs the count
/// pins at 8, which is exactly what the histogram bin needs.
class DistinctPcProbe {
 public:
  void add(std::uint32_t pc) {
    bool seen = false;
    for (std::size_t k = 0; k < distinct_; ++k) seen = seen || (pcs_[k] == pc);
    if (!seen && distinct_ < pcs_.size()) pcs_[distinct_++] = pc;
  }
  [[nodiscard]] unsigned count() const {
    return static_cast<unsigned>(distinct_);
  }

 private:
  std::array<std::uint32_t, 8> pcs_;
  std::size_t distinct_ = 0;
};

}  // namespace

std::string_view to_string(CoreStatus status) {
  switch (status) {
    case CoreStatus::kReady:      return "ready";
    case CoreStatus::kMemWait:    return "mem-wait";
    case CoreStatus::kPolicyHold: return "policy-hold";
    case CoreStatus::kSyncWait:   return "sync-wait";
    case CoreStatus::kSyncBusy:   return "sync-busy";
    case CoreStatus::kSleeping:   return "sleeping";
    case CoreStatus::kHalted:     return "halted";
    case CoreStatus::kTrapped:    return "trapped";
  }
  return "?";
}

std::string RunResult::to_string() const {
  std::ostringstream out;
  switch (status) {
    case Status::kAllHalted: out << "all halted"; break;
    case Status::kMaxCycles: out << "max cycles reached"; break;
    case Status::kAllAsleep: out << "all cores asleep (deadlock without an external wake-up)"; break;
    case Status::kTrap:
      out << "trap on core " << trap_core << " at pc " << trap_pc << " (kind "
          << static_cast<int>(trap) << ")";
      break;
  }
  out << " after " << cycles << " cycles";
  return out.str();
}

Platform::Platform(const PlatformConfig& config)
    : config_(config),
      im_(config.im_slots(), config.im_banks, config.im_bank_slots,
          config.im_line_slots),
      dm_(config.dm_banks, config.dm_bank_words),
      dm_port_(dm_),
      synchronizer_(dm_port_,
                    std::min(config.num_cores, core::Synchronizer::kMaxCores)),
      cores_(config.num_cores),
      policy_groups_(config.dm_banks) {
  const std::string error = config.validate();
  if (!error.empty()) throw std::invalid_argument("PlatformConfig: " + error);
  fetch_requests_.reserve(config.num_cores);
  fetch_winners_.reserve(config.num_cores);
  dm_requesters_.reserve(config.num_cores);
  touched_cores_.reserve(config.num_cores);
  active_cores_.reserve(config.num_cores);
  bank_runs_.reserve(config.num_cores);
  bank_fetchers_.assign(config.im_banks, 0);
  bank_occupied_.assign((config.im_banks + 63) / 64, 0);
  reset();
}

void Platform::load_program(const assembler::Program& program) {
  assert(program.origin + program.code.size() <= im_.slots());
  im_.load(program.origin, program.code);
  reset();
}

void Platform::load_image(std::uint32_t origin,
                          std::span<const std::uint32_t> image) {
  const std::string error = im_.load_encoded(origin, image);
  if (!error.empty()) throw std::invalid_argument(error);
  reset();
}

void Platform::reset(bool clear_dm) {
  for (unsigned i = 0; i < cores_.size(); ++i) {
    CoreRuntime& core = cores_[i];
    core = CoreRuntime{};
    core.arch.core_id = static_cast<std::uint16_t>(i);
    core.arch.num_cores = static_cast<std::uint16_t>(config_.num_cores);
    core.arch.rsync = config_.sync_array_base;
    core.arch.pc = im_.begin();
    core.ramp_cycles = i * config_.start_stagger_cycles;
  }
  for (auto& group : policy_groups_) group = PolicyGroup{};
  active_policy_groups_ = 0;
  counters_ = EventCounters{};
  synchronizer_.reset_stats();
  pending_stop_.reset();
  was_lockstep_ = true;
  rr_pointer_ = 0;
  fast_forwarded_cycles_ = 0;
  burst_cycles_ = 0;
  fetch_region_cycles_ = 0;
  last_policy_latch_retired_.assign(cores_.size(), kNoPolicyLatch);
  in_tick_ = false;
  active_this_cycle_.fill(0);
  touched_cores_.clear();
  sleep_pending_from_.fill(0);
  pc_refs_.assign(im_.end() - im_.begin(), 0);  // sized to the program
  rebuild_schedule_state();
  if (clear_dm) dm_.clear();
}

void Platform::rebuild_schedule_state() {
  status_counts_.fill(0);
  active_cores_.clear();
  for (unsigned i = 0; i < cores_.size(); ++i) {
    status_counts_[static_cast<unsigned>(cores_[i].status)] += 1;
    if (is_active_status(cores_[i].status)) active_cores_.push_back(i);
  }
}

void Platform::set_status(unsigned core, CoreStatus next) {
  CoreRuntime& c = cores_[core];
  const CoreStatus prev = c.status;
  if (prev == next) return;
  status_counts_[static_cast<unsigned>(prev)] -= 1;
  status_counts_[static_cast<unsigned>(next)] += 1;
  const bool was_active = is_active_status(prev);
  const bool now_active = is_active_status(next);
  if (was_active != now_active) {
    const auto it =
        std::lower_bound(active_cores_.begin(), active_cores_.end(), core);
    if (now_active) {
      active_cores_.insert(it, core);
    } else {
      active_cores_.erase(it);
    }
  }
  // Lazy per-core sleep attribution: a sleeping core accrues one
  // per_core_sleep tick at every end-of-tick accounting point. Instead of
  // walking the sleepers each cycle, remember the first uncredited cycle on
  // entry and settle the whole stretch on exit (or at an external
  // observation — flush_sleep_accounting). The last *completed* accounting
  // point is cycles-1 while inside a tick (this tick's accounting has not
  // run yet) and cycles between ticks.
  if (prev == CoreStatus::kSleeping) {
    const std::uint64_t last = in_tick_ ? counters_.cycles - 1 : counters_.cycles;
    if (sleep_pending_from_[core] <= last) {
      counters_.per_core_sleep[core] += last - sleep_pending_from_[core] + 1;
    }
  } else if (next == CoreStatus::kSleeping) {
    sleep_pending_from_[core] = in_tick_ ? counters_.cycles : counters_.cycles + 1;
  }
  c.status = next;
}

void Platform::flush_sleep_accounting() const {
  const std::uint64_t last = in_tick_ ? counters_.cycles - 1 : counters_.cycles;
  for (unsigned i = 0; i < cores_.size(); ++i) {
    if (cores_[i].status != CoreStatus::kSleeping) continue;
    if (sleep_pending_from_[i] > last) continue;
    counters_.per_core_sleep[i] += last - sleep_pending_from_[i] + 1;
    sleep_pending_from_[i] = last + 1;
  }
}

void Platform::accumulate_lockstep(std::uint64_t cycles, unsigned ready,
                                   unsigned live, unsigned pc_groups) {
  if (lockstep_sink_ == nullptr || cycles == 0) return;
  lockstep_sink_->observed_cycles += cycles;
  lockstep_sink_->pc_group_histogram[std::min(pc_groups, 8u)] += cycles;
  if (ready >= 2 && ready == live && pc_groups == 1)
    lockstep_sink_->full_lockstep_cycles += cycles;
}

void Platform::observe_lockstep_tick() {
  if (lockstep_sink_ == nullptr) return;
  if (active_cores_.size() == 1) {
    // One live non-sleeping core: one PC group when it is ready, zero
    // otherwise; never full lockstep.
    const bool ready = cores_[active_cores_[0]].status == CoreStatus::kReady;
    lockstep_sink_->observed_cycles += 1;
    lockstep_sink_->pc_group_histogram[ready ? 1 : 0] += 1;
    return;
  }
  DistinctPcProbe probe;
  unsigned ready = 0;
  for (const unsigned i : active_cores_) {
    const CoreRuntime& c = cores_[i];
    if (c.status != CoreStatus::kReady) continue;
    ++ready;
    probe.add(c.arch.pc);
  }
  accumulate_lockstep(1, ready, static_cast<unsigned>(active_cores_.size()),
                      probe.count());
}

std::uint16_t Platform::dm_read(std::uint32_t addr) const { return dm_.read(addr); }

void Platform::dm_write(std::uint32_t addr, std::uint16_t value) {
  if (event_sink_ != nullptr)
    event_sink_->on_dm_write(counters_.cycles, addr, value);
  dm_.write(addr, value);
}

void Platform::dm_write_block(std::uint32_t addr,
                              std::span<const std::uint16_t> words) {
  if (event_sink_ != nullptr)
    event_sink_->on_dm_write_block(counters_.cycles, addr, words);
  for (std::size_t i = 0; i < words.size(); ++i)
    dm_.write(addr + static_cast<std::uint32_t>(i), words[i]);
}

std::vector<std::uint16_t> Platform::dm_read_block(std::uint32_t addr,
                                                   std::size_t count) const {
  std::vector<std::uint16_t> out(count);
  for (std::size_t i = 0; i < count; ++i)
    out[i] = dm_.read(addr + static_cast<std::uint32_t>(i));
  return out;
}

const core::SynchronizerStats& Platform::sync_stats() const {
  return synchronizer_.stats();
}

void Platform::wake_core(unsigned core) {
  CoreRuntime& c = cores_[core];
  if (c.status != CoreStatus::kSleeping) return;
  set_status(core, CoreStatus::kReady);
  c.stall_age = 0;
  c.ramp_cycles = config_.wakeup_penalty;
}

void Platform::interrupt(unsigned core) {
  if (event_sink_ != nullptr)
    event_sink_->on_interrupt(counters_.cycles, core);
  wake_core(core);
}

void Platform::interrupt_all() {
  if (event_sink_ != nullptr) event_sink_->on_interrupt_all(counters_.cycles);
  for (unsigned i = 0; i < cores_.size(); ++i) wake_core(i);
}

void Platform::trap(unsigned core, TrapKind kind) {
  set_status(core, CoreStatus::kTrapped);
  if (!pending_stop_) {
    RunResult stop;
    stop.status = RunResult::Status::kTrap;
    stop.trap_core = core;
    stop.trap = kind;
    stop.trap_pc = cores_[core].arch.pc;
    pending_stop_ = stop;
  }
}

void Platform::retire(unsigned core, std::uint32_t next_pc) {
  CoreRuntime& c = cores_[core];
  c.arch.pc = next_pc;
  set_status(core, CoreStatus::kReady);
  c.stall_age = 0;
  counters_.retired_ops += 1;
  counters_.per_core_retired[core] += 1;
  mark_active(core);
}

void Platform::grant_load(unsigned core, std::uint16_t value) {
  complete_load(cores_[core].arch, cores_[core].load_reg, value);
}

void Platform::retire_mem(unsigned core) {
  retire(core, cores_[core].mem_next_pc);
  cores_[core].load_latched = false;
  // The granted access occupied the execute phase; pad to base CPI.
  cores_[core].bubble_cycles = config_.base_cpi - 1;
}

// Phase 1: synchronizer write phase — completions and wake-ups.
void Platform::phase_sync_writeback() {
  const auto events = synchronizer_.begin_cycle();
  if ((events.completed_checkin_mask | events.completed_checkout_mask |
       events.wake_mask) == 0) {
    return;  // the common cycle: no RMW completing, nobody to wake
  }
  const unsigned n =
      std::min<unsigned>(static_cast<unsigned>(cores_.size()), kSyncMaskBits);
  for (unsigned i = 0; i < n; ++i) {
    const auto bit = static_cast<std::uint16_t>(1u << i);
    if (events.completed_checkin_mask & bit) {
      assert(cores_[i].status == CoreStatus::kSyncBusy);
      retire(i, cores_[i].sync_next_pc);
    } else if (events.completed_checkout_mask & bit) {
      assert(cores_[i].status == CoreStatus::kSyncBusy);
      retire(i, cores_[i].sync_next_pc);
      set_status(i, CoreStatus::kSleeping);
    }
  }
  for (unsigned i = 0; i < n; ++i) {
    const auto bit = static_cast<std::uint16_t>(1u << i);
    if ((events.wake_mask & bit) && cores_[i].status == CoreStatus::kSleeping) {
      set_status(i, CoreStatus::kReady);
      cores_[i].stall_age = 0;
      cores_[i].ramp_cycles = config_.wakeup_penalty;
    }
  }
}

// Phase 2+3: I-Xbar arbitration and execution of the served instructions.
void Platform::phase_fetch_and_execute() {
  fetch_winners_.clear();
  fetch_requests_.clear();

  // Collect fetch requests (with their precomputed IM bank) from the active
  // list. Every active core is eligible; only Ready cores with no pending
  // bubble/ramp actually fetch. The list is sorted, so request order (and
  // with it every arbitration decision below) matches a full core scan. A
  // trap removes the core from the list in place, hence the index loop.
  const unsigned eligible = static_cast<unsigned>(active_cores_.size());
  unsigned total_fetchers = 0;
  bool all_same_pc = true;
  std::uint32_t first_pc = 0;

  for (std::size_t p = 0; p < active_cores_.size();) {
    const unsigned i = active_cores_[p];
    CoreRuntime& c = cores_[i];
    if (c.status != CoreStatus::kReady) {
      ++p;
      continue;
    }
    if (c.bubble_cycles > 0) {
      // Squashed-fetch slot after a taken branch; the core stays clocked.
      c.bubble_cycles -= 1;
      mark_active(i);
      counters_.core_branch_bubble_cycles += 1;
      ++p;
      continue;
    }
    if (c.ramp_cycles > 0) {
      // Clock-gate release after a wake-up; the core is still gated.
      c.ramp_cycles -= 1;
      counters_.core_wakeup_ramp_cycles += 1;
      ++p;
      continue;
    }
    const std::uint32_t pc = c.arch.pc;
    if (!im_.in_program(pc)) {
      trap(i, TrapKind::kImOutOfRange);  // removed from the active list
      continue;
    }
    if (total_fetchers == 0) first_pc = pc;
    all_same_pc = all_same_pc && (pc == first_pc);
    ++total_fetchers;
    fetch_requests_.push_back({i, pc, im_.bank_of(pc)});
    ++p;
  }

  if (total_fetchers > 0) counters_.fetch_cycles += 1;
  const bool lockstep =
      total_fetchers >= 2 && all_same_pc && total_fetchers == eligible;
  if (lockstep) counters_.lockstep_cycles += 1;
  if (was_lockstep_ && !lockstep && total_fetchers >= 2)
    counters_.divergence_events += 1;
  was_lockstep_ = lockstep || total_fetchers < 2;

  // Group requests by bank into the shared (bank, core) arbitration order.
  stable_sort_by_bank(fetch_requests_.data(), fetch_requests_.size(),
                      [](const FetchRequest& f) { return f.bank; });

  for (std::size_t begin = 0; begin < fetch_requests_.size();) {
    std::size_t end = begin + 1;
    while (end < fetch_requests_.size() &&
           fetch_requests_[end].bank == fetch_requests_[begin].bank) {
      ++end;
    }
    const std::span<const FetchRequest> fetchers(fetch_requests_.data() + begin,
                                                 end - begin);
    begin = end;

    // Choose the winning address. Fixed priority (the paper's "served in
    // sequence"): the lowest-indexed requester; oldest-first for ablation.
    // With broadcasting, every requester of that address is served by the
    // single bank read.
    const FetchRequest* winner = &fetchers.front();
    if (config_.arbitration == ArbitrationPolicy::kOldestFirst) {
      for (const FetchRequest& f : fetchers) {
        if (cores_[f.core].stall_age > cores_[winner->core].stall_age)
          winner = &f;
      }
    } else if (config_.arbitration == ArbitrationPolicy::kRoundRobin) {
      const unsigned rr_base = rr_pointer_;  // kept normalized < num_cores
      auto rr_rank = [&](unsigned core) {
        return core >= rr_base ? core - rr_base
                               : core + config_.num_cores - rr_base;
      };
      for (const FetchRequest& f : fetchers) {
        if (rr_rank(f.core) < rr_rank(winner->core)) winner = &f;
      }
    }
    const std::uint32_t win_pc = winner->pc;

    // Broadcast eligibility: with per-core PC comparators any same-address
    // subset shares the read; the baseline broadcasts only when the whole
    // group coincides.
    bool group_uniform = true;
    for (const FetchRequest& f : fetchers) group_uniform &= (f.pc == win_pc);
    const bool allow_group_serve =
        config_.im_fetch_broadcast &&
        (config_.features.ixbar_partial_broadcast || group_uniform);

    unsigned served = 0;
    bool first_served = true;
    for (const FetchRequest& f : fetchers) {
      const bool serve = (f.pc == win_pc) && (allow_group_serve || first_served);
      if (serve) {
        fetch_winners_.push_back(f.core);
        cores_[f.core].stall_age = 0;
        ++served;
        first_served = false;
      } else {
        cores_[f.core].stall_age += 1;
        counters_.core_fetch_stall_cycles += 1;
      }
    }
    counters_.im_bank_accesses += 1;
    counters_.im_fetches_delivered += served;
    if (served > 1) counters_.im_broadcast_groups += 1;
    if (served < fetchers.size()) counters_.fetch_conflict_cycles += 1;
  }

  // Execute the served instructions.
  for (unsigned core_index : fetch_winners_) {
    CoreRuntime& c = cores_[core_index];
    const isa::Instruction& instr = im_.at(c.arch.pc);
    const ExecResult result = execute(c.arch, instr);
    mark_active(core_index);

    switch (result.action) {
      case ExecAction::kAdvance: {
        // Taken redirects (branches, JAL, JR) squash the fetch in flight.
        const bool redirect = result.next_pc != c.arch.pc + 1;
        retire(core_index, result.next_pc);
        c.bubble_cycles = config_.base_cpi - 1 +
                          (redirect ? config_.branch_taken_penalty : 0);
        break;
      }
      case ExecAction::kTrap:
        trap(core_index, result.trap);
        break;
      case ExecAction::kHalt:
        counters_.retired_ops += 1;
        counters_.per_core_retired[core_index] += 1;
        set_status(core_index, CoreStatus::kHalted);
        break;
      case ExecAction::kSleep:
        counters_.retired_ops += 1;
        counters_.per_core_retired[core_index] += 1;
        c.arch.pc = result.next_pc;
        set_status(core_index, CoreStatus::kSleeping);
        break;
      case ExecAction::kMemLoad:
      case ExecAction::kMemStore:
        if (!dm_.in_range(result.mem_addr)) {
          trap(core_index, TrapKind::kDmOutOfRange);
          break;
        }
        c.mem_is_store = (result.action == ExecAction::kMemStore);
        c.mem_addr = result.mem_addr;
        c.store_data = result.store_data;
        c.load_reg = result.load_reg;
        c.mem_next_pc = result.next_pc;
        c.load_latched = false;
        set_status(core_index, CoreStatus::kMemWait);  // arbitrated below
        break;
      case ExecAction::kSync:
        if (!config_.features.hardware_synchronizer) {
          trap(core_index, TrapKind::kSyncWithoutHardware);
          break;
        }
        if (!dm_.in_range(result.mem_addr)) {
          trap(core_index, TrapKind::kDmOutOfRange);
          break;
        }
        c.sync_is_checkout = result.sync_is_checkout;
        c.sync_addr = result.mem_addr;
        c.sync_next_pc = result.next_pc;
        set_status(core_index, CoreStatus::kSyncWait);  // submitted below
        break;
    }
  }
}

// Phase 4: submit new and waiting SINC/SDEC requests to the synchronizer.
void Platform::phase_sync_submit() {
  if (status_counts_[static_cast<unsigned>(CoreStatus::kSyncWait)] > 0) {
    for (const unsigned i : active_cores_) {
      CoreRuntime& c = cores_[i];
      if (c.status != CoreStatus::kSyncWait) continue;
      if (synchronizer_.submit(i, c.sync_addr, c.sync_is_checkout)) {
        set_status(i, CoreStatus::kSyncBusy);
        c.stall_age = 0;
        mark_active(i);  // read phase of the RMW
      } else {
        c.stall_age += 1;
        counters_.core_sync_stall_cycles += 1;
      }
    }
  }
  synchronizer_.finish_cycle();
}

// Phase 5: D-Xbar arbitration (ordinary data accesses).
void Platform::phase_dxbar() {
  if (status_counts_[static_cast<unsigned>(CoreStatus::kMemWait)] == 0 &&
      active_policy_groups_ == 0) {
    return;
  }
  dm_requesters_.clear();
  for (const unsigned i : active_cores_) {
    if (cores_[i].status == CoreStatus::kMemWait) {
      dm_bank_of_core_[i] = dm_.bank_of(cores_[i].mem_addr);
      dm_requesters_.push_back(i);
    }
  }

  // Group requesters by DM bank into the shared (bank, core) arbitration
  // order, then slice into per-bank runs.
  stable_sort_by_bank(dm_requesters_.data(), dm_requesters_.size(),
                      [&](unsigned core_index) {
                        return dm_bank_of_core_[core_index];
                      });
  bank_runs_.clear();
  for (unsigned i = 0; i < dm_requesters_.size();) {
    const unsigned bank = dm_bank_of_core_[dm_requesters_[i]];
    unsigned end = i + 1;
    while (end < dm_requesters_.size() &&
           dm_bank_of_core_[dm_requesters_[end]] == bank) {
      ++end;
    }
    bank_runs_.push_back({bank, i, end - i, false});
    i = end;
  }

  const int locked_bank = synchronizer_.locked_bank();

  // First, progress active policy groups (their banks are reserved).
  for (unsigned bank = 0;
       active_policy_groups_ > 0 && bank < policy_groups_.size(); ++bank) {
    PolicyGroup& group = policy_groups_[bank];
    if (!group.active) continue;
    if (static_cast<int>(bank) == locked_bank) {
      // Synchronizer owns the bank this cycle; group members keep waiting.
      continue;
    }
    // Serve the next address: the unserved member with the lowest index.
    unsigned leader = 0;
    while (((group.unserved_mask >> leader) & 1u) == 0) ++leader;
    const std::uint32_t addr = cores_[leader].mem_addr;
    const bool leader_store = cores_[leader].mem_is_store;

    std::uint64_t served_mask = 0;
    for (unsigned i = leader; i < cores_.size(); ++i) {
      if (((group.unserved_mask >> i) & 1u) == 0) continue;
      const CoreRuntime& c = cores_[i];
      if (c.mem_addr != addr) continue;
      // Loads of one address broadcast together; stores serialize.
      if (leader_store) {
        if (i != leader) continue;
      } else if (c.mem_is_store) {
        continue;
      }
      served_mask |= (1ull << i);
    }

    counters_.dm_bank_accesses += 1;
    if (leader_store) {
      dm_.write(addr, cores_[leader].store_data);
    } else {
      const std::uint16_t value = dm_.read(addr);
      unsigned served_count = 0;
      for (unsigned i = 0; i < cores_.size(); ++i) {
        if ((served_mask >> i) & 1u) {
          cores_[i].latched_load = value;
          cores_[i].load_latched = true;
          last_policy_latch_retired_[i] = counters_.per_core_retired[i];
          ++served_count;
        }
      }
      if (served_count > 1) counters_.dm_broadcast_reads += 1;
    }
    for (unsigned i = 0; i < cores_.size(); ++i) {
      if ((served_mask >> i) & 1u) {
        counters_.dm_requests_granted += 1;
        mark_active(i);
        set_status(i, CoreStatus::kPolicyHold);
      }
    }
    group.unserved_mask &= ~served_mask;

    if (group.unserved_mask == 0) {
      // Whole group served: all members retire together, back in lockstep.
      for (unsigned i = 0; i < cores_.size(); ++i) {
        if ((group.member_mask >> i) & 1u) {
          if (!cores_[i].mem_is_store && cores_[i].load_latched)
            grant_load(i, cores_[i].latched_load);
          retire_mem(i);
        }
      }
      group = PolicyGroup{};
      assert(active_policy_groups_ > 0);
      active_policy_groups_ -= 1;
    } else {
      // Held members are clock gated while the rest of the group is served.
      for (unsigned i = 0; i < cores_.size(); ++i) {
        if (((group.member_mask >> i) & 1u) && !active_this_cycle_[i]) {
          counters_.core_mem_stall_cycles += 1;
          cores_[i].stall_age += 1;
        }
      }
    }
    // Non-member requesters to this bank stall this cycle.
    for (BankRun& run : bank_runs_) {
      if (run.bank != bank || run.consumed) continue;
      for (unsigned j = run.first; j < run.first + run.count; ++j) {
        const unsigned core_index = dm_requesters_[j];
        if ((group.member_mask >> core_index) & 1u) continue;
        if (cores_[core_index].status == CoreStatus::kMemWait) {
          counters_.core_mem_stall_cycles += 1;
          cores_[core_index].stall_age += 1;
        }
      }
      run.consumed = true;
    }
  }

  // Ordinary arbitration on the remaining banks.
  for (const BankRun& run : bank_runs_) {
    if (run.consumed) continue;
    const unsigned bank = run.bank;
    const std::span<const unsigned> requesters(dm_requesters_.data() + run.first,
                                               run.count);
    if (policy_groups_[bank].active) continue;  // handled above
    if (static_cast<int>(bank) == locked_bank) {
      for (unsigned core_index : requesters) {
        counters_.core_mem_stall_cycles += 1;
        cores_[core_index].stall_age += 1;
      }
      continue;
    }

    // Is this a conflict? A single address with only loads (broadcast), or a
    // single requester, is conflict-free.
    bool all_loads_same_addr = true;
    const std::uint32_t addr0 = cores_[requesters.front()].mem_addr;
    for (unsigned core_index : requesters) {
      const CoreRuntime& c = cores_[core_index];
      if (c.mem_is_store || c.mem_addr != addr0) all_loads_same_addr = false;
    }
    const bool conflict_free =
        requesters.size() == 1 || (all_loads_same_addr && config_.dm_read_broadcast);

    if (conflict_free) {
      counters_.dm_bank_accesses += 1;
      if (requesters.size() > 1) counters_.dm_broadcast_reads += 1;
      if (cores_[requesters.front()].mem_is_store) {
        dm_.write(addr0, cores_[requesters.front()].store_data);
      }
      std::uint16_t value = 0;
      if (!cores_[requesters.front()].mem_is_store) value = dm_.read(addr0);
      for (unsigned core_index : requesters) {
        if (!cores_[core_index].mem_is_store) grant_load(core_index, value);
        counters_.dm_requests_granted += 1;
        retire_mem(core_index);
      }
      continue;
    }

    counters_.dm_conflict_cycles += 1;

    // Enhanced D-Xbar policy: look for a synchronous group (equal PCs)
    // among the conflicting requesters.
    if (config_.features.dxbar_pc_policy) {
      std::map<std::uint32_t, std::vector<unsigned>> by_pc;
      for (unsigned core_index : requesters)
        by_pc[cores_[core_index].arch.pc].push_back(core_index);
      const std::vector<unsigned>* best = nullptr;
      for (const auto& [pc, members] : by_pc) {
        (void)pc;
        if (members.size() < 2) continue;
        if (best == nullptr || members.size() > best->size()) best = &members;
      }
      if (best != nullptr) {
        PolicyGroup& group = policy_groups_[bank];
        group.active = true;
        active_policy_groups_ += 1;
        group.pc = cores_[best->front()].arch.pc;
        group.member_mask = 0;
        for (unsigned core_index : *best)
          group.member_mask |= (1ull << core_index);
        group.unserved_mask = group.member_mask;
        counters_.policy_hold_events += 1;
        // Everyone (members and non-members) waits this cycle; service
        // starts next cycle. This models the group-detection cycle.
        for (unsigned core_index : requesters) {
          counters_.core_mem_stall_cycles += 1;
          cores_[core_index].stall_age += 1;
        }
        continue;
      }
    }

    // Plain conflict service: grant the highest-priority requester together
    // with any same-address load peers.
    unsigned winner = requesters.front();
    if (config_.arbitration == ArbitrationPolicy::kOldestFirst) {
      for (unsigned core_index : requesters) {
        if (cores_[core_index].stall_age > cores_[winner].stall_age)
          winner = core_index;
      }
    } else if (config_.arbitration == ArbitrationPolicy::kRoundRobin) {
      const unsigned rr_base = rr_pointer_;  // kept normalized < num_cores
      auto rr_rank = [&](unsigned core) {
        return core >= rr_base ? core - rr_base
                               : core + config_.num_cores - rr_base;
      };
      for (unsigned core_index : requesters) {
        if (rr_rank(core_index) < rr_rank(winner)) winner = core_index;
      }
    }
    const std::uint32_t win_addr = cores_[winner].mem_addr;
    const bool win_store = cores_[winner].mem_is_store;
    counters_.dm_bank_accesses += 1;
    std::uint16_t value = 0;
    if (win_store) {
      dm_.write(win_addr, cores_[winner].store_data);
    } else {
      value = dm_.read(win_addr);
    }
    unsigned served_count = 0;
    for (unsigned core_index : requesters) {
      CoreRuntime& c = cores_[core_index];
      const bool serve = !win_store && config_.dm_read_broadcast
                             ? (!c.mem_is_store && c.mem_addr == win_addr)
                             : (core_index == winner);
      if (serve) {
        if (!c.mem_is_store) grant_load(core_index, value);
        counters_.dm_requests_granted += 1;
        retire_mem(core_index);
        ++served_count;
      } else {
        counters_.core_mem_stall_cycles += 1;
        c.stall_age += 1;
      }
    }
    if (served_count > 1) counters_.dm_broadcast_reads += 1;
  }
}

void Platform::tick() {
  counters_.cycles += 1;
  in_tick_ = true;
  if (++rr_pointer_ >= config_.num_cores) rr_pointer_ = 0;

  phase_sync_writeback();
  // Cores still inside the RMW write phase are clocked. (With the 2-cycle
  // RMW every kSyncBusy core retires in the writeback above, so this walk
  // only matters while an RMW is in flight.)
  if (synchronizer_.busy() &&
      status_counts_[static_cast<unsigned>(CoreStatus::kSyncBusy)] > 0) {
    for (const unsigned i : active_cores_) {
      if (cores_[i].status == CoreStatus::kSyncBusy) mark_active(i);
    }
  }
  phase_fetch_and_execute();
  phase_sync_submit();
  phase_dxbar();

  // Cycle-level accounting: aggregate sleep from the population count
  // (per-core attribution is lazy, see flush_sleep_accounting), per-core
  // activity from the touched list — O(clocked cores), not O(num_cores).
  counters_.core_sleep_cycles +=
      status_counts_[static_cast<unsigned>(CoreStatus::kSleeping)];
  for (const unsigned i : touched_cores_) {
    active_this_cycle_[i] = 0;
    counters_.core_active_cycles += 1;
    counters_.per_core_active[i] += 1;
  }
  touched_cores_.clear();

  observe_lockstep_tick();
  in_tick_ = false;
  if (observer_) observer_(*this);
}

std::uint64_t Platform::try_fast_forward(std::uint64_t max_skip) {
  if (max_skip == 0) return 0;
  if (synchronizer_.busy()) return 0;

  // Eligibility: every core must be in a state whose next cycles are
  // provably event-free — halted/trapped/sleeping cores don't change at
  // all (and are not on the active list), and a Ready core inside its
  // branch bubble or wake-up ramp only counts the bubble/ramp down. Any
  // other state (a pending DM access, a sync request, a Ready core about
  // to fetch) needs the full phase logic.
  std::uint64_t skip = max_skip;
  for (const unsigned i : active_cores_) {
    const CoreRuntime& c = cores_[i];
    if (c.status != CoreStatus::kReady) return 0;
    const std::uint64_t idle =
        static_cast<std::uint64_t>(c.bubble_cycles) + c.ramp_cycles;
    if (idle == 0) return 0;  // fetches next cycle
    skip = std::min(skip, idle);
  }
  // With no active core at all the platform is finished or deadlocked;
  // run()'s exit logic owns that case.
  if (active_cores_.empty()) return 0;

  // The per-cycle lockstep observation is constant across the skipped
  // region (statuses and PCs don't change): batch it before mutating.
  if (lockstep_sink_ != nullptr) {
    DistinctPcProbe probe;
    for (const unsigned i : active_cores_) probe.add(cores_[i].arch.pc);
    const auto ready = static_cast<unsigned>(active_cores_.size());
    accumulate_lockstep(skip, ready, ready, probe.count());
  }

  // Batch-apply exactly what `skip` naive ticks would have done: per tick a
  // Ready core first counts its bubble down (clocked, branch-bubble
  // accounting), then its ramp (gated, wake-up-ramp accounting); sleeping
  // cores accrue sleep cycles (aggregate now, per-core attribution lazily);
  // nothing else changes.
  counters_.cycles += skip;
  rr_pointer_ = static_cast<unsigned>((rr_pointer_ + skip) % config_.num_cores);
  counters_.core_sleep_cycles +=
      skip * status_counts_[static_cast<unsigned>(CoreStatus::kSleeping)];
  for (const unsigned i : active_cores_) {
    CoreRuntime& c = cores_[i];
    const auto bubble_part =
        static_cast<unsigned>(std::min<std::uint64_t>(c.bubble_cycles, skip));
    c.bubble_cycles -= bubble_part;
    counters_.core_branch_bubble_cycles += bubble_part;
    counters_.core_active_cycles += bubble_part;
    counters_.per_core_active[i] += bubble_part;
    const auto ramp_part = static_cast<unsigned>(
        std::min<std::uint64_t>(c.ramp_cycles, skip - bubble_part));
    c.ramp_cycles -= ramp_part;
    counters_.core_wakeup_ramp_cycles += ramp_part;
  }
  // Every skipped cycle had zero fetchers, which the lockstep tracker
  // records as "trivially in lockstep".
  was_lockstep_ = true;
  fast_forwarded_cycles_ += skip;
  return skip;
}

std::uint64_t Platform::try_burst(std::uint64_t max_skip) {
  const unsigned cpi = config_.base_cpi;
  if (max_skip < cpi) return 0;
  if (synchronizer_.busy() || active_policy_groups_ != 0) return 0;
  const unsigned ready_count =
      status_counts_[static_cast<unsigned>(CoreStatus::kReady)];
  if (ready_count == 0 || ready_count != active_cores_.size()) return 0;

  // Every active core must be exactly at a fetch boundary (no bubble/ramp
  // countdown, no stall-age carry-over that naive arbitration would reset)
  // and at the head of a straight-line run.
  std::uint32_t min_run = 0xFFFFFFFF;
  for (const unsigned i : active_cores_) {
    const CoreRuntime& c = cores_[i];
    if (c.bubble_cycles != 0 || c.ramp_cycles != 0 || c.stall_age != 0)
      return 0;
    if (!im_.in_program(c.arch.pc)) return 0;  // let the tick trap
    const std::uint32_t run = im_.straight_run(c.arch.pc);
    if (run == 0) return 0;
    min_run = std::min(min_run, run);
  }
  std::uint64_t limit = std::min<std::uint64_t>(min_run, max_skip / cpi);
  if (limit == 0) return 0;

  // Group the fetchers by PC. Cores sharing a PC broadcast off one bank
  // read and advance together; distinct PCs must stay on pairwise-distinct
  // IM banks for the whole burst (checked per step below) so no fetch ever
  // loses arbitration.
  const unsigned num_fetchers = ready_count;
  std::array<std::uint32_t, EventCounters::kMaxCores> group_pc;
  std::array<std::uint16_t, EventCounters::kMaxCores> group_size{};
  unsigned num_groups = 0;
  for (const unsigned i : active_cores_) {
    const std::uint32_t pc = cores_[i].arch.pc;
    unsigned g = 0;
    while (g < num_groups && group_pc[g] != pc) ++g;
    if (g == num_groups) group_pc[num_groups++] = pc;
    group_size[g] += 1;
  }
  unsigned broadcast_groups = 0;
  for (unsigned g = 0; g < num_groups; ++g)
    broadcast_groups += (group_size[g] > 1);
  // Without fetch broadcasting a shared-PC group serves one core per cycle
  // (the rest stall and fall out of phase) — full machinery required.
  if (broadcast_groups > 0 && !config_.im_fetch_broadcast) return 0;

  const bool lockstep = num_fetchers >= 2 && num_groups == 1;
  const bool entered_in_lockstep = was_lockstep_;

  // The tight loop: per step, prove this cycle's fetches conflict-free,
  // then execute one straight-line instruction on every core. (The bank
  // check hashes banks into a 64-bit set; a modulo collision only ends the
  // burst early — never a missed real conflict.)
  std::uint64_t steps = 0;
  while (steps < limit) {
    if (num_groups > 1) {
      std::uint64_t bank_set = 0;
      bool collide = false;
      for (unsigned g = 0; g < num_groups; ++g) {
        const std::uint64_t bit = 1ull << (im_.bank_of(group_pc[g]) & 63u);
        collide = collide || (bank_set & bit) != 0;
        bank_set |= bit;
      }
      if (collide) break;
    }
    for (const unsigned i : active_cores_) {
      CoreRuntime& c = cores_[i];
      (void)execute(c.arch, im_.at(c.arch.pc));  // always advances by 1
      c.arch.pc += 1;
    }
    for (unsigned g = 0; g < num_groups; ++g) group_pc[g] += 1;
    ++steps;
  }
  if (steps == 0) return 0;

  // Batch-apply what `steps * cpi` naive ticks would have recorded: per
  // instruction one fetch cycle (every group one bank access, every core
  // one delivered fetch and a retire) followed by cpi-1 clocked bubble
  // cycles per core; sleeping cores accrue aggregate sleep.
  const std::uint64_t cycles = steps * cpi;
  counters_.cycles += cycles;
  rr_pointer_ = static_cast<unsigned>((rr_pointer_ + cycles) % config_.num_cores);
  counters_.fetch_cycles += steps;
  counters_.im_bank_accesses += steps * num_groups;
  counters_.im_fetches_delivered += steps * num_fetchers;
  counters_.im_broadcast_groups += steps * broadcast_groups;
  counters_.retired_ops += steps * num_fetchers;
  counters_.core_active_cycles += cycles * num_fetchers;
  counters_.core_branch_bubble_cycles += steps * (cpi - 1) * num_fetchers;
  for (const unsigned i : active_cores_) {
    counters_.per_core_retired[i] += steps;
    counters_.per_core_active[i] += cycles;
  }
  counters_.core_sleep_cycles +=
      cycles * status_counts_[static_cast<unsigned>(CoreStatus::kSleeping)];
  if (lockstep) {
    counters_.lockstep_cycles += steps;
    was_lockstep_ = true;
  } else if (num_fetchers >= 2) {
    // Diverged fetchers: every fetch cycle observes non-lockstep. With
    // cpi > 1 the bubble cycles between fetches reset the tracker (zero
    // fetchers is "trivially in lockstep"), so every step but the first
    // counts a divergence event; the first counts one only when the burst
    // entered in lockstep.
    if (cpi > 1) {
      counters_.divergence_events += steps - 1 + (entered_in_lockstep ? 1 : 0);
      was_lockstep_ = true;
    } else {
      counters_.divergence_events += entered_in_lockstep ? 1 : 0;
      was_lockstep_ = false;
    }
  } else {
    was_lockstep_ = true;  // a single fetcher is trivially in lockstep
  }
  // End-of-tick lockstep observations: all cores Ready at constant distinct
  // PC count throughout the burst.
  accumulate_lockstep(cycles, num_fetchers, num_fetchers,
                      std::min(num_groups, 8u));
  burst_cycles_ += cycles;
  // The burst's bubble cycles are exactly the cycles idle fast-forward
  // would otherwise have skipped one batch per instruction (every active
  // core is inside its bubble simultaneously); credit them there when
  // fast-forward is enabled so its accounting — which snapshots serialize —
  // stays identical with bursts on or off.
  if (config_.fast_forward && cpi > 1)
    fast_forwarded_cycles_ += steps * (cpi - 1);
  return cycles;
}

std::uint64_t Platform::try_fetch_region(std::uint64_t max_cycles) {
  if (max_cycles == 0) return 0;
  if (synchronizer_.busy() || active_policy_groups_ != 0) return 0;
  if (active_cores_.empty() ||
      status_counts_[static_cast<unsigned>(CoreStatus::kReady)] !=
          active_cores_.size())
    return 0;

  // Slim executor for the pure fetch regime. No core's status survives a
  // cycle changed here: fetch-ready cores execute only region-safe
  // instructions (ALU/control flow retire in place; plain loads/stores are
  // served the same cycle when conflict-free), the rest count their
  // bubbles/ramps down, sleepers sleep.
  //
  // All per-cycle bookkeeping is bitsets (one bit per core): the fetch
  // candidates are filed under their IM bank in `bank_fetchers_`, whose
  // occupancy bitmap is walked in ascending bank order — the (bank, core)
  // arbitration order of the naive fetch phase. Served cores leave their
  // bank's mask at once and are re-filed under their next PC only after
  // the walk (a core re-filed into a later bank would otherwise fetch twice
  // in one cycle); idle cores whose countdown expires are filed at the end
  // of the cycle, so they fetch from the next one, as in the naive
  // collection order. A PC whose slot is not region-safe "poisons" the
  // region with a deadline — the cycle at which that core would fetch it —
  // so every executed cycle is known safe in advance, a bail never leaves
  // half-applied state, and a poisoned core is never filed.
  const unsigned cpi_pad = config_.base_cpi - 1;
  const bool observing = lockstep_sink_ != nullptr;
  const std::uint32_t im_begin = im_.begin();

  std::array<std::uint32_t, EventCounters::kMaxCores> pc_cache{};
  std::array<std::uint16_t, EventCounters::kMaxCores> bank_cache{};
  std::array<std::uint8_t, EventCounters::kMaxCores> mem_cores{};
  std::uint64_t fetch_mask = 0;  // union of bank_fetchers_
  std::uint64_t idle_mask = 0;   // Ready cores inside a bubble or ramp
  std::uint64_t poisoned = 0;    // next slot unsafe: never filed again
  std::uint64_t done = 0;
  std::uint64_t poison_deadline = ~0ull;

  auto file = [&](unsigned core) {
    const unsigned bank = bank_cache[core];
    bank_fetchers_[bank] |= std::uint64_t{1} << core;
    bank_occupied_[bank / 64] |= std::uint64_t{1} << (bank % 64);
    fetch_mask |= std::uint64_t{1} << core;
  };
  // Validates a core's next fetch slot: caches it when region-safe, else
  // poisons the region for the cycle the core would fetch it
  // (`rejoin_in` = cycles until then, counted from the next cycle).
  auto revalidate = [&](unsigned core, std::uint32_t pc,
                        std::uint64_t rejoin_in) {
    if (im_.in_program(pc) && im_.region_safe(pc)) {
      pc_cache[core] = pc;
      bank_cache[core] = static_cast<std::uint16_t>(im_.bank_of(pc));
      return true;
    }
    poisoned |= std::uint64_t{1} << core;
    poison_deadline = std::min(poison_deadline, done + rejoin_in);
    return false;
  };

  // Distinct-PC count over all active cores for the per-cycle lockstep
  // observation (only kept with a sink attached): per-slot refcounts in
  // `pc_refs_`, updated at every PC change. An out-of-program PC is
  // poisoned and its core never moves again inside the region, so such
  // PCs are only ever added, to a small list.
  unsigned distinct_pcs = 0;
  std::array<std::uint32_t, EventCounters::kMaxCores> outside_pcs{};
  unsigned num_outside = 0;
  auto pc_ref_add = [&](std::uint32_t pc) {
    if (im_.in_program(pc)) {
      distinct_pcs += (pc_refs_[pc - im_begin]++ == 0) ? 1 : 0;
    } else if (std::find(outside_pcs.begin(), outside_pcs.begin() + num_outside,
                         pc) == outside_pcs.begin() + num_outside) {
      outside_pcs[num_outside++] = pc;
      ++distinct_pcs;
    }
  };
  auto pc_ref_move = [&](std::uint32_t from, std::uint32_t to) {
    if (observing && from != to) {  // `from` was just fetched: in program
      distinct_pcs -= (--pc_refs_[from - im_begin] == 0) ? 1 : 0;
      pc_ref_add(to);
    }
  };

  // Entry build from the authoritative core state; nothing shared is
  // touched until every fetch-ready core is known safe.
  std::uint64_t counted = 0;  // the active cores at entry
  for (const unsigned i : active_cores_) {
    const CoreRuntime& c = cores_[i];
    const std::uint64_t idle =
        static_cast<std::uint64_t>(c.bubble_cycles) + c.ramp_cycles;
    counted |= std::uint64_t{1} << i;
    if (idle == 0) {
      if (!revalidate(i, c.arch.pc, 0))
        return 0;  // would fetch an unsafe slot right now: naive tick's job
    } else {
      idle_mask |= std::uint64_t{1} << i;
      (void)revalidate(i, c.arch.pc, idle);
    }
  }
  for_each_bit(counted & ~idle_mask, file);
  if (observing)
    for_each_bit(counted, [&](unsigned i) { pc_ref_add(cores_[i].arch.pc); });

  while (done < max_cycles && done < poison_deadline && fetch_mask != 0) {
    const unsigned eligible = static_cast<unsigned>(active_cores_.size());

    // --- the cycle is committed from here on ---
    counters_.cycles += 1;
    ++done;
    if (++rr_pointer_ >= config_.num_cores) rr_pointer_ = 0;

    // Idle actives count their bubble (clocked) or ramp (gated) down.
    // Expired cores fetch from the NEXT cycle on; they are filed below,
    // after this cycle's arbitration.
    std::uint64_t expired = 0;
    for_each_bit(idle_mask, [&](unsigned i) {
      CoreRuntime& c = cores_[i];
      if (c.bubble_cycles > 0) {
        c.bubble_cycles -= 1;
        counters_.core_branch_bubble_cycles += 1;
        counters_.core_active_cycles += 1;
        counters_.per_core_active[i] += 1;
      } else {
        c.ramp_cycles -= 1;
        counters_.core_wakeup_ramp_cycles += 1;
      }
      if (c.bubble_cycles == 0 && c.ramp_cycles == 0)
        expired |= std::uint64_t{1} << i;
    });
    idle_mask &= ~expired;

    // Lockstep needs one shared PC, hence one bank holding every fetcher.
    counters_.fetch_cycles += 1;
    const auto nf = static_cast<unsigned>(std::popcount(fetch_mask));
    bool lockstep = false;
    if (nf >= 2 && nf == eligible) {
      const auto first = static_cast<unsigned>(std::countr_zero(fetch_mask));
      lockstep = bank_fetchers_[bank_cache[first]] == fetch_mask;
      if (lockstep) {
        for_each_bit(fetch_mask, [&](unsigned i) {
          lockstep = lockstep && pc_cache[i] == pc_cache[first];
        });
      }
    }
    if (lockstep) counters_.lockstep_cycles += 1;
    if (was_lockstep_ && !lockstep && nf >= 2)
      counters_.divergence_events += 1;
    was_lockstep_ = lockstep || nf < 2;

    // Per-bank arbitration, service and execution — the same decisions as
    // phase_fetch_and_execute, with the execute-action switch reduced to
    // the three outcomes region-safe instructions can produce.
    std::uint64_t refile = 0;  // served cores fetching again next cycle
    unsigned num_mem = 0;
    bool force_exit = false;
    for (unsigned w = 0; w < bank_occupied_.size(); ++w) {
      for (std::uint64_t word = bank_occupied_[w]; word != 0;
           word &= word - 1) {
        const unsigned bank =
            w * 64 + static_cast<unsigned>(std::countr_zero(word));
        const std::uint64_t fetchers = bank_fetchers_[bank];
        std::uint64_t served = fetchers;  // a lone fetcher is served
        if ((fetchers & (fetchers - 1)) != 0) {
          // Winner: the lowest core (fixed priority), the lowest core at
          // or after the rr pointer else the lowest (round robin), or the
          // first of the longest-stalled (oldest first).
          auto winner = static_cast<unsigned>(std::countr_zero(fetchers));
          if (config_.arbitration == ArbitrationPolicy::kRoundRobin) {
            const std::uint64_t rotated =
                fetchers & (~std::uint64_t{0} << rr_pointer_);
            if (rotated != 0)
              winner = static_cast<unsigned>(std::countr_zero(rotated));
          } else if (config_.arbitration == ArbitrationPolicy::kOldestFirst) {
            for_each_bit(fetchers, [&](unsigned k) {
              if (cores_[k].stall_age > cores_[winner].stall_age) winner = k;
            });
          }
          const std::uint32_t win_pc = pc_cache[winner];
          std::uint64_t matching = 0;
          for_each_bit(fetchers, [&](unsigned k) {
            if (pc_cache[k] == win_pc) matching |= std::uint64_t{1} << k;
          });
          const bool allow_group_serve =
              config_.im_fetch_broadcast &&
              (config_.features.ixbar_partial_broadcast ||
               matching == fetchers);
          // Without group service only the lowest matching core is served.
          served = allow_group_serve ? matching : matching & (0 - matching);
        }
        const std::uint64_t stalled = fetchers & ~served;
        bank_fetchers_[bank] = stalled;
        if (stalled == 0)
          bank_occupied_[w] &= ~(std::uint64_t{1} << (bank % 64));
        fetch_mask &= ~served;
        for_each_bit(stalled, [&](unsigned k) { cores_[k].stall_age += 1; });
        counters_.core_fetch_stall_cycles +=
            static_cast<unsigned>(std::popcount(stalled));

        for_each_bit(served, [&](unsigned core_index) {
          CoreRuntime& c = cores_[core_index];
          const std::uint32_t pc = pc_cache[core_index];
          c.stall_age = 0;
          const ExecResult result = execute(c.arch, im_.at(pc));
          if (result.action == ExecAction::kAdvance) {
            const bool redirect = result.next_pc != pc + 1;
            pc_ref_move(pc, result.next_pc);
            c.arch.pc = result.next_pc;
            const unsigned pad =
                cpi_pad + (redirect ? config_.branch_taken_penalty : 0);
            c.bubble_cycles = pad;
            counters_.retired_ops += 1;
            counters_.per_core_retired[core_index] += 1;
            counters_.core_active_cycles += 1;
            counters_.per_core_active[core_index] += 1;
            if (pad > 0) {
              idle_mask |= std::uint64_t{1} << core_index;
              (void)revalidate(core_index, result.next_pc, pad);
            } else if (revalidate(core_index, result.next_pc, 0)) {
              refile |= std::uint64_t{1} << core_index;
            }
            return;
          }
          // kMemLoad / kMemStore — the only other outcomes. (mark_active
          // here, not direct adds: the core's activity settles through the
          // touched list so a phase_dxbar fallback cannot double-count it.)
          mark_active(core_index);
          if (!dm_.in_range(result.mem_addr)) {
            trap(core_index, TrapKind::kDmOutOfRange);
            force_exit = true;
            return;
          }
          c.mem_is_store = (result.action == ExecAction::kMemStore);
          c.mem_addr = result.mem_addr;
          c.store_data = result.store_data;
          c.load_reg = result.load_reg;
          c.mem_next_pc = result.next_pc;
          c.load_latched = false;
          set_status(core_index, CoreStatus::kMemWait);
          mem_cores[num_mem++] = static_cast<std::uint8_t>(core_index);
        });
        const auto num_served = static_cast<unsigned>(std::popcount(served));
        counters_.im_bank_accesses += 1;
        counters_.im_fetches_delivered += num_served;
        if (num_served > 1) counters_.im_broadcast_groups += 1;
        if (stalled != 0) counters_.fetch_conflict_cycles += 1;
      }
    }

    // D-Xbar service for this cycle's loads/stores. Pairwise-distinct DM
    // banks (the common case: private per-core banks) are conflict-free by
    // construction and served inline; anything else goes through the real
    // phase — exact conflicts, broadcasts and policy-group formation — and
    // ends the region after this cycle. (The synchronizer is idle, so
    // skipping its begin/submit/finish phases changes nothing.)
    if (num_mem > 0) {
      bool disjoint = true;
      std::uint64_t bank_set = 0;
      for (unsigned m = 0; m < num_mem; ++m) {
        const std::uint64_t bit =
            1ull << (dm_.bank_of(cores_[mem_cores[m]].mem_addr) & 63u);
        disjoint = disjoint && (bank_set & bit) == 0;
        bank_set |= bit;
      }
      if (disjoint) {
        for (unsigned m = 0; m < num_mem; ++m) {
          const unsigned core_index = mem_cores[m];
          CoreRuntime& c = cores_[core_index];
          counters_.dm_bank_accesses += 1;
          if (c.mem_is_store) {
            dm_.write(c.mem_addr, c.store_data);
          } else {
            grant_load(core_index, dm_.read(c.mem_addr));
          }
          counters_.dm_requests_granted += 1;
          pc_ref_move(c.arch.pc, c.mem_next_pc);
          retire_mem(core_index);  // pc = mem_next_pc, bubble = cpi_pad
          if (cpi_pad > 0) {
            idle_mask |= std::uint64_t{1} << core_index;
            (void)revalidate(core_index, c.mem_next_pc, cpi_pad);
          } else if (revalidate(core_index, c.mem_next_pc, 0)) {
            refile |= std::uint64_t{1} << core_index;
          }
        }
      } else {
        // phase_dxbar moves PCs behind the refcounts' back; they are not
        // read again (the break below observes generically), so clear
        // the slots of the PCs it is about to leave.
        if (observing)
          for (unsigned m = 0; m < num_mem; ++m)
            pc_refs_[cores_[mem_cores[m]].arch.pc - im_begin] = 0;
        phase_dxbar();
        force_exit = true;  // the local fetch/idle masks are stale now
      }
    }

    // Re-file the served stayers and the newly expired cores.
    for_each_bit(refile | (expired & ~poisoned), file);

    // End-of-cycle accounting, as in tick(). (The touched list holds only
    // this cycle's memory cores; every other activity was added directly.)
    counters_.core_sleep_cycles +=
        status_counts_[static_cast<unsigned>(CoreStatus::kSleeping)];
    for (const unsigned i : touched_cores_) {
      active_this_cycle_[i] = 0;
      counters_.core_active_cycles += 1;
      counters_.per_core_active[i] += 1;
    }
    touched_cores_.clear();

    // Regime check: an unresolved DM conflict (kMemWait/kPolicyHold
    // survivors), a trap, or a D-Xbar fallback ends the region; the
    // generic loop takes over (and rebuilds on re-entry). The distinct-PC
    // count is only valid while the regime holds, so the break path
    // observes generically.
    if (force_exit ||
        status_counts_[static_cast<unsigned>(CoreStatus::kReady)] !=
            active_cores_.size() ||
        active_cores_.empty()) {
      observe_lockstep_tick();
      break;
    }
    if (observing) {
      const auto n = static_cast<unsigned>(active_cores_.size());
      accumulate_lockstep(1, n, n, distinct_pcs);
    }
  }

  // Leave the shared scratch all-zero for the next region: the filed banks,
  // and the refcount slots at the counted cores' PCs (every nonzero slot is
  // one of them).
  for (unsigned w = 0; w < bank_occupied_.size(); ++w) {
    for_each_bit(bank_occupied_[w],
                 [&](unsigned b) { bank_fetchers_[w * 64 + b] = 0; });
    bank_occupied_[w] = 0;
  }
  if (observing) {
    for_each_bit(counted, [&](unsigned i) {
      if (im_.in_program(cores_[i].arch.pc))
        pc_refs_[cores_[i].arch.pc - im_begin] = 0;
    });
  }
  fetch_region_cycles_ += done;
  return done;
}

RunResult Platform::run(std::uint64_t max_cycles) {
  RunResult result;
  // Hoisted out of the loop: observers suppress both fast paths (they must
  // see every cycle), and neither the observer nor the config can change
  // while run() is on the stack.
  const bool allow_fast_forward =
      config_.fast_forward && observer_ == nullptr;
  const bool allow_burst = config_.burst && observer_ == nullptr;
  const std::uint32_t halted_index =
      static_cast<unsigned>(CoreStatus::kHalted);
  const std::uint32_t trapped_index =
      static_cast<unsigned>(CoreStatus::kTrapped);

  while (counters_.cycles < max_cycles) {
    // Exit logic from the population counts — O(1) per iteration, no core
    // scan. The active list is empty exactly when every core is halted,
    // trapped or sleeping.
    if (status_counts_[halted_index] == cores_.size()) {
      result.status = RunResult::Status::kAllHalted;
      result.cycles = counters_.cycles;
      return result;
    }
    if (pending_stop_) {
      result = *pending_stop_;
      result.cycles = counters_.cycles;
      return result;
    }
    const unsigned finished =
        status_counts_[halted_index] + status_counts_[trapped_index];
    if (finished == cores_.size()) {
      // Mixture of halted and trapped cores with no stop recorded.
      result.status = RunResult::Status::kAllHalted;
      result.cycles = counters_.cycles;
      return result;
    }
    if (active_cores_.empty() && !synchronizer_.busy()) {
      // Every live core is asleep and no wake-up can ever arrive.
      result.status = RunResult::Status::kAllAsleep;
      result.cycles = counters_.cycles;
      return result;
    }
    const std::uint64_t remaining = max_cycles - counters_.cycles;
    if (allow_burst && try_burst(remaining) != 0) continue;
    if (allow_burst && try_fetch_region(remaining) != 0) continue;
    if (allow_fast_forward && try_fast_forward(remaining) != 0) continue;
    tick();
  }
  result.status = RunResult::Status::kMaxCycles;
  result.cycles = counters_.cycles;
  return result;
}

}  // namespace ulpsync::sim

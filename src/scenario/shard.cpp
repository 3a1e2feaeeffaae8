#include "scenario/shard.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "scenario/checkpoint_ring.h"
#include "scenario/record.h"
#include "scenario/transport.h"
#include "util/wire.h"

namespace ulpsync::scenario {

namespace fs = std::filesystem;

namespace {

// Version 3 appended the optional `EnergyRequest` to the spec codec.
constexpr util::Frame kBundleFrame{{'U', 'L', 'P', 'S', 'P', 'O', 'L', '\n'},
                                   3};
constexpr std::uint32_t kNoWarmRef = 0xFFFFFFFFu;

}  // namespace

// --- RunSpec wire encoding ---------------------------------------------------
// Everything that influences a run is serialized, including the
// host-simulation overrides and `checkpoint_at` that RunRecord
// serialization deliberately drops — a shard bundle must reproduce the
// spec exactly, not just label it. Public (shard.h): the recorded-run
// envelope (scenario/replay.h) stores specs with the same codec.

void encode_run_spec(util::WireWriter& w, const RunSpec& spec) {
  w.str(spec.workload);
  const WorkloadParams& p = spec.params;
  w.u32(p.num_channels);
  w.u32(p.samples);
  w.u32(p.l1_half);
  w.u32(p.l2_half);
  w.u32(p.scale_small);
  w.u32(p.scale_large);
  w.u16(static_cast<std::uint16_t>(p.threshold));
  w.u32(p.refractory);
  for (const std::int16_t delta : p.per_core_threshold_delta) {
    w.u16(static_cast<std::uint16_t>(delta));
  }
  const auto& g = p.generator;
  for (const double value :
       {g.sample_rate_hz, g.heart_rate_bpm, g.rr_jitter_fraction,
        g.amplitude_lsb, g.baseline_wander_lsb, g.baseline_wander_hz,
        g.noise_lsb, g.artifact_rate_hz, g.artifact_lsb, g.dropout_rate_hz,
        g.dropout_s}) {
    w.u64(std::bit_cast<std::uint64_t>(value));
  }
  w.u64(g.seed);
  w.str(spec.design.label);
  w.boolean(spec.design.features.hardware_synchronizer);
  w.boolean(spec.design.features.dxbar_pc_policy);
  w.boolean(spec.design.features.ixbar_partial_broadcast);
  w.boolean(spec.arbitration.has_value());
  if (spec.arbitration) w.u8(static_cast<std::uint8_t>(*spec.arbitration));
  w.boolean(spec.im_line_slots.has_value());
  if (spec.im_line_slots) w.u32(*spec.im_line_slots);
  w.boolean(spec.fast_forward.has_value());
  if (spec.fast_forward) w.boolean(*spec.fast_forward);
  w.boolean(spec.burst.has_value());
  if (spec.burst) w.boolean(*spec.burst);
  w.u64(spec.max_cycles);
  w.boolean(spec.checkpoint_at.has_value());
  if (spec.checkpoint_at) w.u64(*spec.checkpoint_at);
  w.boolean(spec.energy.has_value());
  if (spec.energy) {
    w.u8(static_cast<std::uint8_t>(spec.energy->params));
    w.u64(std::bit_cast<std::uint64_t>(spec.energy->f_mhz));
    w.u64(std::bit_cast<std::uint64_t>(spec.energy->voltage));
  }
}

RunSpec decode_run_spec(util::WireReader& r) {
  RunSpec spec;
  spec.workload = r.str();
  WorkloadParams& p = spec.params;
  p.num_channels = r.u32();
  p.samples = r.u32();
  p.l1_half = r.u32();
  p.l2_half = r.u32();
  p.scale_small = r.u32();
  p.scale_large = r.u32();
  p.threshold = static_cast<std::int16_t>(r.u16());
  p.refractory = r.u32();
  for (std::int16_t& delta : p.per_core_threshold_delta) {
    delta = static_cast<std::int16_t>(r.u16());
  }
  auto& g = p.generator;
  for (double* value :
       {&g.sample_rate_hz, &g.heart_rate_bpm, &g.rr_jitter_fraction,
        &g.amplitude_lsb, &g.baseline_wander_lsb, &g.baseline_wander_hz,
        &g.noise_lsb, &g.artifact_rate_hz, &g.artifact_lsb,
        &g.dropout_rate_hz, &g.dropout_s}) {
    *value = std::bit_cast<double>(r.u64());
  }
  g.seed = r.u64();
  spec.design.label = r.str();
  spec.design.features.hardware_synchronizer = r.boolean();
  spec.design.features.dxbar_pc_policy = r.boolean();
  spec.design.features.ixbar_partial_broadcast = r.boolean();
  if (r.boolean()) {
    const std::uint8_t arbitration = r.u8();
    if (arbitration > static_cast<std::uint8_t>(sim::ArbitrationPolicy::kRoundRobin)) {
      throw std::invalid_argument("run spec: bad arbitration policy");
    }
    spec.arbitration = static_cast<sim::ArbitrationPolicy>(arbitration);
  }
  if (r.boolean()) spec.im_line_slots = r.u32();
  if (r.boolean()) spec.fast_forward = r.boolean();
  if (r.boolean()) spec.burst = r.boolean();
  spec.max_cycles = r.u64();
  if (r.boolean()) spec.checkpoint_at = r.u64();
  if (r.boolean()) {
    EnergyRequest request;
    const std::uint8_t params = r.u8();
    if (params > static_cast<std::uint8_t>(EnergyRequest::Params::kSynchronized)) {
      throw std::invalid_argument("run spec: bad energy params variant");
    }
    request.params = static_cast<EnergyRequest::Params>(params);
    request.f_mhz = std::bit_cast<double>(r.u64());
    request.voltage = std::bit_cast<double>(r.u64());
    spec.energy = request;
  }
  return spec;
}

namespace {

// --- bundle --------------------------------------------------------------- --

struct BundlePlan {
  unsigned id = 0;
  double weight = 0.0;  ///< predicted load the planner balances
  /// (global spec index, warm-state reference) per spec.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> entries;
  std::vector<std::vector<std::uint8_t>> warm_blobs;
};

std::vector<std::uint8_t> serialize_bundle(const BundlePlan& plan,
                                           const std::vector<RunSpec>& specs,
                                           std::uint64_t fingerprint) {
  util::WireWriter w = kBundleFrame.begin();
  w.u64(fingerprint);
  w.u32(plan.id);
  w.u32(static_cast<std::uint32_t>(plan.entries.size()));
  for (const auto& [index, warm_ref] : plan.entries) {
    w.u64(index);
    w.u32(warm_ref);
    encode_run_spec(w, specs[index]);
  }
  w.u32(static_cast<std::uint32_t>(plan.warm_blobs.size()));
  for (const auto& blob : plan.warm_blobs) w.blob(blob);
  return util::Frame::seal(w);
}

}  // namespace

// --- cost model --------------------------------------------------------------

std::uint64_t spec_cost_key(const RunSpec& spec) {
  util::WireWriter w;
  encode_run_spec(w, spec);
  return fnv1a64(w.bytes());
}

std::string cost_line(const RunSpec& spec, std::uint64_t cycles,
                      double wall_seconds) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9e", wall_seconds);
  return "cost " + util::hex64(spec_cost_key(spec)) + " " + spec.workload +
         " " + std::to_string(cycles) + " " + buffer;
}

void CostModel::add(std::uint64_t key, const std::string& workload,
                    std::uint64_t cycles, double wall_seconds) {
  SpecCost& spec = by_spec[key];
  spec.wall_seconds += wall_seconds;
  spec.runs += 1;
  WorkloadRate& rate = by_workload[workload];
  rate.wall_seconds += wall_seconds;
  rate.cycles += static_cast<double>(cycles);
  rate.runs += 1;
}

double CostModel::predict(const RunSpec& spec) const {
  // Floor every prediction: a zero-weight unit would let the costed
  // planner park arbitrarily many specs on one shard for free.
  constexpr double kFloorSeconds = 1e-9;
  if (const auto it = by_spec.find(spec_cost_key(spec));
      it != by_spec.end() && it->second.runs > 0) {
    return std::max(kFloorSeconds,
                    it->second.wall_seconds /
                        static_cast<double>(it->second.runs));
  }
  if (const auto it = by_workload.find(spec.workload);
      it != by_workload.end() && it->second.cycles > 0.0) {
    // Seconds-per-simulated-cycle of the workload times the spec's cycle
    // budget: over-predicts early-halting runs but orders a horizon
    // fan-out correctly, which is what shard sizing needs.
    const double rate = it->second.wall_seconds / it->second.cycles;
    return std::max(kFloorSeconds,
                    rate * static_cast<double>(spec.max_cycles));
  }
  return 1.0;  // unknown workload: uniform, like the uncosted planner
}

bool absorb_cost_line(CostModel& model, const std::string& line) {
  std::istringstream fields(line);
  std::string tag, hex, workload;
  std::uint64_t cycles = 0;
  double wall_seconds = 0.0;
  fields >> tag >> hex >> workload >> cycles >> wall_seconds;
  if (fields.fail() || tag != "cost" || hex.size() != 16 || workload.empty() ||
      !(wall_seconds >= 0.0)) {
    return false;
  }
  char* end = nullptr;
  const std::uint64_t key = std::strtoull(hex.c_str(), &end, 16);
  if (end != hex.c_str() + hex.size()) return false;
  model.add(key, workload, cycles, wall_seconds);
  return true;
}

CostModel load_cost_model(const std::vector<std::string>& paths) {
  CostModel model;
  const auto absorb_file = [&model](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return;
    std::string line;
    while (std::getline(in, line)) absorb_cost_line(model, line);
  };
  for (const std::string& path : paths) {
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      const std::string costs = path + "/costs";
      if (!fs::is_directory(costs, ec)) continue;
      std::vector<std::string> files;
      for (const auto& entry : fs::directory_iterator(costs)) {
        if (entry.path().extension() == ".cost") {
          files.push_back(entry.path().string());
        }
      }
      std::sort(files.begin(), files.end());
      for (const std::string& file : files) absorb_file(file);
    } else {
      absorb_file(path);
    }
  }
  return model;
}

std::uint64_t spec_fingerprint(const std::vector<RunSpec>& specs) {
  util::WireWriter w;
  w.u64(specs.size());
  for (const RunSpec& spec : specs) encode_run_spec(w, spec);
  return fnv1a64(w.bytes());
}

PlanResult plan_spool(const std::string& dir, const std::vector<RunSpec>& specs,
                      const Registry& registry, const SpoolOptions& options) {
  if (specs.empty()) {
    throw std::invalid_argument("plan_spool: empty spec list");
  }
  create_spool_dirs(dir, SpoolKind::kSweep);

  // Scheduling units: an identical-prefix group (the engine's warm-start
  // grouping rule) stays on one shard so its members share the shipped
  // WarmState; everything else is a singleton. std::map keeps grouping
  // deterministic.
  std::map<std::string, std::vector<std::size_t>> grouped;
  std::vector<std::vector<std::size_t>> units;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RunSpec& spec = specs[i];
    const bool groupable = spec.checkpoint_at && !spec.resume_from &&
                           *spec.checkpoint_at != 0 &&
                           *spec.checkpoint_at < spec.max_cycles;
    if (groupable) {
      grouped[warm_group_key(spec)].push_back(i);
    } else {
      units.push_back({i});
    }
  }
  for (auto& [key, members] : grouped) {
    (void)key;
    units.push_back(std::move(members));
  }
  std::sort(units.begin(), units.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });

  const unsigned shard_count = static_cast<unsigned>(std::min<std::size_t>(
      std::max(1u, options.shards), units.size()));

  // Deterministic greedy balance. Without cost feedback each unit goes to
  // the least-loaded shard by *spec count* (ties to the lowest id), in
  // unit order — the original planner, byte for byte. With a cost model,
  // units are weighed by predicted wall seconds and placed
  // longest-processing-time-first onto the least-*weighted* shard, the
  // classic LPT makespan heuristic.
  const bool costed = !options.costs.empty();
  std::vector<BundlePlan> bundles(shard_count);
  for (unsigned s = 0; s < shard_count; ++s) bundles[s].id = s;
  std::vector<unsigned> shard_of_unit(units.size(), 0);
  std::vector<double> unit_weight(units.size(), 0.0);
  std::vector<std::size_t> order(units.size());
  for (std::size_t u = 0; u < units.size(); ++u) order[u] = u;
  if (costed) {
    for (std::size_t u = 0; u < units.size(); ++u) {
      for (const std::size_t index : units[u]) {
        unit_weight[u] += options.costs.predict(specs[index]);
      }
    }
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (unit_weight[a] != unit_weight[b]) {
        return unit_weight[a] > unit_weight[b];
      }
      return units[a].front() < units[b].front();
    });
  } else {
    for (std::size_t u = 0; u < units.size(); ++u) {
      unit_weight[u] = static_cast<double>(units[u].size());
    }
  }
  for (const std::size_t u : order) {
    unsigned best = 0;
    for (unsigned s = 1; s < shard_count; ++s) {
      if (bundles[s].weight < bundles[best].weight) best = s;
    }
    shard_of_unit[u] = best;
    bundles[best].weight += unit_weight[u];
  }

  // Capture one WarmState per multi-member unit and attach it to the
  // unit's shard. Capture runs under default engine options, matching the
  // workers' (lockstep metrics are part of the state).
  PlanResult result;
  const Engine engine(registry);
  for (std::size_t u = 0; u < units.size(); ++u) {
    BundlePlan& bundle = bundles[shard_of_unit[u]];
    std::uint32_t ref = kNoWarmRef;
    if (options.ship_warm_states && units[u].size() >= 2) {
      const RunSpec& leader = specs[units[u].front()];
      if (const auto state =
              engine.capture_warm_state(leader, *leader.checkpoint_at)) {
        ref = static_cast<std::uint32_t>(bundle.warm_blobs.size());
        bundle.warm_blobs.push_back(serialize_warm_state(*state));
        result.warm_states += 1;
      }
    }
    for (const std::size_t index : units[u]) {
      bundle.entries.emplace_back(index, ref);
    }
  }
  // Bundle entries in ascending global-index order (units may interleave).
  for (BundlePlan& bundle : bundles) {
    std::sort(bundle.entries.begin(), bundle.entries.end());
  }
  if (costed) {
    // Heaviest shard first: workers claim queue bundles in name order, so
    // numbering by descending predicted weight starts the long poles
    // before the stragglers (ties keep the original id order).
    std::stable_sort(bundles.begin(), bundles.end(),
                     [](const BundlePlan& a, const BundlePlan& b) {
                       return a.weight > b.weight;
                     });
    for (unsigned s = 0; s < shard_count; ++s) bundles[s].id = s;
  }

  SpoolManifest manifest;
  manifest.kind = SpoolKind::kSweep;
  manifest.fingerprint = spec_fingerprint(specs);
  manifest.specs = specs.size();
  for (const BundlePlan& bundle : bundles) {
    const auto bytes = serialize_bundle(bundle, specs, manifest.fingerprint);
    write_file_atomic(
        dir + "/queue/" + payload_file(SpoolKind::kSweep, bundle.id), bytes);
    manifest.shards.push_back(
        {bundle.id, bundle.entries.size(), fnv1a64(bytes), 0});
  }
  write_text_atomic(dir + "/MANIFEST", spool_manifest_text(manifest));

  result.specs = specs.size();
  result.shards = shard_count;
  result.fingerprint = manifest.fingerprint;
  return result;
}

ShardBundle load_bundle(const std::string& path, bool load_warm_states) {
  const std::vector<std::uint8_t> bytes = read_file_bytes(path);
  return parse_bundle_bytes(bytes, "shard bundle " + path, load_warm_states);
}

ShardBundle parse_bundle_bytes(std::span<const std::uint8_t> bytes,
                               const std::string& what,
                               bool load_warm_states) {
  util::WireReader r = kBundleFrame.open(bytes, what);
  ShardBundle bundle;
  bundle.fingerprint = r.u64();
  bundle.id = r.u32();
  const std::uint32_t count = r.u32();
  std::vector<std::uint32_t> refs;
  for (std::uint32_t i = 0; i < count; ++i) {
    bundle.indices.push_back(r.u64());
    refs.push_back(r.u32());
    bundle.specs.push_back(decode_run_spec(r));
  }
  const std::uint32_t warm_count = r.u32();
  for (std::uint32_t i = 0; i < warm_count; ++i) {
    const std::vector<std::uint8_t> blob = r.blob();
    if (load_warm_states) {
      bundle.warm_states.push_back(
          std::make_shared<WarmState>(deserialize_warm_state(blob)));
    }
  }
  for (const std::uint32_t ref : refs) {
    if (ref != kNoWarmRef && ref >= warm_count) {
      throw std::invalid_argument(what +
                                  ": warm-state reference out of range");
    }
    bundle.warm_ref.push_back(ref == kNoWarmRef ? -1
                                                : static_cast<std::int32_t>(ref));
  }
  return bundle;
}

namespace {

/// The sweep kind of the spool protocol: a bundle of specs per shard, one
/// run (and one cost-feedback line) per row.
class SweepJob final : public IndexedRowJob {
 public:
  /// A merge needs neither a registry nor work options.
  explicit SweepJob(const Registry* registry = nullptr,
                    WorkOptions options = {})
      : registry_(registry), options_(std::move(options)) {}

  [[nodiscard]] SpoolKind kind() const override { return SpoolKind::kSweep; }
  [[nodiscard]] std::string csv_header() const override {
    return scenario::csv_header();
  }
  [[nodiscard]] ShardPayload decode(std::span<const std::uint8_t> bytes,
                                    const std::string& what,
                                    bool full) override {
    bundle_ = parse_bundle_bytes(bytes, what, /*load_warm_states=*/full);
    return {bundle_.id, bundle_.fingerprint, bundle_.indices};
  }
  void prepare(SpoolTransport& transport,
               const SpoolManifest& /*manifest*/) override {
    if (!options_.record_dir.empty()) {
      fs::create_directories(options_.record_dir);
    }
    EngineOptions engine_options;
    if (options_.ring_stride != 0) {
      // Checkpoint rings live next to the spool, so they need one: a remote
      // transport has no shared directory to keep them in.
      if (transport.local_dir().empty()) {
        throw std::runtime_error(
            "checkpoint rings need a filesystem spool "
            "(drop --ring-stride when working over --connect)");
      }
      engine_options.checkpoint_ring.dir = transport.local_dir() + "/rings";
      engine_options.checkpoint_ring.stride = options_.ring_stride;
      engine_options.checkpoint_ring.keep = options_.ring_keep;
      engine_options.checkpoint_ring.resume = true;
    }
    engine_.emplace(*registry_, engine_options);
  }
  [[nodiscard]] RowBlock compute(std::size_t first,
                                 std::size_t count) override {
    RowBlock block;
    for (std::size_t k = first; k < first + count; ++k) {
      RunSpec spec = bundle_.specs[k];
      if (bundle_.warm_ref[k] >= 0) {
        spec.resume_from =
            bundle_.warm_states[static_cast<std::size_t>(bundle_.warm_ref[k])];
        warm_resumed += 1;
      }
      if (!options_.record_dir.empty()) {
        // Recording forces the run cold and ring-less (bit-identical rows),
        // so the .evt is the same artifact a scalar recording of this spec
        // would produce; the global index names it.
        spec.record_events_to = options_.record_dir + "/run-" +
                                std::to_string(bundle_.indices[k]) + ".evt";
      }
      const auto start = std::chrono::steady_clock::now();
      const RunRecord record = engine_->run_one(spec, bundle_.indices[k]);
      const double wall_seconds = std::chrono::duration<double>(
                                      std::chrono::steady_clock::now() - start)
                                      .count();
      block.rows.push_back(to_csv_row(record));
      // Cost feedback for the next plan's scheduler; keyed on the bundle's
      // spec (identical to the planner's), not the warm-resume copy.
      block.costs.push_back(
          cost_line(bundle_.specs[k], record.cycles(), wall_seconds));
    }
    return block;
  }

  std::size_t warm_resumed = 0;  ///< runs resumed from shipped WarmStates

 private:
  const Registry* registry_;
  WorkOptions options_;
  std::optional<Engine> engine_;
  ShardBundle bundle_;
};

}  // namespace

WorkReport work_spool(const std::string& dir, const Registry& registry,
                      const WorkOptions& options) {
  FsTransport transport(dir);
  return work_spool_transport(transport, registry, options);
}

WorkReport work_spool_transport(SpoolTransport& transport,
                                const Registry& registry,
                                const WorkOptions& options) {
  SweepJob job(&registry, options);
  const DrainReport drained = drain_spool(transport, job, options.worker_id,
                                          options.resume, options.max_shards);
  return {drained.shards_completed, drained.rows_executed, drained.rows_reused,
          job.warm_resumed};
}

std::string merge_spool(const std::string& dir) {
  FsTransport transport(dir);
  return merge_spool_transport(transport);
}

std::string merge_spool_transport(SpoolTransport& transport) {
  SweepJob job;
  return merge_spool_rows(transport, job);
}

}  // namespace ulpsync::scenario

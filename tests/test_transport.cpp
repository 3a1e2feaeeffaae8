// The spool-transport layer (scenario/transport.h): filesystem vs TCP
// byte-identity, double-claim races, vanished-worker lease recovery,
// hash-gated part uploads, cost-model scheduling, and the one status
// schema both transports render.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "scenario/checkpoint_ring.h"
#include "scenario/engine.h"
#include "scenario/record.h"
#include "scenario/registry.h"
#include "scenario/replay.h"
#include "scenario/resilience.h"
#include "scenario/shard.h"
#include "scenario/transport.h"
#include "util/hash.h"

namespace ulpsync::scenario {
namespace {

namespace fs = std::filesystem;

std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/transport_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<RunSpec> small_sweep_specs() {
  std::vector<RunSpec> specs;
  for (const unsigned samples : {8u, 12u, 16u, 24u}) {
    RunSpec spec;
    spec.workload = "sqrt32";
    spec.params.samples = samples;
    spec.max_cycles = 2'000'000;
    spec.design = DesignVariant::synchronized();
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::string single_process_csv(const std::vector<RunSpec>& specs) {
  const Engine engine(Registry::builtins());
  return to_csv(engine.run(specs));
}

std::uint64_t hash_text(const std::string& text) {
  return fnv1a64(
      {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
}

// --- line splitting ----------------------------------------------------------

TEST(Transport, SplitCompleteLinesDropsTornTail) {
  EXPECT_TRUE(split_complete_lines("").empty());
  EXPECT_TRUE(split_complete_lines("torn").empty());
  const auto lines = split_complete_lines("a\nb\ntorn");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "b");
}

// --- claim races -------------------------------------------------------------

TEST(Transport, FsDoubleClaimHasOneWinner) {
  const std::string dir = scratch_dir("fs_race");
  const std::vector<RunSpec> specs = {small_sweep_specs()[0]};
  plan_spool(dir, specs, Registry::builtins(), {.shards = 1});

  FsTransport a(dir);
  FsTransport b(dir);
  const auto first = a.claim("worker-a");
  const auto second = b.claim("worker-b");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->kind, "bundle");
  EXPECT_FALSE(second.has_value());  // exactly one claimer wins
}

TEST(Transport, ConcurrentFsClaimsNeverOverlap) {
  const std::string dir = scratch_dir("fs_race_many");
  plan_spool(dir, small_sweep_specs(), Registry::builtins(), {.shards = 4});

  std::vector<std::vector<unsigned>> claimed(4);
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < 4; ++w) {
    pool.emplace_back([&, w] {
      FsTransport transport(dir);
      while (const auto shard = transport.claim("w" + std::to_string(w))) {
        claimed[w].push_back(shard->id);
      }
    });
  }
  for (auto& thread : pool) thread.join();

  std::vector<unsigned> all;
  for (const auto& ids : claimed) all.insert(all.end(), ids.begin(), ids.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (std::vector<unsigned>{0, 1, 2, 3}));  // each shard once
}

TEST(Transport, TcpDoubleClaimHasOneWinner) {
  const std::string dir = scratch_dir("tcp_race");
  const std::vector<RunSpec> specs = {small_sweep_specs()[0]};
  plan_spool(dir, specs, Registry::builtins(), {.shards = 1});

  SpoolServer server(dir);
  server.start();
  {
    TcpTransport a("127.0.0.1", server.port());
    TcpTransport b("127.0.0.1", server.port());
    const auto first = a.claim("worker-a");
    const auto second = b.claim("worker-b");
    ASSERT_TRUE(first.has_value());
    EXPECT_FALSE(second.has_value());
  }
  server.stop();
}

// --- vanished workers --------------------------------------------------------

TEST(Transport, ServerRequeuesExpiredLeaseAndFencesZombie) {
  const std::string dir = scratch_dir("lease_expiry");
  const std::vector<RunSpec> specs = {small_sweep_specs()[0]};
  plan_spool(dir, specs, Registry::builtins(), {.shards = 1});

  SpoolServer::Options options;
  options.lease_seconds = 0.05;  // expire almost immediately
  SpoolServer server(dir, options);
  server.start();
  {
    TcpTransport zombie("127.0.0.1", server.port());
    const auto claim = zombie.claim("zombie");
    ASSERT_TRUE(claim.has_value());
    zombie.append_row(claim->id, "row-from-zombie");
    std::this_thread::sleep_for(std::chrono::milliseconds(150));

    // A healthy worker claims after the lease lapsed: the shard re-queues
    // and the zombie's complete rows come along for adoption.
    TcpTransport healthy("127.0.0.1", server.port());
    const auto reclaim = healthy.claim("healthy");
    ASSERT_TRUE(reclaim.has_value());
    EXPECT_EQ(reclaim->id, claim->id);
    ASSERT_EQ(reclaim->rows.size(), 1u);
    EXPECT_EQ(reclaim->rows[0], "row-from-zombie");

    // The zombie is fenced: its lease is gone, so its writes bounce
    // instead of corrupting the new claimer's part.
    EXPECT_THROW(zombie.append_row(claim->id, "late-row"),
                 std::runtime_error);
  }
  server.stop();
}

TEST(Transport, ServerRequeuesOnDisconnect) {
  const std::string dir = scratch_dir("disconnect");
  const std::vector<RunSpec> specs = {small_sweep_specs()[0]};
  plan_spool(dir, specs, Registry::builtins(), {.shards = 1});

  SpoolServer server(dir);
  server.start();
  {
    auto worker =
        std::make_unique<TcpTransport>("127.0.0.1", server.port());
    ASSERT_TRUE(worker->claim("doomed").has_value());
    worker.reset();  // connection drops with the claim still open

    // The server notices the disconnect and re-queues; poll briefly since
    // the release runs on the connection thread.
    TcpTransport next("127.0.0.1", server.port());
    std::optional<ClaimedShard> reclaim;
    for (int attempt = 0; attempt < 100 && !reclaim; ++attempt) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      reclaim = next.claim("successor");
    }
    ASSERT_TRUE(reclaim.has_value());
    EXPECT_EQ(reclaim->id, 0u);
  }
  server.stop();
}

TEST(Transport, FsAdoptOrphansRequeuesDeadClaims) {
  const std::string dir = scratch_dir("fs_adopt");
  const std::vector<RunSpec> specs = {small_sweep_specs()[0]};
  plan_spool(dir, specs, Registry::builtins(), {.shards = 1});

  {
    FsTransport dead(dir);
    const auto claim = dead.claim("dead-worker");
    ASSERT_TRUE(claim.has_value());
    dead.append_row(claim->id, "partial-row");
    // ... SIGKILL: the claim stays in claimed/, the partial stays put.
  }
  FsTransport next(dir);
  EXPECT_FALSE(next.claim("too-early").has_value());  // still claimed
  EXPECT_EQ(next.adopt_orphans(), 1u);
  const auto reclaim = next.claim("successor");
  ASSERT_TRUE(reclaim.has_value());
  ASSERT_EQ(reclaim->rows.size(), 1u);
  EXPECT_EQ(reclaim->rows[0], "partial-row");
}

// --- hash-gated uploads ------------------------------------------------------

TEST(Transport, TruncatedUploadRejectedThenRecovers) {
  const std::string dir = scratch_dir("truncated_upload");
  const std::vector<RunSpec> specs = {small_sweep_specs()[0]};
  plan_spool(dir, specs, Registry::builtins(), {.shards = 1});

  SpoolServer server(dir);
  server.start();
  {
    TcpTransport worker("127.0.0.1", server.port());
    const auto claim = worker.claim("uploader");
    ASSERT_TRUE(claim.has_value());
    worker.append_row(claim->id, "row-one");
    worker.append_row(claim->id, "row-two");

    // The worker believes the part holds three rows (one never arrived):
    // the content hash disagrees with what the spool accumulated, so DONE
    // is rejected and the part stays partial.
    EXPECT_THROW(
        worker.complete(claim->id,
                        hash_text("row-one\nrow-two\nrow-lost\n")),
        std::runtime_error);
    EXPECT_FALSE(fs::exists(dir + "/parts/part-0000.csv"));

    // The claim survived the failed upload: send the missing row and
    // finalize with the true hash.
    worker.append_row(claim->id, "row-lost");
    worker.complete(claim->id, hash_text("row-one\nrow-two\nrow-lost\n"));
    EXPECT_TRUE(fs::exists(dir + "/parts/part-0000.csv"));
  }
  server.stop();
}

TEST(Transport, TcpRejectsRowForUnleasedShard) {
  const std::string dir = scratch_dir("unleased_row");
  const std::vector<RunSpec> specs = {small_sweep_specs()[0]};
  plan_spool(dir, specs, Registry::builtins(), {.shards = 1});

  SpoolServer server(dir);
  server.start();
  {
    TcpTransport worker("127.0.0.1", server.port());
    ASSERT_TRUE(worker.claim("w").has_value());
    // Unleased shard ids bounce too.
    EXPECT_THROW(worker.append_row(7, "row"), std::runtime_error);
  }
  server.stop();
}

// --- byte identity across transports ----------------------------------------

TEST(Transport, TcpWorkersMergeByteIdenticalToSingleProcess) {
  const std::string dir = scratch_dir("tcp_identity");
  const std::vector<RunSpec> specs = small_sweep_specs();
  const std::string expected = single_process_csv(specs);
  plan_spool(dir, specs, Registry::builtins(), {.shards = 3});

  SpoolServer server(dir);
  server.start();
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < 2; ++w) {
    pool.emplace_back([&, w] {
      TcpTransport transport("127.0.0.1", server.port());
      WorkOptions options;
      options.worker_id = "tcp-" + std::to_string(w);
      work_spool_transport(transport, Registry::builtins(), options);
    });
  }
  for (auto& worker : pool) worker.join();

  TcpTransport merger("127.0.0.1", server.port());
  EXPECT_EQ(merge_spool_transport(merger), expected);
  // The filesystem view of the same spool merges to the same bytes.
  EXPECT_EQ(merge_spool(dir), expected);
  server.stop();
}

TEST(Transport, CampaignOverTcpMatchesSingleProcess) {
  const std::string dir = scratch_dir("tcp_campaign");
  RunSpec spec;
  spec.workload = "sleepgen";
  spec.params.samples = 12;
  spec.max_cycles = 3'000'000;
  spec.design = DesignVariant::synchronized();
  RecordOutcome outcome = record_one(spec, Registry::builtins());
  ASSERT_TRUE(outcome.record.ok()) << outcome.record.verify_error;

  CampaignConfig config;
  config.models = {ErrorModel::kDmSingle, ErrorModel::kIm};
  config.count = 2;
  config.seed = 7;
  const std::string expected = campaign_csv(
      run_campaign(outcome.recorded, Registry::builtins(), config, 2));

  plan_campaign_spool(dir, outcome.recorded, config, Registry::builtins(),
                      {.shards = 2});
  SpoolServer server(dir);
  server.start();
  {
    TcpTransport worker("127.0.0.1", server.port());
    CampaignWorkOptions options;
    options.worker_id = "campaign-tcp";
    options.jobs = 2;
    work_campaign_transport(worker, Registry::builtins(), options);

    TcpTransport merger("127.0.0.1", server.port());
    EXPECT_TRUE(is_campaign_manifest(merger.manifest_text()));
    EXPECT_EQ(merge_campaign_transport(merger), expected);
  }
  EXPECT_EQ(merge_campaign_spool(dir), expected);
  server.stop();
}

// --- cost-model scheduling ---------------------------------------------------

TEST(CostModel, AbsorbRejectsForeignLinesWithoutPoisoning) {
  CostModel model;
  EXPECT_FALSE(absorb_cost_line(model, ""));
  EXPECT_FALSE(absorb_cost_line(model, "not a cost line"));
  EXPECT_FALSE(absorb_cost_line(model, "cost zz sqrt32 10 0.5"));
  EXPECT_FALSE(absorb_cost_line(model, "cost 0123456789abcdef sqrt32 10 -1"));
  EXPECT_TRUE(model.empty());
  EXPECT_TRUE(
      absorb_cost_line(model, "cost 0123456789abcdef sqrt32 10 2.5e-3"));
  EXPECT_FALSE(model.empty());
  EXPECT_EQ(model.by_spec.size(), 1u);
  EXPECT_EQ(model.by_workload.at("sqrt32").runs, 1u);
}

TEST(CostModel, PredictFallsBackSpecThenWorkloadThenUniform) {
  RunSpec seen = small_sweep_specs()[0];
  CostModel model;
  model.add(spec_cost_key(seen), seen.workload, 1'000, 0.25);
  model.add(spec_cost_key(seen), seen.workload, 1'000, 0.75);

  // Exact identity: the mean of its own measurements.
  EXPECT_DOUBLE_EQ(model.predict(seen), 0.5);

  // Unseen spec of a seen workload: seconds-per-cycle rate times budget.
  RunSpec sibling = seen;
  sibling.params.samples += 1;
  sibling.max_cycles = 4'000;
  EXPECT_DOUBLE_EQ(model.predict(sibling), 0.5 / 1'000 * 4'000);

  // Unseen workload: uniform.
  RunSpec foreign = seen;
  foreign.workload = "mrpfltr";
  EXPECT_DOUBLE_EQ(model.predict(foreign), 1.0);
}

TEST(CostModel, EmptyModelKeepsThePlanByteIdentical) {
  const std::vector<RunSpec> specs = small_sweep_specs();
  const std::string plain = scratch_dir("plan_plain");
  const std::string costed = scratch_dir("plan_empty_costs");
  plan_spool(plain, specs, Registry::builtins(), {.shards = 3});
  SpoolOptions options;
  options.shards = 3;
  options.costs = CostModel{};  // explicit empty model
  plan_spool(costed, specs, Registry::builtins(), options);
  EXPECT_EQ(read_file_bytes(plain + "/MANIFEST"),
            read_file_bytes(costed + "/MANIFEST"));
}

TEST(CostModel, SkewedCostsResizeShardsAndMergeStaysIdentical) {
  // Three cheap specs and one 100x-heavier one: count-balancing splits
  // 2/2, cost-balancing isolates the heavy spec (and numbers its shard
  // first so workers start the long pole immediately).
  std::vector<RunSpec> specs = small_sweep_specs();
  CostModel model;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const double wall = i == 2 ? 1.0 : 0.01;
    model.add(spec_cost_key(specs[i]), specs[i].workload, 1'000, wall);
  }

  const std::string plain = scratch_dir("plan_uniform");
  const std::string costed = scratch_dir("plan_costed");
  plan_spool(plain, specs, Registry::builtins(), {.shards = 2});
  SpoolOptions options;
  options.shards = 2;
  options.costs = model;
  plan_spool(costed, specs, Registry::builtins(), options);

  const auto plain_manifest = parse_spool_manifest_text(
      std::string(reinterpret_cast<const char*>(
                      read_file_bytes(plain + "/MANIFEST").data()),
                  read_file_bytes(plain + "/MANIFEST").size()),
      "plain");
  const auto costed_manifest = parse_spool_manifest_text(
      std::string(reinterpret_cast<const char*>(
                      read_file_bytes(costed + "/MANIFEST").data()),
                  read_file_bytes(costed + "/MANIFEST").size()),
      "costed");
  ASSERT_EQ(plain_manifest.shards.size(), 2u);
  ASSERT_EQ(costed_manifest.shards.size(), 2u);
  EXPECT_EQ(plain_manifest.shards[0].specs, 2u);
  EXPECT_EQ(plain_manifest.shards[1].specs, 2u);
  // The heavy spec sits alone on shard 0 (heaviest-first numbering).
  EXPECT_EQ(costed_manifest.shards[0].specs, 1u);
  EXPECT_EQ(costed_manifest.shards[1].specs, 3u);

  // Shard membership never touches merged bytes.
  FsTransport worker(costed);
  WorkOptions work_options;
  work_options.worker_id = "cost-worker";
  work_spool_transport(worker, Registry::builtins(), work_options);
  EXPECT_EQ(merge_spool(costed), single_process_csv(specs));
}

TEST(CostModel, WorkersFeedCostsBackThroughTheSpool) {
  const std::string dir = scratch_dir("cost_feedback");
  const std::vector<RunSpec> specs = small_sweep_specs();
  plan_spool(dir, specs, Registry::builtins(), {.shards = 2});
  FsTransport transport(dir);
  WorkOptions options;
  options.worker_id = "feedback";
  work_spool_transport(transport, Registry::builtins(), options);

  const CostModel model = load_cost_model({dir});
  EXPECT_EQ(model.by_spec.size(), specs.size());
  for (const RunSpec& spec : specs) {
    EXPECT_TRUE(model.by_spec.count(spec_cost_key(spec)) == 1)
        << "spec missing from the fed-back cost model";
  }
}

// --- status schema -----------------------------------------------------------

TEST(Transport, StatusRoundTripsAndRendersJson) {
  const std::string dir = scratch_dir("status");
  plan_spool(dir, small_sweep_specs(), Registry::builtins(), {.shards = 2});

  FsTransport transport(dir);
  {
    const auto claim = transport.claim("status-worker");
    ASSERT_TRUE(claim.has_value());
    transport.append_row(claim->id, "one-row");
  }
  const TransportStatus status = transport.status();
  EXPECT_FALSE(status.campaign);
  EXPECT_EQ(status.spool.specs, 4u);
  EXPECT_EQ(status.queue_depth, 1u);
  EXPECT_EQ(status.rows_done, 1u);

  // Wire round-trip (what STATUS serves) preserves every field.
  const TransportStatus parsed =
      parse_transport_status(serialize_transport_status(status));
  EXPECT_EQ(parsed.campaign, status.campaign);
  EXPECT_EQ(parsed.spool.fingerprint, status.spool.fingerprint);
  EXPECT_EQ(parsed.spool.specs, status.spool.specs);
  EXPECT_EQ(parsed.rows_done, status.rows_done);
  EXPECT_EQ(parsed.queue_depth, status.queue_depth);
  ASSERT_EQ(parsed.spool.shards.size(), status.spool.shards.size());
  for (std::size_t i = 0; i < parsed.spool.shards.size(); ++i) {
    EXPECT_EQ(parsed.spool.shards[i].state, status.spool.shards[i].state);
    EXPECT_EQ(parsed.spool.shards[i].owner, status.spool.shards[i].owner);
    EXPECT_EQ(parsed.spool.shards[i].partial_rows,
              status.spool.shards[i].partial_rows);
  }

  // The JSON schema: one shape for both transports.
  const std::string json = status_json(status);
  EXPECT_NE(json.find("\"kind\": \"sweep\""), std::string::npos);
  EXPECT_NE(json.find("\"rows_done\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"complete\": false"), std::string::npos);
  EXPECT_NE(json.find("\"eta_seconds\": null"), std::string::npos);
  EXPECT_NE(json.find("\"owner\": \"status-worker\""), std::string::npos);
}

// --- one spool protocol, two payload kinds ----------------------------------

/// The small sleepgen recording the campaign-kind tests replay.
const RecordedRun& campaign_recording() {
  static const RecordedRun run = [] {
    RunSpec spec;
    spec.workload = "sleepgen";
    spec.params.samples = 12;
    spec.max_cycles = 3'000'000;
    spec.design = DesignVariant::synchronized();
    RecordOutcome outcome = record_one(spec, Registry::builtins());
    EXPECT_TRUE(outcome.record.ok()) << outcome.record.verify_error;
    return std::move(outcome.recorded);
  }();
  return run;
}

CampaignConfig campaign_config(unsigned count) {
  CampaignConfig config;
  config.models = {ErrorModel::kDmSingle, ErrorModel::kIm};
  config.count = count;
  config.seed = 7;
  return config;
}

/// One spool kind, driven through its public entry points.
struct KindCase {
  std::string name;
  std::string extension;
  std::function<void(const std::string& dir, unsigned shards)> plan;
  std::function<void(const std::string& dir)> work;
  std::function<std::string(const std::string& dir)> merge;
  std::string expected;  ///< the single-process CSV
};

std::vector<KindCase> both_kinds() {
  const std::vector<RunSpec> specs = small_sweep_specs();
  KindCase sweep{
      "sweep", ".bundle",
      [specs](const std::string& dir, unsigned shards) {
        plan_spool(dir, specs, Registry::builtins(), {.shards = shards});
      },
      [](const std::string& dir) {
        (void)work_spool(dir, Registry::builtins());
      },
      [](const std::string& dir) { return merge_spool(dir); },
      single_process_csv(specs)};
  KindCase campaign{
      "campaign", ".range",
      [](const std::string& dir, unsigned shards) {
        plan_campaign_spool(dir, campaign_recording(), campaign_config(2),
                            Registry::builtins(), {.shards = shards});
      },
      [](const std::string& dir) {
        (void)work_campaign_spool(dir, Registry::builtins());
      },
      [](const std::string& dir) { return merge_campaign_spool(dir); },
      campaign_csv(run_campaign(campaign_recording(), Registry::builtins(),
                                campaign_config(2), 1))};
  return {sweep, campaign};
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void swap_files(const std::string& a, const std::string& b) {
  const auto bytes_a = read_file_bytes(a);
  write_bytes(a, read_file_bytes(b));
  write_bytes(b, bytes_a);
}

/// Complete rows appended to any partial part of the spool.
std::size_t partial_rows(const std::string& dir) {
  std::size_t rows = 0;
  for (const ShardState& shard : spool_status(dir).shards) {
    rows += shard.partial_rows;
  }
  return rows;
}

TEST(SpoolProtocol, SwappedPayloadsAreRejectedBeforeAnyRow) {
  // Two equal-size shards whose payloads trade places: each payload still
  // parses and belongs to the spool, but names the other shard. Filing
  // its rows under the embedded id would leave a claim stranded and merge
  // rows at the wrong indices; the drain refuses before appending a row.
  for (const KindCase& kind : both_kinds()) {
    const std::string dir = scratch_dir("swap_work_" + kind.name);
    kind.plan(dir, 2);
    swap_files(dir + "/queue/shard-0000" + kind.extension,
               dir + "/queue/shard-0001" + kind.extension);
    EXPECT_THROW(kind.work(dir), std::runtime_error) << kind.name;
    EXPECT_EQ(partial_rows(dir), 0u) << kind.name;
    EXPECT_THROW((void)kind.merge(dir), std::runtime_error) << kind.name;
  }
}

TEST(SpoolProtocol, MergeRejectsSwappedFinishedPayloads) {
  for (const KindCase& kind : both_kinds()) {
    const std::string dir = scratch_dir("swap_merge_" + kind.name);
    kind.plan(dir, 2);
    kind.work(dir);
    ASSERT_EQ(kind.merge(dir), kind.expected) << kind.name;
    swap_files(dir + "/done/shard-0000" + kind.extension,
               dir + "/done/shard-0001" + kind.extension);
    EXPECT_THROW((void)kind.merge(dir), std::runtime_error) << kind.name;
  }
}

TEST(SpoolProtocol, StatusTracksLifecycleForBothKinds) {
  for (const KindCase& kind : both_kinds()) {
    const std::string dir = scratch_dir("lifecycle_" + kind.name);
    kind.plan(dir, 2);
    SpoolStatus status = spool_status(dir);
    EXPECT_EQ(status.kind == SpoolKind::kCampaign, kind.name == "campaign");
    EXPECT_EQ(status.specs, 4u) << kind.name;
    ASSERT_EQ(status.shards.size(), 2u) << kind.name;
    for (const ShardState& shard : status.shards) {
      EXPECT_EQ(shard.state, "queued") << kind.name;
      EXPECT_FALSE(shard.part_final) << kind.name;
    }
    EXPECT_FALSE(status.complete());
    EXPECT_THROW((void)kind.merge(dir), std::runtime_error) << kind.name;

    kind.work(dir);
    status = spool_status(dir);
    for (const ShardState& shard : status.shards) {
      EXPECT_EQ(shard.state, "done") << kind.name;
      EXPECT_TRUE(shard.part_final) << kind.name;
    }
    EXPECT_TRUE(status.complete()) << kind.name;
    EXPECT_EQ(kind.merge(dir), kind.expected) << kind.name;
  }
}

TEST(SpoolProtocol, CorruptPayloadIsRejectedForBothKinds) {
  for (const KindCase& kind : both_kinds()) {
    const std::string probe = scratch_dir("corrupt_probe_" + kind.name);
    kind.plan(probe, 1);
    const auto bytes =
        read_file_bytes(probe + "/queue/shard-0000" + kind.extension);
    std::vector<std::vector<std::uint8_t>> corrupt;
    corrupt.emplace_back(bytes.begin(), bytes.begin() + bytes.size() / 2);
    for (const std::size_t at : {std::size_t{3}, bytes.size() / 2,
                                 bytes.size() - 2}) {
      corrupt.push_back(bytes);
      corrupt.back()[at] ^= 0x40;
    }
    for (std::size_t i = 0; i < corrupt.size(); ++i) {
      const std::string dir =
          scratch_dir("corrupt_" + kind.name + std::to_string(i));
      kind.plan(dir, 1);
      write_bytes(dir + "/queue/shard-0000" + kind.extension, corrupt[i]);
      EXPECT_ANY_THROW(kind.work(dir)) << kind.name << " #" << i;
      EXPECT_EQ(partial_rows(dir), 0u) << kind.name << " #" << i;
    }
  }
}

TEST(SpoolProtocol, CorruptManifestIsRejectedForBothKinds) {
  for (const KindCase& kind : both_kinds()) {
    const std::string dir = scratch_dir("bad_manifest_" + kind.name);
    kind.plan(dir, 2);
    const auto manifest = read_file_bytes(dir + "/MANIFEST");
    for (const std::string& text :
         {std::string("not a spool\n"),
          std::string(manifest.begin(), manifest.begin() + manifest.size() / 3),
          std::string(manifest.begin(), manifest.end()) + "shard x y z\n"}) {
      std::ofstream(dir + "/MANIFEST", std::ios::trunc) << text;
      EXPECT_THROW((void)spool_status(dir), std::runtime_error) << kind.name;
      EXPECT_THROW(kind.work(dir), std::runtime_error) << kind.name;
      EXPECT_THROW((void)kind.merge(dir), std::runtime_error) << kind.name;
    }
  }
}

/// A transport decorator that logs the per-shard calls a worker makes.
class RecordingTransport final : public SpoolTransport {
 public:
  explicit RecordingTransport(SpoolTransport& inner) : inner_(inner) {}

  std::vector<std::string> calls;

  [[nodiscard]] std::string describe() const override {
    return inner_.describe();
  }
  [[nodiscard]] std::string manifest_text() override {
    return inner_.manifest_text();
  }
  [[nodiscard]] std::vector<std::uint8_t> fetch_blob(
      const std::string& name) override {
    return inner_.fetch_blob(name);
  }
  [[nodiscard]] std::optional<ClaimedShard> claim(
      const std::string& worker_id) override {
    auto claimed = inner_.claim(worker_id);
    if (claimed) calls.push_back("claim " + std::to_string(claimed->id));
    return claimed;
  }
  void heartbeat(unsigned id) override {
    calls.push_back("heartbeat " + std::to_string(id));
    inner_.heartbeat(id);
  }
  void append_row(unsigned id, const std::string& row) override {
    calls.push_back("row " + std::to_string(id));
    inner_.append_row(id, row);
  }
  void append_cost(unsigned id, const std::string& line) override {
    calls.push_back("cost " + std::to_string(id));
    inner_.append_cost(id, line);
  }
  void complete(unsigned id, std::uint64_t part_hash) override {
    calls.push_back("complete " + std::to_string(id) + " " +
                    util::hex64(part_hash));
    inner_.complete(id, part_hash);
  }
  std::size_t adopt_orphans() override { return inner_.adopt_orphans(); }
  [[nodiscard]] std::string part_text(unsigned id) override {
    return inner_.part_text(id);
  }
  [[nodiscard]] TransportStatus status() override { return inner_.status(); }

 private:
  SpoolTransport& inner_;
};

/// The `complete` entry the drain must send: the final part's FNV-1a64.
std::string complete_call(const std::string& dir, unsigned id) {
  FsTransport transport(dir);
  return "complete " + std::to_string(id) + " " +
         util::hex64(hash_text(transport.part_text(id)));
}

TEST(SpoolProtocol, SweepDrainSendsHeartbeatRowCostPerRun) {
  const std::string dir = scratch_dir("calls_sweep");
  plan_spool(dir, small_sweep_specs(), Registry::builtins(), {.shards = 2});
  FsTransport fs_transport(dir);
  RecordingTransport recorder(fs_transport);
  (void)work_spool_transport(recorder, Registry::builtins(), {});

  std::vector<std::string> expected;
  for (const ShardState& shard : spool_status(dir).shards) {
    expected.push_back("claim " + std::to_string(shard.id));
    for (std::size_t run = 0; run < shard.specs; ++run) {
      for (const char* call : {"heartbeat ", "row ", "cost "}) {
        expected.push_back(call + std::to_string(shard.id));
      }
    }
    expected.push_back(complete_call(dir, shard.id));
  }
  EXPECT_EQ(recorder.calls, expected);
}

TEST(SpoolProtocol, CampaignDrainSendsOneHeartbeatPerBlock) {
  // Ten faults on one shard, two trial threads: blocks of max(jobs, 1) * 4
  // = 8 rows, each opened by one heartbeat, no cost lines.
  const std::string dir = scratch_dir("calls_campaign");
  plan_campaign_spool(dir, campaign_recording(), campaign_config(5),
                      Registry::builtins(), {.shards = 1});
  FsTransport fs_transport(dir);
  RecordingTransport recorder(fs_transport);
  (void)work_campaign_transport(recorder, Registry::builtins(), {.jobs = 2});

  std::vector<std::string> expected = {"claim 0"};
  for (const std::size_t block : {8u, 2u}) {
    expected.push_back("heartbeat 0");
    expected.insert(expected.end(), block, "row 0");
  }
  expected.push_back(complete_call(dir, 0));
  EXPECT_EQ(recorder.calls, expected);
  EXPECT_EQ(merge_campaign_spool(dir),
            campaign_csv(run_campaign(campaign_recording(),
                                      Registry::builtins(), campaign_config(5),
                                      1)));
}

// --- hostile input -----------------------------------------------------------

using Bytes = std::vector<std::uint8_t>;

/// Feeds every truncation and every single-bit flip of `original` to
/// `decode`, which renders what it decoded as text. Each mutant must either
/// decode to the original's rendering (`exact`) or at least decode
/// (`!exact`), or throw one std::exception whose what() is a single line.
template <typename Decode>
void expect_mutants_handled(const Bytes& original, Decode decode,
                            const std::string& name, bool exact = true) {
  const std::string expected = decode(original);
  const auto check = [&](const Bytes& mutant, const std::string& label) {
    try {
      const std::string got = decode(mutant);
      if (exact) EXPECT_EQ(got, expected) << name << ": " << label;
    } catch (const std::exception& error) {
      const std::string what = error.what();
      EXPECT_TRUE(!what.empty() && what.find_first_of("\r\n") == std::string::npos)
          << name << ": " << label << ": " << what;
    }
  };
  for (std::size_t size = 0; size < original.size(); ++size) {
    check(Bytes(original.begin(), original.begin() + static_cast<std::ptrdiff_t>(size)),
          "truncated to " + std::to_string(size));
  }
  for (std::size_t i = 0; i < original.size(); ++i) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      Bytes mutant = original;
      mutant[i] ^= static_cast<std::uint8_t>(1u << bit);
      check(mutant, "bit " + std::to_string(bit) + " of byte " + std::to_string(i));
    }
  }
}

/// A framed image with its trailing hash replaced by a valid one for `body`.
Bytes resealed(const Bytes& body) {
  util::WireWriter w;
  for (const std::uint8_t byte : body) w.u8(byte);
  return util::Frame::seal(w);
}

/// The same over a framed image's body: each mutant is resealed, so the
/// decoder's own field checks are what stand between a forged image and a
/// wrong decode.
template <typename Decode>
void expect_resealed_mutants_handled(const Bytes& image, Decode decode,
                                     const std::string& name) {
  expect_mutants_handled(
      Bytes(image.begin(), image.end() - 8),
      [&](const Bytes& body) { return decode(resealed(body)); },
      name + " (resealed)", /*exact=*/false);
}

std::string bytes_text(const Bytes& bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

/// A rendering of everything a bundle decodes to. A bundle that decodes must
/// be well formed: no spec's enum out of range, no warm-state reference to
/// a state the bundle does not ship.
std::string render_bundle(const Bytes& bytes) {
  const ShardBundle bundle = parse_bundle_bytes(bytes, "bundle");
  util::WireWriter w;
  w.u64(bundle.fingerprint);
  w.u32(bundle.id);
  for (std::size_t i = 0; i < bundle.specs.size(); ++i) {
    const std::int32_t ref = bundle.warm_ref[i];
    EXPECT_TRUE(ref >= -1 &&
                ref < static_cast<std::int32_t>(bundle.warm_states.size()))
        << "decoded bundle holds a dangling warm reference " << ref;
    EXPECT_TRUE(!bundle.specs[i].arbitration ||
                *bundle.specs[i].arbitration <= sim::ArbitrationPolicy::kRoundRobin)
        << "decoded bundle holds an invalid arbitration";
    w.u64(bundle.indices[i]);
    w.u32(static_cast<std::uint32_t>(ref));
    encode_run_spec(w, bundle.specs[i]);
  }
  for (const auto& state : bundle.warm_states) w.blob(serialize_warm_state(*state));
  return bytes_text(w.take());
}

std::string render_campaign(const Bytes& bytes) {
  const PlannedCampaign planned = parse_planned_campaign(bytes, "campaign");
  return util::hex64(planned.fingerprint) + " " +
         util::hex64(campaign_fingerprint(planned.config, planned.run)) + " " +
         bytes_text(planned.run.serialize());
}

TEST(HostileInput, FrameRejectsEveryTruncationAndBitFlip) {
  constexpr util::Frame kFrame{{'U', 'L', 'P', 'T', 'E', 'S', 'T', '\n'}, 3};
  util::WireWriter w = kFrame.begin();
  w.u64(0x0123456789abcdefull);
  w.str("hostile");
  w.blob(Bytes{1, 2, 3});
  w.boolean(true);
  expect_mutants_handled(
      util::Frame::seal(w),
      [&](const Bytes& bytes) {
        util::WireReader r = kFrame.open(bytes, "frame");
        std::string out = util::hex64(r.u64());
        out += " " + r.str();
        out += " " + bytes_text(r.blob());
        out += r.boolean() ? " true" : " false";
        if (!r.at_end()) throw std::invalid_argument("frame: trailing bytes");
        return out;
      },
      "frame");
}

TEST(HostileInput, ShardBundleRejectsEveryTruncationAndBitFlip) {
  // Two specs sharing a warm prefix, so the bundle ships a warm state.
  std::vector<RunSpec> specs = small_sweep_specs();
  specs.resize(3);
  specs[1].params.samples = specs[2].params.samples = 8;
  specs[1].checkpoint_at = specs[2].checkpoint_at = 2'000;
  specs[2].max_cycles = 1'500'000;
  specs[1].arbitration = specs[2].arbitration =
      sim::ArbitrationPolicy::kRoundRobin;
  const std::string dir = scratch_dir("hostile_bundle");
  plan_spool(dir, specs, Registry::builtins(), {.shards = 1});
  const Bytes bundle = read_file_bytes(dir + "/queue/shard-0000.bundle");
  ASSERT_EQ(parse_bundle_bytes(bundle, "bundle").warm_states.size(), 1u);
  expect_mutants_handled(bundle, render_bundle, "bundle");
  expect_resealed_mutants_handled(bundle, render_bundle, "bundle");
}

TEST(HostileInput, BundleRejectsWarmReferenceWithSignBitSet) {
  const std::string dir = scratch_dir("hostile_warm_ref");
  plan_spool(dir, {small_sweep_specs()[0]}, Registry::builtins(), {.shards = 1});
  const Bytes bundle = read_file_bytes(dir + "/queue/shard-0000.bundle");
  ASSERT_EQ(parse_bundle_bytes(bundle, "bundle").warm_ref.front(), -1);
  // A reference with its sign bit set is out of range, not "run cold". The
  // first spec's reference follows the header, fingerprint, shard id, count
  // and index.
  for (const std::uint32_t ref : {0u, 0x80000000u, 0xFFFFFFFEu}) {
    Bytes body(bundle.begin(), bundle.end() - 8);
    for (unsigned k = 0; k < 4; ++k) body[36 + k] = static_cast<std::uint8_t>(ref >> (8 * k));
    EXPECT_THROW((void)parse_bundle_bytes(resealed(body), "bundle"),
                 std::invalid_argument)
        << ref;
  }
}

TEST(HostileInput, RunSpecRejectsOutOfRangeArbitration) {
  RunSpec spec = small_sweep_specs()[0];
  spec.arbitration = sim::ArbitrationPolicy::kFixedPriority;
  util::WireWriter fixed;
  encode_run_spec(fixed, spec);
  spec.arbitration = sim::ArbitrationPolicy::kRoundRobin;
  util::WireWriter round_robin;
  encode_run_spec(round_robin, spec);
  Bytes bytes = round_robin.take();
  // The one byte that differs is the policy; one past kRoundRobin names no
  // policy.
  *std::mismatch(bytes.begin(), bytes.end(), fixed.bytes().begin()).first = 3;
  util::WireReader forged(bytes);
  EXPECT_THROW((void)decode_run_spec(forged), std::invalid_argument);
}

TEST(HostileInput, CampaignImageRejectsEveryTruncationAndBitFlip) {
  // The smallest recording a campaign accepts keeps the quadratic sweep
  // (every mutant re-hashes the whole image) fast under the sanitizers.
  RunSpec spec;
  spec.workload = "sqrt32";
  spec.params.samples = 4;
  spec.max_cycles = 2'000'000;
  spec.design = DesignVariant::synchronized();
  RecordOutcome outcome = record_one(spec, Registry::builtins());
  ASSERT_TRUE(outcome.record.ok()) << outcome.record.verify_error;
  const std::string dir = scratch_dir("hostile_campaign");
  plan_campaign_spool(dir, outcome.recorded, campaign_config(2),
                      Registry::builtins(), {.shards = 2});
  const Bytes image = read_file_bytes(dir + "/campaign.bin");
  expect_mutants_handled(image, render_campaign, "campaign image");
  expect_resealed_mutants_handled(image, render_campaign, "campaign image");
}

TEST(HostileInput, ManifestRejectsDroppedRowAndFlippedHashDigit) {
  // Without a checksum both would parse: a manifest torn after a complete
  // row loses its last shard, and a flipped hex digit names another bundle.
  const std::string dir = scratch_dir("hostile_manifest_rows");
  plan_spool(dir, small_sweep_specs(), Registry::builtins(), {.shards = 2});
  const std::string text = bytes_text(read_file_bytes(dir + "/MANIFEST"));
  const std::size_t last_row = text.rfind("shard 1 ");
  ASSERT_NE(last_row, std::string::npos);
  std::string flipped = text;
  char& digit = flipped[text.find('\n', last_row) - 1];
  digit = digit == '0' ? '1' : '0';
  for (const std::string& bad : {text.substr(0, last_row), flipped}) {
    EXPECT_THROW((void)parse_spool_manifest_text(bad, "manifest"),
                 std::runtime_error);
  }
  EXPECT_EQ(parse_spool_manifest_text(text, "manifest").shards.size(), 2u);
}

TEST(HostileInput, ManifestRejectsEveryTruncationAndBitFlip) {
  for (const KindCase& kind : both_kinds()) {
    const std::string dir = scratch_dir("hostile_manifest_" + kind.name);
    kind.plan(dir, 3);
    expect_mutants_handled(
        read_file_bytes(dir + "/MANIFEST"),
        [](const Bytes& bytes) {
          return spool_manifest_text(
              parse_spool_manifest_text(bytes_text(bytes), "manifest"));
        },
        kind.name + " manifest");
  }
}

}  // namespace
}  // namespace ulpsync::scenario

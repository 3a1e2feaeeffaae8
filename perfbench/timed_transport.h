#pragma once

// A timing decorator over any SpoolTransport: forwards every call to the
// wrapped transport, counts and times it, and opens a "spool.<method>" span
// around it when tracing is on. It also captures per-run host latency the
// way each spool reports it:
//  - sweep workers stream one `cost` line per run whose last field is the
//    run's wall seconds (scenario/shard.h `cost_line`);
//  - campaign workers heartbeat before each block of trials and append the
//    block's rows once it is done, so heartbeat-to-first-row is the block's
//    compute time, shared by the rows that follow.

#include <cstddef>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "scenario/transport.h"

namespace perfbench {

struct CallStat {
  std::size_t calls = 0;
  double seconds = 0.0;

  void add(const CallStat& other) {
    calls += other.calls;
    seconds += other.seconds;
  }
  /// Mean seconds per call (0 without calls).
  [[nodiscard]] double mean() const {
    return calls == 0 ? 0.0 : seconds / static_cast<double>(calls);
  }
};

/// What one worker's transport saw.
struct TransportLog {
  CallStat manifest, fetch_blob, claim, heartbeat, append_row, append_cost,
      complete, part_text;
  /// Seconds field of every cost line (sweep spools).
  std::vector<double> cost_seconds;
  /// Per-trial seconds of every trial block (campaign spools): the block's
  /// compute time divided by its rows.
  std::vector<double> block_trial_seconds;
  /// Compute time of all blocks, summed (campaign spools).
  double block_seconds = 0.0;
  std::vector<unsigned> claimed;  ///< shard ids, in claim order

  /// Time spent inside transport calls.
  [[nodiscard]] double transport_seconds() const;
  void add(const TransportLog& other);
};

class TimedTransport final : public ulpsync::scenario::SpoolTransport {
 public:
  /// `inner` must outlive this decorator.
  TimedTransport(ulpsync::scenario::SpoolTransport& inner, TransportLog& log)
      : inner_(inner), log_(log) {}

  [[nodiscard]] std::string describe() const override {
    return inner_.describe();
  }
  [[nodiscard]] std::string local_dir() const override {
    return inner_.local_dir();
  }
  [[nodiscard]] std::string manifest_text() override;
  [[nodiscard]] std::vector<std::uint8_t> fetch_blob(
      const std::string& name) override;
  [[nodiscard]] std::optional<ulpsync::scenario::ClaimedShard> claim(
      const std::string& worker_id) override;
  void heartbeat(unsigned id) override;
  void append_row(unsigned id, const std::string& row) override;
  void append_cost(unsigned id, const std::string& line) override;
  void complete(unsigned id, std::uint64_t part_hash) override;
  std::size_t adopt_orphans() override { return inner_.adopt_orphans(); }
  [[nodiscard]] std::string part_text(unsigned id) override;
  [[nodiscard]] ulpsync::scenario::TransportStatus status() override {
    return inner_.status();
  }

 private:
  /// Ends the open trial block, if any, and logs its per-trial seconds.
  void close_block();

  ulpsync::scenario::SpoolTransport& inner_;
  TransportLog& log_;
  bool block_open_ = false;
  Clock::time_point block_start_{};
  double block_wall_ = -1.0;  ///< < 0 until the block's first row arrives
  std::size_t block_rows_ = 0;
};

/// Shard ids claimed more than once across the logs — claims the spool
/// re-queued (a lease expired or a worker dropped).
[[nodiscard]] std::size_t requeued_claims(const std::vector<TransportLog>& logs);

}  // namespace perfbench

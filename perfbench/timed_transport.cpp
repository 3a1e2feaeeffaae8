#include "timed_transport.h"

#include <cstdlib>
#include <sstream>

namespace perfbench {

using namespace ulpsync::scenario;

namespace {

/// Times one forwarded call into `stat`, under a span when tracing.
class CallTimer {
 public:
  CallTimer(CallStat& stat, const char* span_name, std::int64_t run = -1)
      : stat_(stat), span_(span_name, run), start_(Clock::now()) {}
  ~CallTimer() {
    stat_.calls += 1;
    stat_.seconds += seconds_since(start_);
  }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

 private:
  CallStat& stat_;
  ScopedSpan span_;
  Clock::time_point start_;
};

}  // namespace

double TransportLog::transport_seconds() const {
  return manifest.seconds + fetch_blob.seconds + claim.seconds +
         heartbeat.seconds + append_row.seconds + append_cost.seconds +
         complete.seconds + part_text.seconds;
}

void TransportLog::add(const TransportLog& other) {
  manifest.add(other.manifest);
  fetch_blob.add(other.fetch_blob);
  claim.add(other.claim);
  heartbeat.add(other.heartbeat);
  append_row.add(other.append_row);
  append_cost.add(other.append_cost);
  complete.add(other.complete);
  part_text.add(other.part_text);
  cost_seconds.insert(cost_seconds.end(), other.cost_seconds.begin(),
                      other.cost_seconds.end());
  block_trial_seconds.insert(block_trial_seconds.end(),
                             other.block_trial_seconds.begin(),
                             other.block_trial_seconds.end());
  block_seconds += other.block_seconds;
  claimed.insert(claimed.end(), other.claimed.begin(), other.claimed.end());
}

std::string TimedTransport::manifest_text() {
  CallTimer timer(log_.manifest, "spool.manifest");
  return inner_.manifest_text();
}

std::vector<std::uint8_t> TimedTransport::fetch_blob(const std::string& name) {
  CallTimer timer(log_.fetch_blob, "spool.fetch_blob");
  return inner_.fetch_blob(name);
}

std::optional<ClaimedShard> TimedTransport::claim(const std::string& worker_id) {
  close_block();
  std::optional<ClaimedShard> claimed;
  {
    CallTimer timer(log_.claim, "spool.claim");
    claimed = inner_.claim(worker_id);
  }
  if (claimed) log_.claimed.push_back(claimed->id);
  return claimed;
}

void TimedTransport::heartbeat(unsigned id) {
  close_block();
  {
    CallTimer timer(log_.heartbeat, "spool.heartbeat", id);
    inner_.heartbeat(id);
  }
  block_open_ = true;
  block_start_ = Clock::now();
  block_wall_ = -1.0;
  block_rows_ = 0;
}

void TimedTransport::append_row(unsigned id, const std::string& row) {
  if (block_open_ && block_wall_ < 0.0) block_wall_ = seconds_since(block_start_);
  block_rows_ += 1;
  CallTimer timer(log_.append_row, "spool.append_row", id);
  inner_.append_row(id, row);
}

void TimedTransport::append_cost(unsigned id, const std::string& line) {
  // `cost <key> <workload> <cycles> <wall seconds>`
  std::istringstream fields(line);
  std::string tag, key, workload, cycles, wall;
  if (fields >> tag >> key >> workload >> cycles >> wall && tag == "cost") {
    log_.cost_seconds.push_back(std::strtod(wall.c_str(), nullptr));
  }
  CallTimer timer(log_.append_cost, "spool.append_cost", id);
  inner_.append_cost(id, line);
}

void TimedTransport::complete(unsigned id, std::uint64_t part_hash) {
  close_block();
  CallTimer timer(log_.complete, "spool.complete", id);
  inner_.complete(id, part_hash);
}

std::string TimedTransport::part_text(unsigned id) {
  CallTimer timer(log_.part_text, "spool.part_text", id);
  return inner_.part_text(id);
}

void TimedTransport::close_block() {
  if (block_open_ && block_rows_ > 0 && block_wall_ >= 0.0) {
    log_.block_trial_seconds.push_back(block_wall_ /
                                       static_cast<double>(block_rows_));
    log_.block_seconds += block_wall_;
  }
  block_open_ = false;
}

std::size_t requeued_claims(const std::vector<TransportLog>& logs) {
  std::set<unsigned> seen;
  std::size_t repeats = 0;
  for (const TransportLog& log : logs) {
    for (unsigned id : log.claimed) {
      if (!seen.insert(id).second) repeats += 1;
    }
  }
  return repeats;
}

}  // namespace perfbench

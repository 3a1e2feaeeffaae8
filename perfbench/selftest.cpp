// Self-test of the benchmark's reductions on synthetic input: the tail
// percentile rule, latency summaries, shares, the row check behind
// failed_frac, and span self time. Exits 0 when every check holds.
//
//   cmake --build <build dir> --target perfbench_selftest
//   <build dir>/perfbench_selftest

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

using namespace perfbench;

int failures = 0;

void check(bool condition, const char* what) {
  if (!condition) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void tail_percentile_rule() {
  check(supported_tail_percentile(0) == 0.0, "no samples support no tail");
  check(supported_tail_percentile(99) == 0.0, "99 samples leave 9.9 beyond p90");
  check(supported_tail_percentile(100) == 90.0, "100 samples support p90");
  check(supported_tail_percentile(999) == 90.0, "999 samples stop at p90");
  check(supported_tail_percentile(1000) == 99.0, "1000 samples support p99");
  check(supported_tail_percentile(10000) == 99.9, "10000 samples support p99.9");
  check(supported_tail_percentile(150) == 90.0, "150 samples support only p90");
}

void latency_summary() {
  std::vector<double> values;
  for (int i = 1; i <= 101; ++i) values.push_back(i);
  const LatencySummary summary = summarize_latency(values);
  check(summary.samples == 101, "summary counts samples");
  check(near(summary.p50, 51.0), "p50 of 1..101 is 51");
  check(near(summary.p90, 91.0), "p90 of 1..101 is 91");
  check(summary.tail_percentile == 90.0, "101 samples report p90 as tail");
  bool threw = false;
  try {
    (void)summarize_latency(std::vector<double>(99, 1.0));
  } catch (const std::runtime_error&) {
    threw = true;
  }
  check(threw, "fewer than 100 samples refuse a p90");
  check(near(median({3.0, 1.0, 2.0}), 2.0), "median of odd set");
  check(near(median({4.0, 1.0, 2.0, 3.0}), 2.5), "median of even set");
}

void shares() {
  check(near(share(1.0, 4.0), 0.25), "share is part over whole");
  check(share(1.0, 0.0) == 0.0, "share of nothing is 0");
}

void row_checks() {
  const std::string reference = "h\na\nb\nc\n";
  RowTally tally = check_rows(reference, reference);
  check(tally.attempted == 3 && tally.failed == 0, "identical CSVs pass");
  check(tally.failed_frac() == 0.0, "failed_frac of a clean run is 0");

  tally = check_rows("h\na\nX\nc\n", reference);
  check(tally.attempted == 3 && tally.failed == 1, "a changed row fails");
  check(near(tally.failed_frac(), 1.0 / 3.0), "failed_frac is failed over attempted");

  tally = check_rows("h\na\nb\n", reference);
  check(tally.attempted == 3 && tally.failed == 1, "a missing row fails");

  tally = check_rows("h\na\nb\nc\nd\n", reference);
  check(tally.attempted == 4 && tally.failed == 1, "an extra row fails");

  tally = check_rows("H\na\nb\nc\n", reference);
  check(tally.failed == 3, "a changed header fails every row");

  tally = check_rows(reference, reference, {true, false, true});
  check(tally.failed == 1, "a row whose status is not ok fails");

  tally = check_rows("h\na\nb\nc", reference);
  check(tally.failed == 0, "a missing final newline keeps the last row");

  RowTally total;
  total.add({3, 1});
  total.add({5, 0});
  check(total.attempted == 8 && total.failed == 1, "tallies add up");
}

void self_time() {
  // root [0, 100] with children [10, 30] and [20, 50] (overlapping, e.g.
  // two threads) and [60, 70]; the first child has a child [15, 25].
  std::vector<Span> spans = {
      {"root", 0, -1, 0, 0, 100},   {"child", 1, 0, 0, 10, 30},
      {"child", 2, 0, 0, 20, 50},   {"leaf", 3, 1, 0, 15, 25},
      {"child", 4, 0, 0, 60, 70},
  };
  const auto self = self_time_by_name(spans);
  check(near(self.at("root").seconds, 50e-9), "root self time subtracts the union of children");
  check(self.at("root").spans == 1, "one root span");
  check(near(self.at("child").seconds, (20 - 10 + 30 + 10) * 1e-9), "child self times sum");
  check(self.at("child").spans == 3, "three child spans");
  check(near(self.at("leaf").seconds, 10e-9), "a leaf's self time is its duration");
}

}  // namespace

int main() {
  tail_percentile_rule();
  latency_summary();
  shares();
  row_checks();
  self_time();
  if (failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

#include "stats.h"

#include <algorithm>
#include <stdexcept>

#include "util/stats.h"

namespace perfbench {

double median(std::vector<double> values) {
  return ulpsync::util::percentile(std::move(values), 50.0);
}

double supported_tail_percentile(std::size_t samples) {
  // Percentile p has samples * (1 - p/100) values beyond it; the ladder is
  // kept in tenths of a percent so the comparison stays in integers.
  struct Rung {
    double percentile;
    std::size_t beyond_per_mille;
  };
  constexpr Rung kLadder[] = {{99.9, 1}, {99.0, 10}, {90.0, 100}};
  for (const Rung& rung : kLadder) {
    if (samples * rung.beyond_per_mille >= kMinBeyond * 1000) {
      return rung.percentile;
    }
  }
  return 0.0;
}

LatencySummary summarize_latency(const std::vector<double>& values) {
  LatencySummary summary;
  summary.samples = values.size();
  summary.tail_percentile = supported_tail_percentile(values.size());
  if (summary.tail_percentile < 90.0) {
    throw std::runtime_error(
        "latency: " + std::to_string(values.size()) +
        " samples leave fewer than " + std::to_string(kMinBeyond) +
        " beyond the 90th percentile");
  }
  summary.p50 = ulpsync::util::percentile(values, 50.0);
  summary.p90 = ulpsync::util::percentile(values, 90.0);
  summary.tail = ulpsync::util::percentile(values, summary.tail_percentile);
  return summary;
}

double share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

std::vector<std::string_view> csv_lines(std::string_view text) {
  std::vector<std::string_view> lines;
  while (!text.empty()) {
    const std::size_t end = text.find('\n');
    if (end == std::string_view::npos) {
      lines.push_back(text);
      break;
    }
    lines.push_back(text.substr(0, end));
    text.remove_prefix(end + 1);
  }
  return lines;
}

RowTally check_rows(std::string_view produced, std::string_view reference,
                    const std::vector<bool>& row_ok) {
  const std::vector<std::string_view> got = csv_lines(produced);
  const std::vector<std::string_view> want = csv_lines(reference);
  const std::size_t got_rows = got.empty() ? 0 : got.size() - 1;
  const std::size_t want_rows = want.empty() ? 0 : want.size() - 1;

  RowTally tally;
  tally.attempted = std::max(got_rows, want_rows);
  const bool header_ok = !got.empty() && !want.empty() && got[0] == want[0];
  for (std::size_t i = 0; i < tally.attempted; ++i) {
    const bool present = i < got_rows && i < want_rows;
    const bool status_ok = row_ok.empty() || (i < row_ok.size() && row_ok[i]);
    if (!header_ok || !present || got[i + 1] != want[i + 1] || !status_ok) {
      tally.failed += 1;
    }
  }
  return tally;
}

}  // namespace perfbench

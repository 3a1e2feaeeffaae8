#pragma once

// Reductions the benchmark applies to its raw measurements: medians, the
// tail-percentile rule, shares, and the row check behind `failed_frac`.
// Everything here is pure arithmetic over plain vectors, so the self-test
// (selftest.cpp) exercises it on synthetic input.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median of `values` (0 for an empty set).
[[nodiscard]] double median(std::vector<double> values);

/// Samples a reported percentile must have beyond it.
constexpr std::size_t kMinBeyond = 10;

/// The highest of the percentiles 90, 99 and 99.9 that has at least
/// `kMinBeyond` of `samples` values beyond it; 0 when even the 90th has
/// fewer (under 100 samples).
[[nodiscard]] double supported_tail_percentile(std::size_t samples);

/// Latency summary of one sample set: the median, the 90th percentile and
/// the highest percentile the sample count supports (see above).
struct LatencySummary {
  std::size_t samples = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double tail_percentile = 0.0;  ///< 0 when the set is too small
  double tail = 0.0;             ///< value at `tail_percentile`
};

/// Summarizes `values`; throws std::runtime_error when fewer than 100
/// samples exist, because the 90th percentile would then rest on fewer than
/// `kMinBeyond` samples beyond it.
[[nodiscard]] LatencySummary summarize_latency(const std::vector<double>& values);

/// `part / whole`, or 0 when `whole` is not positive.
[[nodiscard]] double share(double part, double whole);

/// Rows attempted and rows failed; `failed_frac` is their ratio.
struct RowTally {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void add(const RowTally& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
  [[nodiscard]] double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// Splits CSV text into its lines (a trailing newline ends the last line;
/// a missing one keeps the fragment as a line).
[[nodiscard]] std::vector<std::string_view> csv_lines(std::string_view text);

/// Checks produced CSV text against the reference CSV text, row by row.
/// The first line of each is the header; a header that differs fails every
/// row. A data row fails when its bytes differ from the reference row at
/// the same position, when it is missing or extra, or when `row_ok` is
/// non-empty and holds false at its index (a status that is not ok).
/// `attempted` is the larger of the two row counts.
[[nodiscard]] RowTally check_rows(std::string_view produced,
                                  std::string_view reference,
                                  const std::vector<bool>& row_ok = {});

}  // namespace perfbench

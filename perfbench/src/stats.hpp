// The benchmark's own arithmetic: medians, the tail percentile, failure
// ratios and the interval algebra behind span self time and coverage. Kept
// free of library types so tests/stats_test.cpp can pin it exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `samples` (mean of the two middle values for an even count);
/// 0 for an empty set.
double median(std::vector<double> samples);

/// Median of the per-group means: samples[i] belongs to groups[i] (the two
/// vectors have one size). 0 for an empty set.
double medianOfGroupMeans(const std::vector<double>& samples,
                          const std::vector<std::string>& groups);

/// The highest percentile that still has at least ten samples beyond it:
/// with n > 10 sorted samples that is the (n-10)-th smallest, i.e. exactly
/// ten samples lie above it. With n <= 10 no percentile qualifies, so the
/// maximum is reported with percentile 100 and the (fewer) samples beyond
/// it counted as zero.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< in [0, 100]
  std::size_t beyond = 0;   ///< samples strictly above the reported rank
  std::size_t samples = 0;
};
Tail tailPercentile(std::vector<double> samples);

/// Counts operations and their failures. A failure is an error, a
/// divergence, a wrong output, a refusal or a timeout.
struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// failed / attempted; 0 when nothing was attempted.
  double failRatio() const;
};

/// A closed-open time interval in nanoseconds.
struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Length of the union of `parts` clipped to `window`.
std::int64_t coveredLength(const Interval& window, std::vector<Interval> parts);

/// A span's self time: its length minus the part its children cover.
std::int64_t selfTime(const Interval& span, const std::vector<Interval>& children);

}  // namespace perfbench

// The sections of bench_hotpaths (bench/hotpaths.cpp), one runner per file
// in this directory, and the one timing rule they share.
//
// Each runner asserts its outputs first — a speedup over wrong results is
// meaningless — and throws tensorlib::Error when a check fails. It then
// returns its line of BENCH_hotpaths.json and its gate verdict; the harness
// writes the record whole once every section has run.
#pragma once

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

namespace tensorlib::bench::hotpaths {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// The middle sample (the upper one of an even count).
inline double median(std::vector<double> samples) {
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

/// How the harness measures this run.
struct RunConfig {
  /// Small sizes, correctness asserts only: every gate passes.
  bool smoke = false;
  /// Timed repetitions of each side (5 in full mode, 1 in smoke mode).
  /// Every timed side reads as the median of its repetitions, interleaved
  /// with the other side's, each from the same starting state: a single
  /// 25–55 ms timing swings too much to gate on.
  int reps = 5;
  /// Where the daemon section writes its snapshot; removed on every exit.
  std::string snapshotPath;
};

/// One property of the record, e.g. `"rtl": {...}` (no trailing comma),
/// and whether its gate passed. A section without a gate always passes.
struct Section {
  std::string line;
  bool pass = true;
};

Section runRtl(const RunConfig& run);
Section runTileTrace(const RunConfig& run);
Section runService(const RunConfig& run);
Section runNetwork(const RunConfig& run);
Section runSocket(const RunConfig& run);
Section runDaemon(const RunConfig& run);
Section runModelRtl(const RunConfig& run);
Section runEnum3(const RunConfig& run);

}  // namespace tensorlib::bench::hotpaths

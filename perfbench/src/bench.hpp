// Shared plumbing of the three workload runners: run configuration, the
// timed-phase record every runner fills, and the metric tables.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "driver/explore_service.hpp"
#include "stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string traceFile;
  std::size_t threads = 4;  ///< min(4, hardware threads)
};

/// What one run measured with tracing off: the end-to-end inputs.
struct TimedPhase {
  std::vector<double> setupS;  ///< one entry per set-up repetition
  std::vector<double> opMs;    ///< latency of every timed op
  /// The model each op ran, for workloads whose ops differ in size
  /// (empty otherwise): op_p50_ms is then the median of the per-model mean
  /// latencies, so it stays on one model, and the mean damps a model whose
  /// latency is bimodal on a shared host.
  std::vector<std::string> opModel;
  /// Wall time of each round, for workloads that repeat one fixed round of
  /// ops (empty otherwise): throughput is then taken from the median round.
  std::vector<double> roundS;
  double wallS = 0.0;          ///< timed phase wall time, when there are no rounds
  double designs = 0.0;        ///< design points handled by the timed ops
  double winnerCycles = 0.0;   ///< summed predicted cycles of the winners
  /// Peak resident set when the timed phase ended (checks and probes that
  /// follow it do not count).
  double peakRssMb = 0.0;
};

/// Everything a runner hands back to main.
struct RunResult {
  OpCount ops;  ///< every op and output check the run made
  TimedPhase phase;
  /// Per-layer metrics by name (only those the workload measures; the rest
  /// are reported as 0). Filled only by traced runs.
  std::map<std::string, double> layers;
  /// Extra "name value unit" lines for the human-readable report.
  std::vector<std::string> notes;
};

RunResult runExploreCold(const RunConfig& config);
RunResult runModelVerify(const RunConfig& config);
RunResult runServeMix(const RunConfig& config);

/// Runs `setup` five times, timing each (seconds) into `out`; setup_s is
/// their median. The callers keep the state of the last repetition for the
/// timed phase.
void timeSetups(const std::function<void()>& setup, std::vector<double>* out);

/// Peak resident set of this process so far, in MB.
double peakRssMb();

/// The stt.enumerate probe: enumerates, in one span, the design space of
/// each distinct (algebra, dropAllUnicast) pair among `queries`; returns
/// the summed spec count.
double enumerateDistinct(const std::vector<tensorlib::driver::ExploreQuery>& queries);

struct MetricInfo {
  const char* name;
  const char* unit;
};

/// The end-to-end and per-layer metrics, in report order. BENCHMARK.json at
/// the repository root lists the same names with the same units.
const std::vector<MetricInfo>& endToEndMetrics();
const std::vector<MetricInfo>& perLayerMetrics();

/// trace.overhead_pct from the untraced and traced op totals of one op set.
inline double overheadPct(double untracedMs, double tracedMs) {
  return untracedMs > 0.0 ? 100.0 * (tracedMs - untracedMs) / untracedMs : 0.0;
}

}  // namespace perfbench

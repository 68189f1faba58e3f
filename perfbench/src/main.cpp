// perfbench: the end-to-end benchmark of the tensorlib flows.
//
// Usage: perfbench --workload explore-cold|model-verify|serve-mix
//                  --seed N --seconds S --trace 0|1
//                  [--trace-file PATH]
//
// --trace 0 measures the workload untraced and reports the end-to-end
// metrics; --trace 1 runs it untraced and then traced, reports the
// per-layer metrics, the span coverage and the tracing overhead, and
// writes the spans as Chrome trace-event JSON. Human-readable lines come
// first; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. The exit code is 0 when
// every output check passed, 1 when some op failed, 2 on a usage or
// set-up error (no JSON line then).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <set>
#include <string>
#include <thread>

#include "bench.hpp"
#include "stt/enumerate.hpp"
#include "trace.hpp"

namespace perfbench {

void timeSetups(const std::function<void()>& setup, std::vector<double>* out) {
  for (int i = 0; i < 5; ++i) {
    const auto start = Clock::now();
    setup();
    out->push_back(msSince(start) / 1e3);
  }
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

double enumerateDistinct(const std::vector<tensorlib::driver::ExploreQuery>& queries) {
  Span s("stt.enumerate");
  std::set<std::string> seen;
  double specs = 0;
  for (const tensorlib::driver::ExploreQuery& q : queries) {
    const std::string key =
        q.algebra.str() + (q.enumeration.dropAllUnicast ? "|drop" : "|keep");
    if (!seen.insert(key).second) continue;
    specs += static_cast<double>(
        tensorlib::stt::enumerateDesignSpace(q.algebra, q.enumeration).size());
  }
  return specs;
}

const std::vector<MetricInfo>& endToEndMetrics() {
  static const std::vector<MetricInfo> metrics = {
      {"setup_s", "s"},          {"ops_per_s", "1/s"},
      {"op_p50_ms", "ms"},       {"op_tail_ms", "ms"},
      {"designs_per_s", "1/s"},  {"peak_rss_mb", "MB"},
      {"winner_cycles", "cycles"},
  };
  return metrics;
}

const std::vector<MetricInfo>& perLayerMetrics() {
  static const std::vector<MetricInfo> metrics = {
      {"stt.candidates_ms", "ms"},     {"stt.candidates", "count"},
      {"stt.enumerate_ms", "ms"},      {"stt.specs", "count"},
      {"service.batch_ms", "ms"},      {"service.self_ms", "ms"},
      {"service.designs", "count"},    {"service.cache_hits", "count"},
      {"service.cache_misses", "count"}, {"service.cache_evictions", "count"},
      {"service.pruned", "count"},     {"service.prune_ratio", "ratio"},
      {"service.mapping_memo_hits", "count"},
      {"service.parallel_speedup", "ratio"},
      {"cost.eval_us", "us"},
      {"network.compose_ms", "ms"},    {"network.frontier_points", "count"},
      {"arch.generate_ms", "ms"},      {"arch.generate_rejects", "count"},
      {"arch.stitch_ms", "ms"},        {"arch.plan_ms", "ms"},
      {"arch.buffer_elems", "count"},  {"arch.stall_slots", "count"},
      {"tensor.reference_ms", "ms"},
      {"hwir.rtl_ms", "ms"},           {"hwir.sim_cycles", "cycles"},
      {"hwir.cycles_per_s", "1/s"},    {"hwir.netlist_nodes", "count"},
      {"hwir.verilog_ms", "ms"},       {"hwir.verilog_bytes", "bytes"},
      {"verify.check_ms", "ms"},
      {"sim.predicted_cycles", "cycles"}, {"sim.cycle_error_pct", "%"},
      {"wire.parse_us", "us"},         {"wire.format_us", "us"},
      {"daemon.exec_ms", "ms"},        {"socket.overhead_ms", "ms"},
      {"daemon.rejected", "count"},    {"daemon.timed_out", "count"},
      {"socket.dropped", "count"},     {"client.retries", "count"},
      {"stitched_cycles", "cycles"},   {"fail_ratio", "ratio"},
      {"trace.coverage", "ratio"},     {"trace.overhead_pct", "%"},
  };
  return metrics;
}

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload explore-cold|model-verify|serve-mix "
               "--seed N --seconds S --trace 0|1 [--trace-file PATH]\n",
               argv0);
  return 2;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::map<std::string, double> endToEndValues(const RunResult& r) {
  const TimedPhase& p = r.phase;
  // Workloads that repeat one fixed round take throughput from the median
  // round, so a stall in one round does not move it; the others from the
  // whole phase.
  const double rounds = p.roundS.empty() ? 1.0 : static_cast<double>(p.roundS.size());
  const double perRoundS = p.roundS.empty() ? p.wallS : median(p.roundS);
  const double ops = static_cast<double>(p.opMs.size()) / rounds;
  const Tail tail = tailPercentile(p.opMs);
  std::printf("  op_tail_ms is p%.2f: %zu of %zu samples beyond it\n",
              tail.percentile, tail.beyond, tail.samples);
  return {
      {"setup_s", median(p.setupS)},
      {"ops_per_s", perRoundS > 0 ? ops / perRoundS : 0.0},
      {"op_p50_ms",
       p.opModel.empty() ? median(p.opMs) : medianOfGroupMeans(p.opMs, p.opModel)},
      {"op_tail_ms", tail.value},
      {"designs_per_s", perRoundS > 0 ? p.designs / rounds / perRoundS : 0.0},
      {"peak_rss_mb", p.peakRssMb},
      {"winner_cycles", p.winnerCycles},
  };
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  bool haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool hasValue = i + 1 < argc;
    try {
      if (arg == "--workload" && hasValue) config.workload = argv[++i];
      else if (arg == "--seed" && hasValue) config.seed = std::stoull(argv[++i]);
      else if (arg == "--seconds" && hasValue) config.seconds = std::stod(argv[++i]);
      else if (arg == "--trace" && hasValue) {
        config.trace = std::string(argv[++i]) == "1";
        haveTrace = true;
      } else if (arg == "--trace-file" && hasValue) config.traceFile = argv[++i];
      else return usage(argv[0]);
    } catch (const std::exception&) {
      return usage(argv[0]);
    }
  }
  if (config.workload.empty() || !haveTrace || !(config.seconds > 0))
    return usage(argv[0]);
  config.threads = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  if (config.trace && config.traceFile.empty())
    config.traceFile = ".bench_out/trace-" + config.workload + "-seed" +
                       std::to_string(config.seed) + ".json";

  RunResult result;
  try {
    std::printf("perfbench %s seed %llu, %.0f s, trace %d, %zu threads\n",
                config.workload.c_str(),
                static_cast<unsigned long long>(config.seed), config.seconds,
                config.trace ? 1 : 0, config.threads);
    if (config.workload == "explore-cold") result = runExploreCold(config);
    else if (config.workload == "model-verify") result = runModelVerify(config);
    else if (config.workload == "serve-mix") result = runServeMix(config);
    else return usage(argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  std::map<std::string, double> values;
  const std::vector<MetricInfo>* reported = nullptr;
  if (config.trace) {
    reported = &perLayerMetrics();
    for (const MetricInfo& m : *reported) values[m.name] = 0.0;
    for (const auto& [name, value] : result.layers) values[name] = value;
    values["fail_ratio"] = result.ops.failRatio();
    const auto spans = recordedSpans();
    if (!config.traceFile.empty()) {
      const auto parent = std::filesystem::path(config.traceFile).parent_path();
      std::error_code ignored;
      if (!parent.empty()) std::filesystem::create_directories(parent, ignored);
      if (writeChromeTrace(config.traceFile, spans))
        std::printf("  wrote %zu spans to %s\n", spans.size(),
                    config.traceFile.c_str());
      else
        std::printf("  could not write %s\n", config.traceFile.c_str());
    }
  } else {
    reported = &endToEndMetrics();
    values = endToEndValues(result);
  }

  for (const std::string& note : result.notes) std::printf("  %s\n", note.c_str());
  std::printf("  fail_ratio %s ratio (%llu of %llu ops failed)\n",
              number(result.ops.failRatio()).c_str(),
              static_cast<unsigned long long>(result.ops.failed),
              static_cast<unsigned long long>(result.ops.attempted));
  for (const MetricInfo& m : *reported)
    std::printf("  %-28s %16.6g %s\n", m.name, values[m.name], m.unit);

  const bool correct = result.ops.failed == 0 && result.ops.attempted > 0;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.ops.attempted) +
                     ", \"failed\": " + std::to_string(result.ops.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const MetricInfo& m : *reported) {
    json += (first ? "\"" : ", \"") + std::string(m.name) + "\": {\"value\": " +
            number(values[m.name]) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// Scenario sweep: design-space size and best achievable utilization for
// every workload registered in tensor/workloads.hpp allWorkloads() — the
// same table the property sweep, the conformance oracle and
// tools/conformance_runner iterate. One row per scenario:
//
//   name  selections  specs  best-label  best-util  cycles  enum+sim ms
//
// A quick pulse on how each newly added scenario stresses the enumerator
// and the performance model; not gated (see bench_hotpaths for the
// gated hot-path harness).
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "sim/perf.hpp"
#include "tensor/workloads.hpp"

int main() {
  using namespace tensorlib;
  namespace wl = tensor::workloads;

  bench::printHeader("Scenario sweep: allWorkloads() design spaces, 16x16 PEs");
  std::printf("  %-20s %5s %6s  %-12s %9s %10s %8s\n", "scenario", "sels",
              "specs", "best", "util", "cycles", "ms");

  const stt::ArrayConfig array;  // paper configuration
  for (const auto& w : wl::allWorkloads()) {
    const auto start = std::chrono::steady_clock::now();
    stt::EnumerationOptions options;
    options.dropAllUnicast = !w.allowAllUnicast;

    std::size_t selections = 0, specCount = 0;
    std::string bestLabel = "-";
    sim::PerfResult best{};
    for (const auto& sel : stt::allLoopSelections(w.algebra)) {
      ++selections;
      for (const auto& spec : stt::enumerateTransforms(w.algebra, sel, options)) {
        ++specCount;
        const sim::PerfResult perf = sim::estimatePerformance(spec, array);
        if (perf.utilization > best.utilization) {
          best = perf;
          bestLabel = spec.label();
        }
      }
    }
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    std::printf("  %-20s %5zu %6zu  %-12s %8.1f%% %10lld %8.1f\n",
                w.name.c_str(), selections, specCount, bestLabel.c_str(),
                100.0 * best.utilization,
                static_cast<long long>(best.totalCycles), ms);
  }
  return 0;
}

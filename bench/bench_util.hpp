// Shared helpers for the figure/table reproduction binaries.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "sim/perf.hpp"
#include "stt/enumerate.hpp"

namespace tensorlib::bench {

/// One bar of a Fig. 5 subplot: a named dataflow and its normalized
/// performance (achieved MACs / peak MACs at full array utilization —
/// exactly the paper's metric).
struct PerfRow {
  std::string label;
  sim::PerfResult perf;
};

inline void printHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Evaluates one dataflow label on a workload; prints and returns the row.
inline PerfRow evalDataflow(const tensor::TensorAlgebra& algebra,
                            const std::string& label,
                            const stt::ArrayConfig& config) {
  auto spec = stt::findDataflowByLabel(algebra, label);
  if (!spec.has_value()) {
    std::printf("  %-12s  (not realizable for %s)\n", label.c_str(),
                algebra.name().c_str());
    return {label, {}};
  }
  const auto perf = sim::estimatePerformance(*spec, config);
  std::printf("  %-12s  normalized perf %5.1f%%   cycles %-12lld %s\n",
              label.c_str(), 100.0 * perf.utilization,
              static_cast<long long>(perf.totalCycles),
              perf.bandwidthBound ? "[bandwidth-bound]" : "");
  return {label, perf};
}

inline void evalAll(const tensor::TensorAlgebra& algebra,
                    const std::vector<std::string>& labels,
                    const stt::ArrayConfig& config,
                    std::vector<PerfRow>* rows = nullptr) {
  for (const auto& l : labels) {
    PerfRow r = evalDataflow(algebra, l, config);
    if (rows) rows->push_back(std::move(r));
  }
}

/// The paper's evaluation array: 16x16 PEs, 320 MHz, 32 GB/s, INT16.
inline stt::ArrayConfig paperArray() { return stt::ArrayConfig{}; }

}  // namespace tensorlib::bench

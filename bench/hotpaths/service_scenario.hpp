// The shared 10-query overlapping exploration scenario behind the "service"
// (batched-vs-naive) and "daemon" (restored-vs-cold) sections of
// BENCH_hotpaths.json — one definition so the gates can never drift onto
// different traffic. Also the result comparator both sections use to assert
// bit-identical frontiers.
#pragma once

#include <string>
#include <vector>

#include "driver/explore_service.hpp"
#include "support/error.hpp"
#include "tensor/workloads.hpp"

namespace tensorlib::bench {

/// Paper-geometry GEMM under three ASIC and two FPGA objectives, an
/// attention kernel under three, plus two exact duplicates (the realistic
/// heavy-traffic case).
inline std::vector<driver::ExploreQuery> serviceScenarioBatch(int maxEntry) {
  const auto gemm = tensor::workloads::gemm(256, 256, 256);
  const auto attn = tensor::workloads::attention(64, 64, 64);
  auto query = [&](const tensor::TensorAlgebra& algebra,
                   driver::Objective objective, cost::BackendKind backend) {
    driver::ExploreQuery q(algebra);
    q.objective = objective;
    q.backend = backend;
    q.enumeration.maxEntry = maxEntry;
    return q;
  };
  using O = driver::Objective;
  using B = cost::BackendKind;
  return {
      query(gemm, O::Performance, B::Asic),
      query(gemm, O::Power, B::Asic),
      query(gemm, O::EnergyDelay, B::Asic),
      query(gemm, O::Performance, B::Fpga),
      query(gemm, O::EnergyDelay, B::Fpga),
      query(attn, O::Performance, B::Asic),
      query(attn, O::Power, B::Asic),
      query(attn, O::EnergyDelay, B::Asic),
      query(gemm, O::Performance, B::Asic),  // duplicate traffic
      query(attn, O::Performance, B::Asic),  // duplicate traffic
  };
}

/// Throws unless the two runs produced bit-identical frontiers and winners.
inline void checkSameResults(const std::vector<driver::QueryResult>& a,
                             const std::vector<driver::QueryResult>& b) {
  TL_CHECK(a.size() == b.size(), "result count mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) {
    TL_CHECK(a[i].designs == b[i].designs, "designs mismatch");
    TL_CHECK(a[i].frontier.size() == b[i].frontier.size(),
             "frontier size mismatch at query " + std::to_string(i));
    for (std::size_t j = 0; j < a[i].frontier.size(); ++j) {
      const auto& ra = a[i].frontier[j];
      const auto& rb = b[i].frontier[j];
      const auto fa = ra.figures(), fb = rb.figures();
      TL_CHECK(ra.spec.label() == rb.spec.label() &&
                   ra.spec.transform().str() == rb.spec.transform().str() &&
                   ra.perf.totalCycles == rb.perf.totalCycles &&
                   fa.powerMw == fb.powerMw && fa.area == fb.area,
               "frontier divergence at query " + std::to_string(i));
    }
    TL_CHECK(a[i].best.has_value() == b[i].best.has_value(), "best mismatch");
    if (a[i].best)
      TL_CHECK(a[i].best->spec.label() == b[i].best->spec.label(),
               "best label mismatch at query " + std::to_string(i));
  }
}

}  // namespace tensorlib::bench

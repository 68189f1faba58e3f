// Pruning soundness: the lower-bound dominance cut in the exploration
// service must be invisible in every output, and must actually cut. Three
// layers of evidence:
//
//   * Differential: pruned vs exhaustive frontiers (and winners) are
//     bit-identical across the full workload table x {ASIC, FPGA} backends
//     x {1, 8} worker threads.
//   * Effect: at maxEntry 1 the cut removes candidates on the
//     paper-geometry GEMM-256 query (both backends) and on the 10-query
//     overlapping GEMM-256/attention-64 scenario.
//   * Unit: cost::boundFigures never exceeds the true evaluated figures in
//     any axis (cycles, power, area) — checked on fuzz-seeded random
//     algebras and on the registered workloads, both backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cost/backend.hpp"
#include "driver/explore_service.hpp"
#include "service_reference.hpp"
#include "sim/perf.hpp"
#include "stt/enumerate.hpp"
#include "tensor/workloads.hpp"
#include "verify/fuzz.hpp"

namespace tensorlib::driver {
namespace {

namespace wl = tensor::workloads;

ServiceOptions pruningOptions(std::size_t threads) {
  ServiceOptions o;
  o.threads = threads;
  o.workUnitSpecs = 32;  // several units per query even on small spaces
  return o;
}

ServiceOptions exhaustiveOptions(std::size_t threads) {
  ServiceOptions o = pruningOptions(threads);
  o.enablePruning = false;
  return o;
}

ExploreQuery workloadQuery(const wl::NamedWorkload& w, cost::BackendKind backend) {
  ExploreQuery q(w.algebra);
  q.array.rows = q.array.cols = 4;
  q.backend = backend;
  q.enumeration.dropAllUnicast = !w.allowAllUnicast;
  return q;
}

// --- the differential satellite ---------------------------------------------

TEST(PruningDifferential, FrontiersBitIdenticalToExhaustiveAcrossTable) {
  for (const auto& w : wl::allWorkloads()) {
    for (const auto backend : {cost::BackendKind::Asic, cost::BackendKind::Fpga}) {
      const ExploreQuery q = workloadQuery(w, backend);

      ExplorationService exhaustive(exhaustiveOptions(1));
      const QueryResult reference = exhaustive.run(q);
      EXPECT_EQ(reference.cache.pruned, 0u) << w.name;

      for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        ExplorationService pruned(pruningOptions(threads));
        const QueryResult result = pruned.run(q);
        SCOPED_TRACE(w.name + " backend=" + cost::backendKindName(backend) +
                     " threads=" + std::to_string(threads));
        expectSameResult(reference, result);
        expectExactAccounting(result);
        EXPECT_EQ(result.cache.skipped, 0u);
      }
    }
  }
}

TEST(PruningDifferential, WarmRunsStayBitIdentical) {
  // A warm cache turns would-be pruned candidates into hits; output must
  // not care.
  ExploreQuery q(wl::gemm(8, 8, 8));
  q.array.rows = q.array.cols = 4;

  ServiceOptions opts = pruningOptions(1);
  ExplorationService service(opts);
  const auto cold = service.run(q);

  ExplorationService exhaustive(exhaustiveOptions(1));
  const auto reference = exhaustive.run(q);
  // Prime the pruned service's cache with every evaluation, then rerun.
  primeCache(service, q, "pruning_prime.snap");
  const auto warm = service.run(q);

  expectSameResult(reference, cold);
  expectSameResult(reference, warm);
  EXPECT_EQ(warm.cache.pruned, 0u);  // everything cached: peek wins first
}

// --- the cut actually fires -------------------------------------------------

/// The 10-query overlapping scenario: paper-geometry GEMM under three ASIC
/// and two FPGA objectives, an attention kernel under three, plus two exact
/// duplicates, at maxEntry 1.
std::vector<ExploreQuery> overlappingScenario() {
  const auto gemm = wl::gemm(256, 256, 256);
  const auto attn = wl::attention(64, 64, 64);
  const auto query = [](const tensor::TensorAlgebra& algebra,
                        Objective objective, cost::BackendKind backend) {
    ExploreQuery q(algebra);
    q.objective = objective;
    q.backend = backend;
    return q;
  };
  using O = Objective;
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

TEST(PruningFires, SingleGemm256QueryBothBackends) {
  for (const auto backend : {cost::BackendKind::Asic, cost::BackendKind::Fpga}) {
    ExploreQuery q(wl::gemm(256, 256, 256));
    q.backend = backend;
    ExplorationService exhaustive(exhaustiveOptions(1));
    ExplorationService pruned(pruningOptions(1));
    const QueryResult result = pruned.run(q);
    SCOPED_TRACE(cost::backendKindName(backend));
    expectSameResult(exhaustive.run(q), result);
    expectExactAccounting(result);
    EXPECT_GT(result.cache.pruned, 0u);
  }
}

TEST(PruningFires, OverlappingTenQueryScenario) {
  const auto batch = overlappingScenario();
  ExplorationService exhaustive(exhaustiveOptions(1));
  ExplorationService pruned(pruningOptions(1));
  const auto expected = exhaustive.runBatch(batch);
  const auto actual = pruned.runBatch(batch);
  ASSERT_EQ(actual.size(), expected.size());
  std::uint64_t cut = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    expectSameResult(expected[i], actual[i]);
    expectExactAccounting(actual[i]);
    cut += actual[i].cache.pruned;
  }
  EXPECT_GT(cut, 0u);
}

// --- bound soundness --------------------------------------------------------

/// Asserts bound <= true on every enumerated spec of the algebra (capped),
/// both backends. Returns the number of specs checked.
std::size_t checkBounds(const tensor::TensorAlgebra& algebra,
                        const stt::ArrayConfig& array, std::size_t cap,
                        bool dropAllUnicast = true) {
  stt::EnumerationOptions enumeration;
  enumeration.dropAllUnicast = dropAllUnicast;
  std::vector<stt::DataflowSpec> specs;
  for (const auto& sel : stt::allLoopSelections(algebra)) {
    if (specs.size() >= cap) break;
    for (auto& spec : stt::enumerateTransforms(algebra, sel, enumeration)) {
      specs.push_back(std::move(spec));
      if (specs.size() >= cap) break;
    }
  }
  const auto backends = {cost::makeAsicBackend(16), cost::makeFpgaBackend()};
  for (const auto& backend : backends) {
    for (const auto& spec : specs) {
      const cost::CostBound bound = cost::boundFigures(spec, array, *backend);
      const sim::PerfResult perf = backend->estimatePerf(spec, array);
      const cost::CostReport cost = backend->evaluate(spec, array);
      SCOPED_TRACE(algebra.name() + " " + spec.label() + " T=" +
                   spec.transform().str() + " backend=" + backend->name());
      EXPECT_LE(bound.cycles, static_cast<double>(perf.totalCycles));
      EXPECT_LE(bound.figures.powerMw, cost.figures.powerMw);
      EXPECT_LE(bound.figures.area, cost.figures.area);
      // The inventory-derived figures are not just bounded — they are the
      // exact evaluation (the cost models are mapping-free).
      EXPECT_EQ(bound.figures.powerMw, cost.figures.powerMw);
      EXPECT_EQ(bound.figures.area, cost.figures.area);
    }
  }
  return specs.size();
}

TEST(PruningBound, NeverExceedsTrueFiguresOnFuzzedAlgebras) {
  // 200 fuzz-seeded random algebras (strided/offset accesses, 3-4 loops,
  // 1-3 inputs); a handful of specs each keeps the test fast while covering
  // far more access shapes than the workload table.
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const auto algebra = verify::randomAlgebra(seed);
    stt::ArrayConfig array;
    array.rows = array.cols = 4;
    checked += checkBounds(algebra, array, 6, /*dropAllUnicast=*/false);
  }
  EXPECT_GE(checked, 200u);
}

TEST(PruningBound, NeverExceedsTrueFiguresOnWorkloadTable) {
  for (const auto& w : wl::allWorkloads()) {
    stt::ArrayConfig array;
    array.rows = array.cols = 4;
    checkBounds(w.algebra, array, 24, !w.allowAllUnicast);
  }
}

TEST(PruningBound, TightForPerfectUtilizationGemm) {
  // The compute term is exact for utilization-1.0 designs: the paper-
  // geometry GEMM's best design meets its bound, which is what lets the
  // frontier prune against it.
  const auto gemm = wl::gemm(64, 64, 64);
  ExploreQuery q(gemm);
  ExplorationService service(pruningOptions(1));
  const auto result = service.run(q);
  ASSERT_FALSE(result.frontier.empty());
  const auto& best = result.frontier.front();  // sorted: min cycles first
  const auto backend = cost::makeAsicBackend(q.dataWidth);
  const cost::CostBound bound = cost::boundFigures(best.spec, q.array, *backend);
  EXPECT_EQ(static_cast<double>(best.perf.totalCycles), bound.cycles);
}

}  // namespace
}  // namespace tensorlib::driver

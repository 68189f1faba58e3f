// Regression tests pinning the PR 1 edge-case fixes:
//  - SimResult::utilization must stay finite when the cycle count degenerates
//    (the seed code divided into NaN).
//  - TileTraceCache must stay exact across differing tile origins and
//    boundary (truncated) tile shapes.
//  - The process-wide enumeration memo must be invalidated by every
//    EnumerationOptions field it is keyed on — a stale hit across options
//    would silently change the enumerated design space.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/dfsim.hpp"
#include "sim/trace.hpp"
#include "stt/enumerate.hpp"
#include "tensor/workloads.hpp"

namespace tensorlib {
namespace {

namespace wl = tensor::workloads;

// --- utilization with degenerate cycle counts ------------------------------

TEST(UtilizationRegression, ServeCyclesOnEmptyProfileIsZero) {
  EXPECT_EQ(sim::serveCycles({}, 8.0), 0);
}

TEST(UtilizationRegression, SingletonWorkloadStaysFinite) {
  // gemm(1,1,1): one MAC, the smallest schedulable domain. The seed code's
  // utilization could divide by zero cycles on degenerate results.
  const auto g = wl::gemm(1, 1, 1);
  const auto spec = stt::findDataflowByLabel(g, "MNK-SST");
  ASSERT_TRUE(spec.has_value());
  const auto env = tensor::makeRandomInputs(g, 3);
  const sim::SimResult r = sim::simulate(*spec, stt::ArrayConfig{}, &env);
  EXPECT_TRUE(std::isfinite(r.utilization));
  EXPECT_GE(r.utilization, 0.0);
  EXPECT_EQ(r.macs, 1);
  const auto golden = tensor::referenceExecute(g, env);
  EXPECT_EQ(r.output.maxAbsDiff(golden), 0.0);
}

// --- trace cache across differing tile origins / boundary shapes -----------

TEST(TraceCacheRegression, BoundaryTilesWithMixedShapesAndOrigins) {
  // extent 5 on a 3x3 array: interior 3-tiles and truncated 2-tiles mix, so
  // materialize() must shift element indices correctly for every
  // (shape, origin) combination, not just the uniform interior case.
  const auto g = wl::gemm(5, 5, 5);
  const auto spec = stt::findDataflowByLabel(g, "MNK-SST");
  ASSERT_TRUE(spec.has_value());
  sim::TileTraceCache cache(*spec);
  const std::size_t loops = g.loopCount();
  for (const linalg::IntVector shape :
       {linalg::IntVector{3, 3, 3}, linalg::IntVector{2, 3, 3},
        linalg::IntVector{3, 2, 2}, linalg::IntVector{2, 2, 2}}) {
    for (const linalg::IntVector origin :
         {linalg::IntVector{0, 0, 0}, linalg::IntVector{3, 0, 0},
          linalg::IntVector{0, 3, 3}, linalg::IntVector{3, 3, 0}}) {
      const linalg::IntVector outer(loops, 0);
      const auto materialized = cache.materialize(shape, origin, outer);
      const auto rebuilt = sim::buildTileTrace(*spec, shape, origin, outer);
      ASSERT_EQ(materialized.injections.size(), rebuilt.injections.size());
      for (std::size_t i = 0; i < rebuilt.injections.size(); ++i) {
        EXPECT_EQ(materialized.injections[i].element,
                  rebuilt.injections[i].element);
        EXPECT_EQ(materialized.injections[i].cycle, rebuilt.injections[i].cycle);
      }
      ASSERT_EQ(materialized.outputs.size(), rebuilt.outputs.size());
      for (std::size_t i = 0; i < rebuilt.outputs.size(); ++i)
        EXPECT_EQ(materialized.outputs[i].element, rebuilt.outputs[i].element);
    }
  }
}

TEST(TraceCacheRegression, SimulateAgreesAcrossTracePathsOnBoundaryTiles) {
  const auto g = wl::gemm(5, 5, 5);
  const stt::ArrayConfig config{3, 3, 320.0, 32.0, 2};
  const auto env = tensor::makeRandomInputs(g, 11);
  const auto golden = tensor::referenceExecute(g, env);
  for (const char* label : {"MNK-SST", "MNK-MTM"}) {
    const auto spec = stt::findDataflowByLabel(g, label);
    ASSERT_TRUE(spec.has_value()) << label;
    sim::SimOptions memo;
    sim::SimOptions rebuild;
    rebuild.reuseTraces = false;
    const auto a = sim::simulate(*spec, config, &env, memo);
    const auto b = sim::simulate(*spec, config, &env, rebuild);
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.tensorTrafficWords, b.tensorTrafficWords) << label;
    EXPECT_EQ(a.output.maxAbsDiff(golden), 0.0) << label;
    EXPECT_EQ(b.output.maxAbsDiff(golden), 0.0) << label;
  }
}

// --- enumeration memo invalidation across option changes -------------------

std::string fingerprint(const std::vector<stt::DataflowSpec>& specs) {
  std::string out;
  for (const auto& s : specs) {
    out += s.label();
    const auto& m = s.transform().matrix();
    for (std::size_t i = 0; i < 3; ++i)
      for (std::size_t j = 0; j < 3; ++j)
        out += std::to_string(m.at(i, j)) + ',';
    out += ';';
  }
  return out;
}

TEST(EnumerationMemoRegression, ChangingOptionsDoesNotServeStaleCandidates) {
  const auto g = wl::gemm(4, 4, 4);
  const stt::LoopSelection sel(g, {0, 1, 2});

  stt::EnumerationOptions e1;  // maxEntry=1, cached
  stt::EnumerationOptions e2 = e1;
  e2.maxEntry = 2;
  const auto first = stt::enumerateTransforms(g, sel, e1);   // warm e1 cache
  const auto wider = stt::enumerateTransforms(g, sel, e2);   // different key
  const auto again = stt::enumerateTransforms(g, sel, e1);   // e1 cache hit

  EXPECT_EQ(fingerprint(first), fingerprint(again));
  EXPECT_GT(wider.size(), first.size())
      << "maxEntry=2 must enumerate a strictly larger space";
  EXPECT_NE(fingerprint(wider), fingerprint(first));

  stt::EnumerationOptions nonUni = e1;
  nonUni.requireUnimodular = false;
  const auto nonUnimodular = stt::enumerateTransforms(g, sel, nonUni);
  EXPECT_GE(nonUnimodular.size(), first.size());
  // And e1 results remain byte-stable after every other key was exercised.
  EXPECT_EQ(fingerprint(stt::enumerateTransforms(g, sel, e1)),
            fingerprint(first));
}

TEST(EnumerationMemoRegression, ClearedMemoMatchesWarmMemo) {
  const auto g = wl::gemm(4, 4, 4);
  const stt::LoopSelection sel(g, {0, 1, 2});
  const auto warm = stt::enumerateTransforms(g, sel);
  stt::clearCandidateCache();
  EXPECT_EQ(fingerprint(stt::enumerateTransforms(g, sel)), fingerprint(warm));
}

}  // namespace
}  // namespace tensorlib

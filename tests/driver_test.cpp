// Tests for the high-level driver (Session): label compilation, objective-
// driven exploration, artifact emission and verification plumbing.
#include "driver/session.hpp"

#include <gtest/gtest.h>

#include "service_reference.hpp"
#include "support/error.hpp"
#include "tensor/workloads.hpp"

namespace tensorlib::driver {
namespace {

namespace wl = tensor::workloads;

Session gemmSession(std::int64_t size, std::int64_t pes) {
  stt::ArrayConfig array;
  array.rows = array.cols = pes;
  return Session(wl::gemm(size, size, size), array);
}

Session depthwiseSession() {
  stt::ArrayConfig array;
  array.rows = array.cols = 8;
  return Session(wl::depthwiseConv(16, 14, 14, 3, 3), array);
}

TEST(Session, CompileLabelRealizable) {
  const auto s = gemmSession(32, 8);
  const auto report = s.compileLabel("MNK-SST");
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->spec.label(), "MNK-SST");
  EXPECT_GT(report->perf.utilization, 0.0);
  EXPECT_GT(report->asic.powerMw, 0.0);
  EXPECT_NE(report->summary().find("MNK-SST"), std::string::npos);
}

TEST(Session, CompileLabelUnrealizable) {
  const auto s = gemmSession(16, 4);
  EXPECT_FALSE(s.compileLabel("MNK-TTT").has_value());
}

TEST(Session, ExploreAllNonEmptyAndEvaluated) {
  const auto s = gemmSession(32, 8);
  const auto all = s.exploreAll();
  EXPECT_GT(all.size(), 50u);
  for (const auto& r : all) {
    EXPECT_GT(r.perf.totalCycles, 0) << r.spec.label();
    EXPECT_GT(r.asic.areaMm2, 0.0) << r.spec.label();
  }
}

TEST(Session, BestPerformanceIsMaxUtilization) {
  const auto s = gemmSession(64, 8);
  const auto best = s.compileBest(Objective::Performance);
  for (const auto& r : s.exploreAll())
    EXPECT_LE(r.perf.utilization, best.perf.utilization + 1e-12);
}

TEST(Session, BestPowerStaysNearBestPerformance) {
  const auto s = gemmSession(64, 8);
  const auto perf = s.compileBest(Objective::Performance);
  const auto lowPower = s.compileBest(Objective::Power);
  EXPECT_GE(lowPower.perf.utilization, 0.9 * perf.perf.utilization - 1e-12);
  EXPECT_LE(lowPower.asic.powerMw, perf.asic.powerMw + 1e-12);
}

TEST(Session, BestEnergyDelayMinimizesProduct) {
  const auto s = gemmSession(64, 8);
  const auto best = s.compileBest(Objective::EnergyDelay);
  for (const auto& r : s.exploreAll())
    EXPECT_GE(r.energyDelay(), best.energyDelay() - 1e-9);
}

TEST(Session, VerifyBehavioralPasses) {
  const auto s = gemmSession(16, 4);
  const auto report = s.compileLabel("MNK-MMT");
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(s.verifyBehavioral(*report));
}

TEST(Session, VerifyRtlPasses) {
  const auto s = gemmSession(8, 4);
  const auto report = s.compileLabel("MNK-SST");
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(s.verifyRtl(*report));
}

TEST(Session, EmitVerilogProducesModule) {
  const auto s = gemmSession(8, 4);
  const auto report = s.compileLabel("MNK-STS");
  ASSERT_TRUE(report.has_value());
  const auto v = s.emitVerilog(*report);
  EXPECT_NE(v.find("module tensorlib_MNK_STS"), std::string::npos);
}

TEST(Session, DepthwiseExplorationFindsChannelParallelDesigns) {
  // The generality claim: the best depthwise designs are NOT pure
  // systolic/stationary, which is why systolic-only generators lose there.
  const Session s = depthwiseSession();
  const auto best = s.compileBest(Objective::Performance);
  bool pureSystolic = true;
  for (const auto& role : best.spec.tensors()) {
    const auto c = role.dataflow.dataflowClass;
    if (c != stt::DataflowClass::Systolic && c != stt::DataflowClass::Stationary)
      pureSystolic = false;
  }
  EXPECT_FALSE(pureSystolic) << best.spec.describe();
}

TEST(Session, CompileBestIsTheReferenceWinner) {
  // compileBest explores through the shared service's packed run(); its
  // winner must be the one folded from the scalar exhaustive reference,
  // and its design count that of the whole space.
  for (const Session& s : {gemmSession(64, 8), depthwiseSession()}) {
    for (const Objective objective :
         {Objective::Performance, Objective::Power, Objective::EnergyDelay}) {
      SCOPED_TRACE(s.algebra().name() + " " + objectiveName(objective));
      ExploreQuery q(s.algebra());
      q.array = s.array();
      q.objective = objective;
      const QueryResult expected = referenceResult(q);
      std::size_t designs = 0;
      const DesignReport best = s.compileBest(objective, &designs);
      ASSERT_TRUE(expected.best.has_value());
      expectSameReport(best, *expected.best);
      EXPECT_EQ(designs, expected.designs);
    }
  }
}

}  // namespace
}  // namespace tensorlib::driver

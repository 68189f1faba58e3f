// Cross-cutting property sweeps over the enumerated design spaces of every
// registered workload scenario (tensor/workloads.hpp allWorkloads()), run
// under BOTH enumeration engines (the direct-canonical engine and the
// decode-all-and-filter oracle in legacy_enumeration.hpp) — the invariants
// that make the generator trustworthy.
//
//  P1  mapping conserves work: sum of tile MACs x outer iterations equals
//      the algebra's total MAC count, and tile footprints fit the array.
//  P2  trace consistency: active points = tile volume, one MAC per
//      (PE, cycle), demand profile conserves words.
//  P3  letters round-trip: findDataflow(letters) realizes the same letters.
//  P4  behavioral functional correctness on a small instance.
//  P5  RTL functional correctness for netlist-generable designs.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "arch/testbench.hpp"
#include "legacy_enumeration.hpp"
#include "sim/dfsim.hpp"
#include "stt/enumerate.hpp"
#include "support/error.hpp"
#include "tensor/workloads.hpp"

namespace tensorlib {
namespace {

namespace wl = tensor::workloads;

/// Param: (index into allWorkloads(), use the legacy enumeration oracle).
class WorkloadSweepTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {
 protected:
  WorkloadSweepTest()
      : workload_(
            wl::allWorkloads()[static_cast<std::size_t>(std::get<0>(GetParam()))]),
        legacy_(std::get<1>(GetParam())) {
    options_.dropAllUnicast = !workload_.allowAllUnicast;
  }

  std::vector<stt::DataflowSpec> specsFor(const stt::LoopSelection& sel) const {
    return legacy_ ? oracle::legacyEnumerateTransforms(workload_.algebra, sel,
                                                       options_)
                   : stt::enumerateTransforms(workload_.algebra, sel, options_);
  }

  std::optional<stt::DataflowSpec> findFor(const stt::LoopSelection& sel,
                                           const std::string& letters) const {
    return legacy_ ? oracle::legacyFindDataflow(workload_.algebra, sel,
                                                letters, options_)
                   : stt::findDataflow(workload_.algebra, sel, letters,
                                       options_);
  }

  const wl::NamedWorkload workload_;
  const bool legacy_;
  stt::EnumerationOptions options_;
};

TEST_P(WorkloadSweepTest, MappingConservesWorkAndFits) {
  stt::ArrayConfig cfg;
  cfg.rows = cfg.cols = 4;
  for (const auto& sel : stt::allLoopSelections(workload_.algebra)) {
    const auto specs = specsFor(sel);
    for (std::size_t i = 0; i < std::min(workload_.sweepCap, specs.size());
         ++i) {
      const auto mapping = stt::computeMapping(specs[i], cfg);
      EXPECT_EQ(mapping.totalMacs(), workload_.algebra.totalMacs())
          << workload_.name << " " << specs[i].describe();
      EXPECT_LE(mapping.spatialRowsUsed, cfg.rows) << specs[i].describe();
      EXPECT_LE(mapping.spatialColsUsed, cfg.cols) << specs[i].describe();
      EXPECT_GE(mapping.replication, 1) << specs[i].describe();
    }
  }
}

TEST_P(WorkloadSweepTest, TraceInvariantsHold) {
  stt::ArrayConfig cfg;
  cfg.rows = cfg.cols = 4;
  for (const auto& sel : stt::allLoopSelections(workload_.algebra)) {
    const auto specs = specsFor(sel);
    for (std::size_t i = 0; i < std::min<std::size_t>(8, specs.size()); ++i) {
      const auto mapping = stt::computeMapping(specs[i], cfg);
      const auto trace = sim::buildTileTrace(specs[i], mapping.fullTile);
      // P2a: volume
      EXPECT_EQ(static_cast<std::int64_t>(trace.active.size()),
                mapping.fullTile[0] * mapping.fullTile[1] * mapping.fullTile[2])
          << specs[i].describe();
      // P2b: injectivity
      std::set<std::tuple<std::int64_t, std::int64_t, std::int64_t>> seen;
      for (const auto& ap : trace.active)
        EXPECT_TRUE(seen.insert({ap.p1, ap.p2, ap.t}).second)
            << specs[i].describe();
      // P2c: demand conservation
      std::int64_t demand = 0;
      for (auto d : trace.demandPerCycle) demand += d;
      EXPECT_EQ(demand, trace.totalWords()) << specs[i].describe();
      // P2d: every cycle within span
      for (const auto& inj : trace.injections) {
        EXPECT_GE(inj.cycle, 0) << specs[i].describe();
        EXPECT_LT(inj.cycle, trace.cycles) << specs[i].describe();
      }
    }
  }
}

TEST_P(WorkloadSweepTest, LettersRoundTrip) {
  const auto sels = stt::allLoopSelections(workload_.algebra);
  const auto specs = specsFor(sels.front());
  std::set<std::string> letterSets;
  for (const auto& s : specs) letterSets.insert(s.letters());
  for (const auto& letters : letterSets) {
    const auto found = findFor(sels.front(), letters);
    ASSERT_TRUE(found.has_value()) << workload_.name << " " << letters;
    EXPECT_EQ(found->letters(), letters);
  }
}

TEST_P(WorkloadSweepTest, BehavioralFunctionalCorrectness) {
  stt::ArrayConfig cfg;
  cfg.rows = cfg.cols = 4;
  const auto env = tensor::makeRandomInputs(workload_.algebra, 97);
  const auto golden = tensor::referenceExecute(workload_.algebra, env);
  const auto sels = stt::allLoopSelections(workload_.algebra);
  // Sweep the first selection fully and one spec from each other selection.
  std::vector<stt::DataflowSpec> specs = specsFor(sels.front());
  if (specs.size() > workload_.sweepCap)
    specs.erase(specs.begin() + static_cast<std::ptrdiff_t>(workload_.sweepCap),
                specs.end());
  for (std::size_t s = 1; s < sels.size(); ++s) {
    auto extra = specsFor(sels[s]);
    if (!extra.empty()) specs.push_back(std::move(extra.front()));
  }
  for (const auto& spec : specs) {
    const auto result = sim::simulate(spec, cfg, &env);
    EXPECT_EQ(result.output.maxAbsDiff(golden), 0.0)
        << workload_.name << " " << spec.describe();
  }
}

TEST_P(WorkloadSweepTest, RtlFunctionalCorrectnessWhereGenerable) {
  stt::ArrayConfig cfg;
  cfg.rows = cfg.cols = 4;
  const auto env = tensor::makeRandomInputs(workload_.algebra, 101);
  const auto sels = stt::allLoopSelections(workload_.algebra);
  std::size_t generated = 0;
  for (const auto& sel : sels) {
    const auto specs = specsFor(sel);
    for (std::size_t i = 0; i < std::min<std::size_t>(6, specs.size()); ++i) {
      if (specs[i].outputRole().dataflow.reuseRank > 1) continue;
      std::optional<arch::GeneratedAccelerator> acc;
      try {
        acc.emplace(arch::generateAccelerator(specs[i], cfg));
      } catch (const Error& e) {
        // Only the schedule-soundness gate is a legitimate skip; any other
        // generator throw is a regression this sweep must surface.
        const std::string what = e.what();
        if (what.find("unsound schedule") == std::string::npos &&
            what.find("bus conflict") == std::string::npos)
          ADD_FAILURE() << workload_.name << " " << specs[i].describe()
                        << "\nunexpected generator error: " << what;
        continue;
      }
      const auto run = arch::runAcceleratorTile(*acc, env);
      EXPECT_TRUE(run.matches())
          << workload_.name << " " << specs[i].describe();
      ++generated;
    }
  }
  EXPECT_GT(generated, 0u) << workload_.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadSweepTest,
    ::testing::Combine(
        ::testing::Range(0, static_cast<int>(wl::allWorkloads().size())),
        ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
      const auto table = wl::allWorkloads();
      std::string name =
          table[static_cast<std::size_t>(std::get<0>(info.param))].name;
      name += std::get<1>(info.param) ? "_legacy" : "_fast";
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

// The registered table must keep covering at least the ISSUE-2 scenario
// floor (the six Table-II algebras plus the extended shapes).
TEST(WorkloadTable, RegistersAtLeastTenScenarios) {
  const auto table = wl::allWorkloads();
  EXPECT_GE(table.size(), 10u);
  std::set<std::string> names;
  for (const auto& w : table) {
    EXPECT_TRUE(names.insert(w.name).second) << "duplicate " << w.name;
    EXPECT_GE(w.algebra.loopCount(), 3u) << w.name;
    EXPECT_EQ(wl::findWorkload(w.name)->algebra.str(), w.algebra.str());
  }
  EXPECT_EQ(wl::findWorkload("no-such-workload"), nullptr);
}

// Traffic-signature property: per-tensor traffic reported by the simulator
// matches the dataflow class expectation on GEMM.
TEST(TrafficSignature, MatchesDataflowClasses) {
  const auto g = wl::gemm(8, 8, 8);
  stt::ArrayConfig cfg;
  cfg.rows = cfg.cols = 8;
  sim::SimOptions opts;
  opts.functional = false;

  // Systolic/multicast input: one word per element = 64 per input tensor.
  for (const char* label : {"MNK-SST", "MNK-MMT"}) {
    const auto spec = *stt::findDataflowByLabel(g, label);
    const auto r = sim::simulate(spec, cfg, nullptr, opts);
    EXPECT_EQ(r.tensorTrafficWords[0], 64) << label;
    EXPECT_EQ(r.tensorTrafficWords[1], 64) << label;
    EXPECT_EQ(r.tensorTrafficWords[2], 64) << label;  // output writes
    EXPECT_GT(r.peakDemandWords, 0) << label;
  }

  // Unicast input: one word per MAC = 512.
  const auto bg = wl::batchedGemv(8, 8, 8);
  const auto uspec = *stt::findDataflowByLabel(bg, "MNK-UMM");
  const auto ur = sim::simulate(uspec, cfg, nullptr, opts);
  EXPECT_EQ(ur.tensorTrafficWords[0], 512);
}

}  // namespace
}  // namespace tensorlib

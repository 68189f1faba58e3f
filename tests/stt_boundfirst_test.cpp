// Bound-first branch-and-bound enumeration: admissibility of the
// partial-transform cost bounds, exact/value-set differentials against the
// classic enumerate-then-dedupe pipeline, and the service-level contract
// (designs accounting, the shared candidate memo and evaluation keys,
// deadlines).
//
//   * Partial-bound admissibility fuzz (200 random algebras): for every
//     sampled candidate, lowerBoundPartial <= lowerBound(completion) <=
//     true evaluated figures, per axis, on both backends. A violated
//     inequality would let the search cut a frontier resident.
//   * Exact differential: boundFirst with dedupeBySignature=false emits the
//     IDENTICAL spec stream (order, labels, matrices) as the classic
//     engine, at maxEntry 1 and 2.
//   * Value-set differential: with dedupe on, the class quotient keeps
//     different representatives than signature dedupe, but the frontier's
//     (label, cycles, power, area, utilization) value set is equal — at
//     maxEntry 2 on both backends and at maxEntry 3 (small extents) on the
//     ASIC backend, against the uncut classic run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "cost/backend.hpp"
#include "driver/explore_service.hpp"
#include "driver/snapshot.hpp"
#include "stt/block.hpp"
#include "stt/enumerate.hpp"
#include "tensor/workloads.hpp"
#include "verify/fuzz.hpp"

namespace tensorlib::driver {
namespace {

namespace wl = tensor::workloads;

using FrontierValue = std::tuple<std::string, double, double, double, double>;

/// The mode-independent content of a frontier: its unique value tuples.
/// Class-quotient and signature-dedupe keep different representatives (and
/// different tie multiplicities), but labels and evaluated figures are
/// class-determined, so the unique sets must match exactly.
std::set<FrontierValue> frontierValues(const QueryResult& r) {
  std::set<FrontierValue> values;
  for (const DesignReport& d : r.frontier) {
    const auto f = d.figures();
    values.insert({d.spec.label(), static_cast<double>(d.perf.totalCycles),
                   f.powerMw, f.area, d.perf.utilization});
  }
  return values;
}

ExploreQuery gemmQuery(std::int64_t extent, int maxEntry, bool boundFirst,
                       cost::BackendKind backend = cost::BackendKind::Asic) {
  ExploreQuery q(wl::gemm(extent, extent, extent));
  q.backend = backend;
  q.enumeration.maxEntry = maxEntry;
  q.enumeration.boundFirst = boundFirst;
  return q;
}

void expectAxisLE(const cost::CostBound& lo, const cost::CostBound& hi,
                  const char* what) {
  EXPECT_LE(lo.cycles, hi.cycles) << what;
  EXPECT_LE(lo.figures.powerMw, hi.figures.powerMw) << what;
  EXPECT_LE(lo.figures.area, hi.figures.area) << what;
}

TEST(BoundFirst, PartialBoundAdmissibilityFuzz) {
  const auto asic = cost::makeAsicBackend();
  const auto fpga = cost::makeFpgaBackend();
  const stt::ArrayConfig array;
  stt::EnumerationOptions eo;  // maxEntry=1; sampling covers completions
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const tensor::TensorAlgebra algebra = verify::randomAlgebra(seed);
    const auto mats = stt::candidateTransformMatrices(eo);
    const std::size_t stride = std::max<std::size_t>(1, mats->size() / 25);
    for (const stt::LoopSelection& sel : stt::allLoopSelections(algebra)) {
      const auto context = stt::makeSpecContext(algebra, sel);
      const stt::SelectionGeometry geometry =
          stt::makeSelectionGeometry(*context);
      for (std::size_t i = seed % stride; i < mats->size(); i += stride) {
        const linalg::IntMatrix& m = (*mats)[i];
        stt::PartialTransform partial;
        partial.geometry = &geometry;
        for (int j = 0; j < 3; ++j) {
          partial.absRow0[j] = std::llabs(m.at(0, j));
          partial.absRow1[j] = std::llabs(m.at(1, j));
        }
        const stt::DataflowSpec spec =
            stt::analyzeDataflow(context, stt::SpaceTimeTransform(m));
        for (const auto& backend : {asic, fpga}) {
          const cost::CostBound partialBound =
              backend->lowerBoundPartial(partial, array);
          const cost::CostBound fullBound = backend->lowerBound(spec, array);
          expectAxisLE(partialBound, fullBound, "partial > completion bound");
          if (checked % 7 == 0) {
            // Close the chain to the true figures on a subsample (the full
            // evaluation pays for a tile-mapping search).
            const auto perf = backend->estimatePerf(spec, array);
            const auto cost = backend->evaluate(spec, array);
            EXPECT_LE(fullBound.cycles,
                      static_cast<double>(perf.totalCycles));
            EXPECT_LE(fullBound.figures.powerMw, cost.figures.powerMw);
            EXPECT_LE(fullBound.figures.area, cost.figures.area);
          }
        }
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 1000u);
}

TEST(BoundFirst, NoDedupeStreamIsExactlyClassic) {
  for (int maxEntry = 1; maxEntry <= 2; ++maxEntry) {
    const tensor::TensorAlgebra g = wl::gemm(4, 4, 4);
    stt::EnumerationOptions classic;
    classic.maxEntry = maxEntry;
    classic.dedupeBySignature = false;
    stt::EnumerationOptions bound = classic;
    bound.boundFirst = true;
    const auto a = stt::enumerateDesignSpace(g, classic);
    const auto b = stt::enumerateDesignSpace(g, bound);
    ASSERT_EQ(a.size(), b.size()) << "maxEntry=" << maxEntry;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].label(), b[i].label()) << i;
      ASSERT_EQ(a[i].transform().str(), b[i].transform().str()) << i;
    }
  }
}

TEST(BoundFirst, ServiceValueSetMatchesClassicMaxEntry2) {
  for (const auto backend : {cost::BackendKind::Asic, cost::BackendKind::Fpga}) {
    ExplorationService classic{ServiceOptions{}};
    ExplorationService bound{ServiceOptions{}};
    const QueryResult ra = classic.run(gemmQuery(16, 2, false, backend));
    const QueryResult rb = bound.run(gemmQuery(16, 2, true, backend));
    EXPECT_FALSE(ra.timedOut);
    EXPECT_FALSE(rb.timedOut);
    EXPECT_EQ(frontierValues(ra), frontierValues(rb));
    ASSERT_TRUE(ra.best && rb.best);
    EXPECT_EQ(ra.best->perf.totalCycles, rb.best->perf.totalCycles);
    EXPECT_EQ(ra.best->figures().powerMw, rb.best->figures().powerMw);
    EXPECT_EQ(ra.best->figures().area, rb.best->figures().area);
    // The quotient visits every classic candidate (cut or classified), so
    // designs can only shrink through never-visited duplicates.
    EXPECT_GT(rb.designs, 0u);
  }
}

TEST(BoundFirst, ServiceValueSetMatchesClassicMaxEntry3SmallExtents) {
  // The maxEntry=3 differential on a small workload: bound-first (cuts +
  // class quotient) against the uncut classic sweep of the same space.
  ExplorationService classic{ServiceOptions{}};
  ExplorationService bound{ServiceOptions{}};
  const QueryResult ra = classic.run(gemmQuery(4, 3, false));
  const QueryResult rb = bound.run(gemmQuery(4, 3, true));
  EXPECT_FALSE(ra.timedOut);
  EXPECT_FALSE(rb.timedOut);
  EXPECT_EQ(frontierValues(ra), frontierValues(rb));
  ASSERT_TRUE(ra.best && rb.best);
  EXPECT_EQ(ra.best->perf.totalCycles, rb.best->perf.totalCycles);
  EXPECT_EQ(ra.best->figures().powerMw, rb.best->figures().powerMw);
  EXPECT_EQ(ra.best->figures().area, rb.best->figures().area);
}

TEST(BoundFirst, CandidateMemoKeyAndSnapshotFlagRoundTrip) {
  // The candidate generator never reads boundFirst, so both modes at one
  // maxEntry share one memo entry: one miss, then a hit.
  stt::clearCandidateCache();
  stt::EnumerationOptions bound;
  bound.boundFirst = true;
  const auto before = stt::candidateCacheStats();
  const auto a = stt::candidateTransformMatrices(bound);
  const auto b = stt::candidateTransformMatrices(stt::EnumerationOptions{});
  const auto after = stt::candidateCacheStats();
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_EQ(a.get(), b.get());
  ASSERT_EQ(stt::exportCandidateCache().size(), 1u);

  // The entry survives a snapshot save/restore byte-exactly.
  const std::string path = "boundfirst_snapshot_test.bin";
  const std::string fingerprint = snapshot::cacheSchemaFingerprint();
  ExplorationService service{ServiceOptions{}};
  ASSERT_TRUE(service.saveSnapshot(path, fingerprint));
  stt::clearCandidateCache();
  ExplorationService restored{ServiceOptions{}};
  const auto result = restored.restoreSnapshot(path, fingerprint);
  EXPECT_EQ(result.status, snapshot::RestoreStatus::Restored);
  EXPECT_EQ(result.candidateLists, 1u);
  const auto entries = stt::exportCandidateCache();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].maxEntry, 1);
  EXPECT_TRUE(entries[0].requireUnimodular);
  EXPECT_TRUE(entries[0].canonicalize);
  ASSERT_EQ(entries[0].matrices->size(), a->size());
  for (std::size_t i = 0; i < a->size(); ++i)
    ASSERT_EQ((*entries[0].matrices)[i].str(), (*a)[i].str()) << i;
  std::remove(path.c_str());
}

TEST(BoundFirst, SchemaFingerprintSeparatesBoundFirstDefaults) {
  // The fingerprint names the cache-key schema and nothing else: an
  // evaluation key already names algebra, array, backend, selection and
  // transform, so no enumeration default can make a restored entry wrong.
  EXPECT_EQ(snapshot::cacheSchemaFingerprint(), "keys-v2");
}

TEST(BoundFirst, ListAndBoundFirstShareEvaluationKeys) {
  // With pruning off and dedupe off, the uncut bound-first sweep evaluates
  // exactly the list's specs. Both modes render a candidate's cache key
  // through one function, so after a list run() the bound-first run() is
  // all hits.
  ServiceOptions options;
  options.threads = 1;
  options.enablePruning = false;
  ExplorationService service(options);
  ExploreQuery list = gemmQuery(8, 1, false);
  list.array.rows = list.array.cols = 4;
  list.enumeration.dedupeBySignature = false;
  ExploreQuery bound = list;
  bound.enumeration.boundFirst = true;

  const QueryResult first = service.run(list);
  EXPECT_EQ(first.cache.misses, first.designs);
  const QueryResult second = service.run(bound);
  EXPECT_EQ(second.designs, first.designs);
  EXPECT_EQ(second.cache.hits, second.designs);
  EXPECT_EQ(second.cache.misses, 0u);
  EXPECT_EQ(service.cacheStats().entries, first.designs);
}

TEST(BoundFirst, DeadlineProducesPartialAccountedResult) {
  // A 1 ms budget on a maxEntry=2 sweep: whatever happens, the result must
  // come back with coherent accounting (the service TL_CHECKs
  // hits + misses + pruned + skipped == designs internally).
  ExplorationService service{ServiceOptions{}};
  ExploreQuery q = gemmQuery(16, 2, true);
  q.deadlineMs = 1;
  const QueryResult r = service.run(q);
  const auto& c = r.cache;
  EXPECT_EQ(c.hits + c.misses + c.pruned + c.skipped, r.designs);
  if (!r.timedOut) EXPECT_EQ(c.skipped, 0u);
}

TEST(BoundFirst, StatsAccounting) {
  // Direct search-level accounting: visited == cut + deduped + emitted on
  // a full (unstopped) sweep, and pruning only ever removes work.
  const tensor::TensorAlgebra g = wl::gemm(8, 8, 8);
  const auto sels = stt::allLoopSelections(g);
  ASSERT_EQ(sels.size(), 1u);
  const auto context = stt::makeSpecContext(g, sels[0]);
  const stt::SelectionGeometry geometry = stt::makeSelectionGeometry(*context);
  stt::EnumerationOptions eo;
  eo.maxEntry = 2;
  eo.boundFirst = true;
  std::size_t emitted = 0;
  stt::BoundFirstHooks hooks;
  hooks.emit = [&](const stt::BoundFirstCandidate&) { ++emitted; };
  const stt::BoundFirstStats st =
      stt::enumerateBoundFirst(context, geometry, eo, hooks);
  EXPECT_FALSE(st.stopped);
  EXPECT_EQ(st.cut, 0u);  // no cut hook installed
  EXPECT_EQ(st.emitted, emitted);
  EXPECT_EQ(st.visited, st.cut + st.deduped + st.emitted);
  EXPECT_GT(st.deduped, 0u);  // the class quotient must collapse something
}

}  // namespace
}  // namespace tensorlib::driver

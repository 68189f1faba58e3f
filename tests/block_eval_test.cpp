// Block-pipeline equivalence: the struct-of-arrays evaluation pipeline
// behind run()/runBatch() must be invisible in every output. Three layers
// of evidence:
//
//   * Differential: run()/runBatch() frontiers and winners equal the
//     frontier folded from verify::exhaustiveReports() (the cache-free
//     scalar-model exhaustive reference, service_reference.hpp) across the
//     full workload table x {ASIC, FPGA} backends x {1, 8} worker threads,
//     cold and warm, at work units of 1 spec (one-spec blocks) and of 128
//     specs (two 64-spec blocks per unit; a block never spans a unit, so a
//     list's last unit ends in a short block), and at 8- and 16-spec units
//     below.
//   * Packed-model unit checks: computeMappingPacked equals computeMapping
//     field for field, and CostBackend::lowerBoundBlock equals lowerBound
//     exactly (EXPECT_EQ on doubles), on every enumerated spec checked. A
//     packed list equals the windows of the uncut bound-first sweep over
//     the same space, field for field.
//   * Accounting: hits + misses + pruned + skipped == designs holds,
//     including deadline-expired partial results where the whole untouched
//     remainder counts as skipped; CacheStats::mappings counts one tile
//     search per mapping class and every other packed evaluation as a hit.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cost/backend.hpp"
#include "driver/explore_service.hpp"
#include "service_reference.hpp"
#include "stt/block.hpp"
#include "stt/enumerate.hpp"
#include "stt/mapping.hpp"
#include "support/fault.hpp"
#include "tensor/workloads.hpp"

namespace tensorlib::driver {
namespace {

namespace wl = tensor::workloads;

ServiceOptions serviceOptions(std::size_t threads,
                              std::size_t workUnitSpecs = 32) {
  ServiceOptions o;
  o.threads = threads;
  o.workUnitSpecs = workUnitSpecs;
  return o;
}

ExploreQuery workloadQuery(const wl::NamedWorkload& w,
                           cost::BackendKind backend) {
  ExploreQuery q(w.algebra);
  q.array.rows = q.array.cols = 4;
  q.backend = backend;
  q.enumeration.dropAllUnicast = !w.allowAllUnicast;
  return q;
}

/// Enumerates up to `cap` specs of the algebra the way the service does.
std::shared_ptr<const std::vector<stt::DataflowSpec>> enumerateSpecs(
    const tensor::TensorAlgebra& algebra, std::size_t cap,
    bool dropAllUnicast) {
  stt::EnumerationOptions enumeration;
  enumeration.dropAllUnicast = dropAllUnicast;
  auto specs = std::make_shared<std::vector<stt::DataflowSpec>>();
  for (const auto& sel : stt::allLoopSelections(algebra)) {
    if (specs->size() >= cap) break;
    for (auto& spec : stt::enumerateTransforms(algebra, sel, enumeration)) {
      specs->push_back(std::move(spec));
      if (specs->size() >= cap) break;
    }
  }
  return specs;
}

// --- the differential satellite ---------------------------------------------

TEST(BlockDifferential, FrontiersEqualEvaluateAllAcrossTable) {
  for (const auto& w : wl::allWorkloads()) {
    for (const auto backend :
         {cost::BackendKind::Asic, cost::BackendKind::Fpga}) {
      const ExploreQuery q = workloadQuery(w, backend);
      const QueryResult expected = referenceResult(q);

      for (const std::size_t unitSpecs : {std::size_t{1}, std::size_t{128}}) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
          ExplorationService service(serviceOptions(threads, unitSpecs));
          const QueryResult cold = service.run(q);
          const QueryResult warm = service.run(q);
          SCOPED_TRACE(w.name + " backend=" + cost::backendKindName(backend) +
                       " workUnitSpecs=" + std::to_string(unitSpecs) +
                       " threads=" + std::to_string(threads));
          expectSameResult(expected, cold);
          expectSameResult(expected, warm);
          expectExactAccounting(cold);
          expectExactAccounting(warm);
          EXPECT_EQ(cold.cache.skipped, 0u);
        }
      }
    }
  }
}

TEST(BlockDifferential, WarmRunsStayBitIdentical) {
  // A cache primed by an unpruned run() turns would-be pruned candidates
  // into peek hits; the block path's output must not care.
  ExploreQuery q(wl::gemm(8, 8, 8));
  q.array.rows = q.array.cols = 4;

  const auto expected = referenceResult(q);

  ExplorationService service(serviceOptions(1));
  const auto cold = service.run(q);
  primeCache(service, q, "block_eval_prime.snap");
  const auto warm = service.run(q);

  expectSameResult(expected, cold);
  expectSameResult(expected, warm);
  EXPECT_EQ(warm.cache.pruned, 0u);  // everything cached: peek wins first
  EXPECT_EQ(warm.cache.hits, warm.designs);
  expectExactAccounting(warm);
}

TEST(BlockDifferential, BatchedQueriesMatchReference) {
  // runBatch with duplicates and both backends: positional results equal
  // each query's reference fold.
  std::vector<ExploreQuery> batch;
  for (const auto backend :
       {cost::BackendKind::Asic, cost::BackendKind::Fpga}) {
    ExploreQuery q(wl::gemm(6, 6, 6));
    q.array.rows = q.array.cols = 4;
    q.backend = backend;
    batch.push_back(q);
    batch.push_back(q);  // duplicate: exercises shared once-flag entries
  }

  ExplorationService service(serviceOptions(8, 16));
  const auto actual = service.runBatch(batch);
  ASSERT_EQ(actual.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    expectSameResult(referenceResult(batch[i]), actual[i]);
    expectExactAccounting(actual[i]);
  }
}

// --- deadline accounting -----------------------------------------------------

class BlockDeadlineTest : public ::testing::Test {
 protected:
  void SetUp() override { support::FaultInjector::instance().disarm(); }
  void TearDown() override { support::FaultInjector::instance().disarm(); }
};

TEST_F(BlockDeadlineTest, ExpiryCountsWholeRemainderAsSkipped) {
  support::FaultInjector::instance().arm("work_unit=sleep:30@0");
  ExploreQuery q(wl::gemm(5, 5, 5));
  q.array.rows = q.array.cols = 4;
  q.deadlineMs = 1;
  ExplorationService service(serviceOptions(1, 8));
  const auto r = service.run(q);
  EXPECT_TRUE(r.timedOut);
  EXPECT_GT(r.cache.skipped, 0u);
  // The deadline is only observed at block boundaries, so the whole
  // untouched remainder of every unit lands in `skipped` and the bucket
  // invariant survives the partial result.
  expectExactAccounting(r);
}

TEST_F(BlockDeadlineTest, GenerousDeadlineChangesNothing) {
  ExploreQuery q(wl::gemm(5, 5, 5));
  q.array.rows = q.array.cols = 4;

  const auto expected = referenceResult(q);

  ExploreQuery bounded = q;
  bounded.deadlineMs = 60'000;
  ExplorationService service(serviceOptions(1, 8));
  const auto r = service.run(bounded);
  EXPECT_FALSE(r.timedOut);
  EXPECT_EQ(r.cache.skipped, 0u);
  expectSameResult(expected, r);
  expectExactAccounting(r);
}

// --- packed-model unit checks ------------------------------------------------

TEST(BlockPacked, MappingMatchesComputeMappingAcrossWorkloads) {
  for (const auto& w : wl::allWorkloads()) {
    const auto specs = enumerateSpecs(w.algebra, 120, !w.allowAllUnicast);
    ASSERT_FALSE(specs->empty()) << w.name;
    const auto set = stt::packSpecBlocks(*specs);
    ASSERT_EQ(set->count, specs->size());
    for (const int dataBytes : {2, 4}) {
      stt::ArrayConfig config;
      config.rows = config.cols = 4;
      config.dataBytes = dataBytes;
      for (std::size_t i = 0; i < set->count; ++i) {
        SCOPED_TRACE(w.name + " spec=" + std::to_string(i) +
                     " dataBytes=" + std::to_string(dataBytes));
        const stt::TileMapping expected =
            stt::computeMapping((*specs)[i], config);
        const stt::TileMapping actual =
            stt::computeMappingPacked(*set, i, config);
        EXPECT_EQ(expected.fullTile, actual.fullTile);
        EXPECT_EQ(expected.spatialRowsUsed, actual.spatialRowsUsed);
        EXPECT_EQ(expected.spatialColsUsed, actual.spatialColsUsed);
        EXPECT_EQ(expected.replication, actual.replication);
        EXPECT_EQ(expected.outerIterations, actual.outerIterations);
        ASSERT_EQ(expected.tiles.size(), actual.tiles.size());
        for (std::size_t t = 0; t < expected.tiles.size(); ++t) {
          EXPECT_EQ(expected.tiles[t].shape, actual.tiles[t].shape);
          EXPECT_EQ(expected.tiles[t].count, actual.tiles[t].count);
          EXPECT_EQ(expected.tiles[t].macs, actual.tiles[t].macs);
          EXPECT_EQ(expected.tiles[t].computeCycles,
                    actual.tiles[t].computeCycles);
          EXPECT_EQ(expected.tiles[t].trafficWords,
                    actual.tiles[t].trafficWords);
          EXPECT_EQ(expected.tiles[t].tensorFootprints,
                    actual.tiles[t].tensorFootprints);
        }
      }
    }
  }
}

TEST(BlockPacked, LowerBoundBlockEqualsScalarLowerBound) {
  const auto backends = {cost::makeAsicBackend(16), cost::makeFpgaBackend()};
  for (const auto& w : wl::allWorkloads()) {
    const auto specs = enumerateSpecs(w.algebra, 96, !w.allowAllUnicast);
    const auto set = stt::packSpecBlocks(*specs);
    stt::ArrayConfig array;
    array.rows = array.cols = 4;
    std::vector<std::size_t> indices(set->count);
    for (std::size_t i = 0; i < set->count; ++i) indices[i] = i;
    for (const auto& backend : backends) {
      std::vector<cost::CostBound> packed(set->count);
      backend->lowerBoundBlock(*set, indices.data(), indices.size(), array,
                               packed.data());
      for (std::size_t i = 0; i < set->count; ++i) {
        SCOPED_TRACE(w.name + " spec=" + std::to_string(i) + " backend=" +
                     backend->name());
        const cost::CostBound scalar = backend->lowerBound((*specs)[i], array);
        EXPECT_EQ(scalar.cycles, packed[i].cycles);
        EXPECT_EQ(scalar.figures.powerMw, packed[i].figures.powerMw);
        EXPECT_EQ(scalar.figures.area, packed[i].figures.area);
      }
    }
  }
}

TEST(BlockPacked, MappingClassesShareMappingsSoundly) {
  // Two specs in one mapping class must produce identical mappings — that
  // equivalence is what lets BlockMappingStore run one tile search per
  // class. Spot-check by comparing every spec's packed mapping against its
  // class representative's.
  const auto specs = enumerateSpecs(wl::gemm(8, 8, 8), 200, true);
  const auto set = stt::packSpecBlocks(*specs);
  EXPECT_GT(set->mapClassCount, 0u);
  EXPECT_LT(set->mapClassCount, set->count);  // dedup must actually bite
  stt::ArrayConfig config;
  config.rows = config.cols = 4;
  std::vector<std::int64_t> representativeCycles(set->mapClassCount, -1);
  for (std::size_t i = 0; i < set->count; ++i) {
    const auto mapping = stt::computeMappingPacked(*set, i, config);
    const std::int64_t cycles = mapping.serialComputeCycles();
    auto& rep = representativeCycles[set->mapClass[i]];
    if (rep < 0)
      rep = cycles;
    else
      EXPECT_EQ(rep, cycles) << "spec " << i;
  }
}

TEST(BlockPacked, ListPackingEqualsUncutBoundFirstWindows) {
  // packSpecBlocks and the bound-first windows are built from the same
  // primitives, so with dedupe off (the bound-first stream is then exactly
  // the list) the packed list equals the sweep's survivors appended into
  // one set, field for field.
  for (const auto& w : wl::allWorkloads()) {
    SCOPED_TRACE(w.name);
    stt::EnumerationOptions options;
    options.dropAllUnicast = !w.allowAllUnicast;
    options.dedupeBySignature = false;
    const auto list = stt::packSpecBlocks(
        stt::enumerateDesignSpace(w.algebra, options));

    stt::SpecBlockSet windows;
    for (const stt::LoopSelection& sel : stt::allLoopSelections(w.algebra)) {
      const auto context = stt::makeSpecContext(w.algebra, sel);
      const stt::SelectionGeometry geometry =
          stt::makeSelectionGeometry(*context);
      if (windows.tensorsPerSpec == 0) stt::resetSpecBlocks(windows, geometry);
      stt::BoundFirstHooks hooks;
      hooks.emit = [&](const stt::BoundFirstCandidate& c) {
        stt::appendSpecBlock(windows, geometry, *c.matrix, c.classTag,
                             c.absDir, c.systolicDt,
                             geometry.selectionLabel + "-" + c.letters);
      };
      stt::enumerateBoundFirst(context, geometry, options, hooks);
    }
    stt::assignSpecBlockClasses(windows);

    ASSERT_GT(list->count, 0u);
    EXPECT_EQ(list->count, windows.count);
    EXPECT_EQ(list->tensorsPerSpec, windows.tensorsPerSpec);
    EXPECT_EQ(list->inputCount, windows.inputCount);
    EXPECT_EQ(list->algebraMacs, windows.algebraMacs);
    EXPECT_EQ(list->extents, windows.extents);
    EXPECT_EQ(list->outer, windows.outer);
    EXPECT_EQ(list->absT, windows.absT);
    EXPECT_EQ(list->labels, windows.labels);
    EXPECT_EQ(list->classTag, windows.classTag);
    EXPECT_EQ(list->absDir, windows.absDir);
    EXPECT_EQ(list->systolicDt, windows.systolicDt);
    EXPECT_EQ(list->tensorIsOutput, windows.tensorIsOutput);
    EXPECT_EQ(list->tensorRank, windows.tensorRank);
    EXPECT_EQ(list->rankStride, windows.rankStride);
    EXPECT_EQ(list->absC, windows.absC);
    EXPECT_EQ(list->mapClass, windows.mapClass);
    EXPECT_EQ(list->mapClassCount, windows.mapClassCount);
  }
}

// --- tile-search accounting -----------------------------------------------

TEST(BlockMappingCounts, OneSearchPerMappingClassEveryOtherEvaluationAHit) {
  ExploreQuery q(wl::gemm(16, 16, 16));
  q.array.rows = q.array.cols = 4;
  ServiceOptions options = serviceOptions(1);
  options.enablePruning = false;

  ExplorationService service(options);
  const QueryResult r = service.run(q);
  const CacheStats stats = service.cacheStats();
  const auto packed =
      stt::packSpecBlocks(stt::enumerateDesignSpace(q.algebra, q.enumeration));
  EXPECT_EQ(stats.mappings.misses, packed->mapClassCount);
  EXPECT_LT(stats.mappings.misses, stats.misses);  // classes actually share
  EXPECT_EQ(stats.mappings.hits + stats.mappings.misses, stats.misses);
  EXPECT_EQ(r.cache.misses, r.designs);

  // A warm rerun is all evaluation-cache hits: no packed evaluation runs,
  // so neither counter moves.
  service.run(q);
  EXPECT_EQ(service.cacheStats().mappings.hits, stats.mappings.hits);
  EXPECT_EQ(service.cacheStats().mappings.misses, stats.mappings.misses);

  // Bound-first windows keep their own stores; the split still covers
  // every packed evaluation exactly once.
  ExploreQuery boundFirst = q;
  boundFirst.enumeration.boundFirst = true;
  ExplorationService fresh(options);
  fresh.run(boundFirst);
  const CacheStats bf = fresh.cacheStats();
  EXPECT_GT(bf.mappings.misses, 0u);
  EXPECT_EQ(bf.mappings.hits + bf.mappings.misses, bf.misses);

  fresh.clearCache();
  EXPECT_EQ(fresh.cacheStats().mappings.hits, 0u);
  EXPECT_EQ(fresh.cacheStats().mappings.misses, 0u);
}

}  // namespace
}  // namespace tensorlib::driver

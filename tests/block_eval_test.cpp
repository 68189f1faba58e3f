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
//     exactly (EXPECT_EQ on doubles), on every packed slot checked. Every
//     slot's packed class data equals its analyzed DataflowSpec's, field
//     for field.
//   * Accounting: hits + misses + pruned + skipped == designs holds,
//     including deadline-expired partial results where the whole untouched
//     remainder counts as skipped; CacheStats::mappings counts one tile
//     search per mapping class and every other packed evaluation as a hit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
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

/// The design space the service prices for `algebra`.
stt::DesignSpace packSpace(const tensor::TensorAlgebra& algebra,
                           bool dropAllUnicast, int maxEntry = 1) {
  stt::EnumerationOptions enumeration;
  enumeration.maxEntry = maxEntry;
  enumeration.dropAllUnicast = dropAllUnicast;
  return stt::packDesignSpace(algebra, enumeration);
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
    const stt::DesignSpace space = packSpace(w.algebra, !w.allowAllUnicast);
    ASSERT_GT(space.size(), 0u) << w.name;
    const std::size_t checked = std::min<std::size_t>(space.size(), 120);
    for (const int dataBytes : {2, 4}) {
      stt::ArrayConfig config;
      config.rows = config.cols = 4;
      config.dataBytes = dataBytes;
      for (std::size_t i = 0; i < checked; ++i) {
        SCOPED_TRACE(w.name + " spec=" + std::to_string(i) +
                     " dataBytes=" + std::to_string(dataBytes));
        const stt::TileMapping expected =
            stt::computeMapping(space.spec(i), config);
        const stt::TileMapping actual =
            stt::computeMappingPacked(space.blocks, i, config);
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
    const stt::DesignSpace space = packSpace(w.algebra, !w.allowAllUnicast);
    stt::ArrayConfig array;
    array.rows = array.cols = 4;
    std::vector<std::size_t> indices(std::min<std::size_t>(space.size(), 96));
    for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
    for (const auto& backend : backends) {
      std::vector<cost::CostBound> packed(indices.size());
      backend->lowerBoundBlock(space.blocks, indices.data(), indices.size(),
                               array, packed.data());
      for (std::size_t i = 0; i < indices.size(); ++i) {
        SCOPED_TRACE(w.name + " spec=" + std::to_string(i) + " backend=" +
                     backend->name());
        const cost::CostBound scalar = backend->lowerBound(space.spec(i), array);
        EXPECT_EQ(scalar.cycles, packed[i].cycles);
        EXPECT_EQ(scalar.figures.powerMw, packed[i].figures.powerMw);
        EXPECT_EQ(scalar.figures.area, packed[i].figures.area);
      }
    }
  }
}

TEST(BlockPacked, MappingClassesShareMappingsSoundly) {
  // Two slots in one mapping class must produce identical mappings — that
  // equivalence is what lets BlockMappingStore run one tile search per
  // class. Compare every slot's packed mapping against its class
  // representative's. Depthwise at maxEntry 2 has classes that share
  // (within one selection the quotient leaves one slot per |T| for gemm).
  const stt::DesignSpace space =
      packSpace(wl::findWorkload("depthwise")->algebra, true, 2);
  const stt::SpecBlockSet& set = space.blocks;
  EXPECT_GT(set.mapClassCount, 0u);
  EXPECT_LT(set.mapClassCount, set.count);  // classes must actually share
  stt::ArrayConfig config;
  config.rows = config.cols = 4;
  std::vector<std::int64_t> representativeCycles(set.mapClassCount, -1);
  for (std::size_t i = 0; i < set.count; ++i) {
    const auto mapping = stt::computeMappingPacked(set, i, config);
    const std::int64_t cycles = mapping.serialComputeCycles();
    auto& rep = representativeCycles[set.mapClass[i]];
    if (rep < 0)
      rep = cycles;
    else
      EXPECT_EQ(rep, cycles) << "slot " << i;
  }
}

TEST(BlockPacked, SlotsMatchTheirAnalyzedSpecs) {
  // The sweep packs each slot from the fast classifier, never from a
  // DataflowSpec; analyzing the slot must reproduce every packed field —
  // with the quotient on and off, across the workload table.
  for (const auto& w : wl::allWorkloads()) {
    for (const bool dedupe : {true, false}) {
      SCOPED_TRACE(w.name + (dedupe ? " quotient" : " stream"));
      stt::EnumerationOptions options;
      options.dropAllUnicast = !w.allowAllUnicast;
      options.dedupeBySignature = dedupe;
      const stt::DesignSpace space = stt::packDesignSpace(w.algebra, options);
      const stt::SpecBlockSet& set = space.blocks;
      ASSERT_GT(set.count, 0u);
      ASSERT_EQ(set.inputCount, w.algebra.inputs().size());
      ASSERT_EQ(set.algebraMacs, w.algebra.totalMacs());
      for (std::size_t i = 0; i < set.count; ++i) {
        const stt::DataflowSpec spec = space.spec(i);
        ASSERT_EQ(spec.label(), set.labels[i]) << i;
        ASSERT_EQ(spec.letters(), space.letters(i)) << i;
        const linalg::IntMatrix& m = spec.transform().matrix();
        for (std::size_t e = 0; e < 9; ++e)
          ASSERT_EQ(std::abs(m.at(e / 3, e % 3)), set.specAbsT(i)[e]) << i;
        for (std::size_t j = 0; j < 3; ++j)
          ASSERT_EQ(spec.selection().extents()[j], set.specExtents(i)[j]);
        ASSERT_EQ(spec.tensors().size(), set.tensorsPerSpec);
        for (std::size_t k = 0; k < set.tensorsPerSpec; ++k) {
          const stt::TensorDataflow& df = spec.tensors()[k].dataflow;
          const std::size_t t = set.tensorIndex(i, k);
          ASSERT_EQ(static_cast<std::uint8_t>(df.dataflowClass),
                    set.classTag[t]) << i << " tensor " << k;
          const bool ranked = df.direction.size() >= 2;
          ASSERT_EQ(ranked ? std::abs(df.direction[0]) : 0, set.absDir[t * 2]);
          ASSERT_EQ(ranked ? std::abs(df.direction[1]) : 0,
                    set.absDir[t * 2 + 1]);
          ASSERT_EQ(df.dataflowClass == stt::DataflowClass::Systolic
                        ? std::abs(df.latticeBasis.at(2, 0))
                        : 0,
                    set.systolicDt[t]);
          const linalg::IntMatrix& c = spec.tensors()[k].access.coeff();
          for (std::size_t d = 0; d < set.tensorRank[k]; ++d)
            for (std::size_t j = 0; j < 3; ++j)
              ASSERT_EQ(std::abs(c.at(d, j)), set.tensorAbsC(i, k)[d * 3 + j]);
        }
      }
    }
  }
}

// --- tile-search accounting -----------------------------------------------

TEST(BlockMappingCounts, OneSearchPerMappingClassEveryOtherEvaluationAHit) {
  ExploreQuery q(wl::findWorkload("depthwise")->algebra);
  q.array.rows = q.array.cols = 4;
  q.enumeration.maxEntry = 2;
  ServiceOptions options = serviceOptions(1);
  options.enablePruning = false;

  ExplorationService service(options);
  const QueryResult r = service.run(q);
  const CacheStats stats = service.cacheStats();
  const stt::DesignSpace space = stt::packDesignSpace(q.algebra, q.enumeration);
  EXPECT_EQ(stats.mappings.misses, space.blocks.mapClassCount);
  EXPECT_LT(stats.mappings.misses, stats.misses);  // classes actually share
  EXPECT_EQ(stats.mappings.hits + stats.mappings.misses, stats.misses);
  EXPECT_EQ(r.cache.misses, r.designs);

  // A warm rerun is all evaluation-cache hits: no packed evaluation runs,
  // so neither counter moves.
  service.run(q);
  EXPECT_EQ(service.cacheStats().mappings.hits, stats.mappings.hits);
  EXPECT_EQ(service.cacheStats().mappings.misses, stats.mappings.misses);

  service.clearCache();
  EXPECT_EQ(service.cacheStats().mappings.hits, 0u);
  EXPECT_EQ(service.cacheStats().mappings.misses, 0u);
}

}  // namespace
}  // namespace tensorlib::driver

// Exploration-service stress tests: bit-identical batched results across
// worker counts and cold/warm caches (the PR-1 "deterministic fan-out"
// guarantee lifted to the service layer), cross-query cache accounting,
// bounded-cache eviction, multi-backend queries, and frontier correctness
// against a brute-force reference.
#include "driver/explore_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "cost/asic.hpp"
#include "sim/perf.hpp"
#include "stt/enumerate.hpp"
#include "tensor/workloads.hpp"
#include "verify/exhaustive.hpp"

namespace tensorlib::driver {
namespace {

namespace wl = tensor::workloads;

ExploreQuery gemmQuery(Objective objective = Objective::Performance,
                       cost::BackendKind backend = cost::BackendKind::Asic) {
  ExploreQuery q(wl::gemm(5, 5, 5));
  q.array.rows = q.array.cols = 4;
  q.objective = objective;
  q.backend = backend;
  return q;
}

std::vector<ExploreQuery> mixedBatch() {
  std::vector<ExploreQuery> batch;
  batch.push_back(gemmQuery(Objective::Performance));
  batch.push_back(gemmQuery(Objective::Power));
  batch.push_back(gemmQuery(Objective::EnergyDelay));
  batch.push_back(gemmQuery(Objective::Performance, cost::BackendKind::Fpga));
  {
    ExploreQuery q(wl::batchedGemv(5, 5, 5));
    q.array.rows = q.array.cols = 4;
    q.objective = Objective::Power;
    batch.push_back(q);
  }
  {
    ExploreQuery q(wl::attention(4, 4, 4));
    q.array.rows = q.array.cols = 4;
    q.objective = Objective::EnergyDelay;
    batch.push_back(q);
  }
  return batch;
}

ServiceOptions withThreads(std::size_t threads) {
  ServiceOptions o;
  o.threads = threads;
  o.workUnitSpecs = 32;  // several units per query even on tiny spaces
  return o;
}

/// Cache-accounting tests pin exact hit/miss splits, so they disable the
/// lower-bound pruning pass (whose cut count is a property of the bound's
/// tightness, covered by the pruning tests instead).
ServiceOptions accountingOptions(std::size_t threads) {
  ServiceOptions o = withThreads(threads);
  o.enablePruning = false;
  return o;
}

void expectSameReport(const DesignReport& a, const DesignReport& b) {
  EXPECT_EQ(a.spec.label(), b.spec.label());
  EXPECT_EQ(a.spec.transform().str(), b.spec.transform().str());
  EXPECT_EQ(a.perf.totalCycles, b.perf.totalCycles);
  EXPECT_EQ(a.perf.utilization, b.perf.utilization);
  EXPECT_EQ(a.perf.trafficWords, b.perf.trafficWords);
  EXPECT_EQ(a.backend, b.backend);
  const auto fa = a.figures(), fb = b.figures();
  EXPECT_EQ(fa.powerMw, fb.powerMw);
  EXPECT_EQ(fa.area, fb.area);
}

void expectSameResult(const QueryResult& a, const QueryResult& b) {
  EXPECT_EQ(a.designs, b.designs);
  ASSERT_EQ(a.frontier.size(), b.frontier.size());
  for (std::size_t i = 0; i < a.frontier.size(); ++i)
    expectSameReport(a.frontier[i], b.frontier[i]);
  ASSERT_EQ(a.best.has_value(), b.best.has_value());
  if (a.best) expectSameReport(*a.best, *b.best);
}

// --- the determinism stress satellite --------------------------------------

TEST(ServiceDeterminism, BitIdenticalAcrossThreadCountsAndCacheStates) {
  const auto batch = mixedBatch();

  ExplorationService one(withThreads(1));
  const auto cold = one.runBatch(batch);
  const auto warm = one.runBatch(batch);  // same service: cache fully hot

  ExplorationService two(withThreads(2));
  const auto threaded2 = two.runBatch(batch);

  ExplorationService eight(withThreads(8));
  const auto threaded8 = eight.runBatch(batch);
  const auto threaded8warm = eight.runBatch(batch);

  ASSERT_EQ(cold.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expectSameResult(cold[i], warm[i]);
    expectSameResult(cold[i], threaded2[i]);
    expectSameResult(cold[i], threaded8[i]);
    expectSameResult(cold[i], threaded8warm[i]);
    EXPECT_GT(cold[i].designs, 0u);
    EXPECT_FALSE(cold[i].frontier.empty());
    ASSERT_TRUE(cold[i].best.has_value());
  }
}

// --- the exhaustive reference keeps the legacy exploreAll contract ----------

TEST(Service, EvaluateAllMatchesLegacyEnumerateAndEvaluate) {
  const auto algebra = wl::gemm(5, 5, 5);
  stt::ArrayConfig array;
  array.rows = array.cols = 4;

  // The seed Session::exploreAll: enumerate per selection, evaluate inline.
  std::vector<std::string> legacyLabels;
  std::vector<std::int64_t> legacyCycles;
  std::vector<double> legacyPower;
  for (const auto& sel : stt::allLoopSelections(algebra))
    for (const auto& spec : stt::enumerateTransforms(algebra, sel)) {
      legacyLabels.push_back(spec.label());
      legacyCycles.push_back(sim::estimatePerformance(spec, array).totalCycles);
      legacyPower.push_back(cost::estimateAsic(spec, array, 16).powerMw);
    }

  ExploreQuery q(algebra);
  q.array = array;
  const auto reports = verify::exhaustiveReports(q);
  ASSERT_EQ(reports.size(), legacyLabels.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].spec.label(), legacyLabels[i]);
    EXPECT_EQ(reports[i].perf.totalCycles, legacyCycles[i]);
    EXPECT_EQ(reports[i].figures().powerMw, legacyPower[i]);
  }
}

// --- cache accounting -------------------------------------------------------

TEST(ServiceCache, RepeatQueryIsAllHits) {
  ExplorationService service(accountingOptions(1));
  const ExploreQuery q = gemmQuery();
  const auto first = service.run(q);
  EXPECT_EQ(first.cache.hits, 0u);
  EXPECT_EQ(first.cache.misses, first.designs);

  const auto second = service.run(q);
  EXPECT_EQ(second.cache.misses, 0u);
  EXPECT_EQ(second.cache.hits, second.designs);

  // Every query renders its own key-prefix record, so an equal query built
  // again from scratch matches the resident entries by prefix text, not by
  // record identity.
  const auto rebuilt = service.run(gemmQuery());
  EXPECT_EQ(rebuilt.cache.misses, 0u);
  EXPECT_EQ(rebuilt.cache.hits, rebuilt.designs);

  const auto stats = service.cacheStats();
  EXPECT_EQ(stats.entries, first.designs);
  EXPECT_EQ(stats.hits, 2 * first.designs);
  EXPECT_EQ(stats.shards, ServiceOptions{}.shardCount);
}

TEST(ServiceCache, ObjectivesShareEvaluationsWithinOneBatch) {
  ExplorationService service(accountingOptions(1));
  const std::vector<ExploreQuery> batch = {gemmQuery(Objective::Performance),
                                           gemmQuery(Objective::Power),
                                           gemmQuery(Objective::EnergyDelay)};
  const auto results = service.runBatch(batch);
  EXPECT_EQ(results[0].cache.misses, results[0].designs);
  EXPECT_EQ(results[1].cache.hits, results[1].designs);
  EXPECT_EQ(results[2].cache.hits, results[2].designs);
  // Different objectives, same evaluations: identical frontiers (the
  // objective only changes the winner).
  ASSERT_EQ(results[0].frontier.size(), results[1].frontier.size());
  for (std::size_t i = 0; i < results[0].frontier.size(); ++i) {
    expectSameReport(results[0].frontier[i], results[1].frontier[i]);
    expectSameReport(results[0].frontier[i], results[2].frontier[i]);
  }
}

TEST(ServiceCache, SameInitialLoopsDoNotCollideInCache) {
  // Regression: dataflow labels abbreviate loops to initials, so the
  // selections {m,n,ka} and {m,n,kb} of this contraction both label
  // "MNK-..." with identical transform matrices. The evaluation-cache key
  // must still tell them apart (it carries the selected loop indices) or
  // one selection hits the other's cached perf/cost: a cold unpruned run
  // must miss on every design and keep one entry per design.
  const auto twoK = [](std::int64_t kb) {
    return tensor::TensorAlgebra(
        "TwoK", {{"m", 4}, {"n", 4}, {"ka", 4}, {"kb", kb}},
        {"C", tensor::accessFromTerms(4, {{0}, {1}})},
        {{"A", tensor::accessFromTerms(4, {{0}, {2}, {3}})},
         {"B", tensor::accessFromTerms(4, {{1}, {2}, {3}})}});
  };
  stt::ArrayConfig array;
  array.rows = array.cols = 4;

  ExploreQuery q(twoK(8));
  q.array = array;
  ExplorationService service(accountingOptions(1));
  const auto cold = service.run(q);
  EXPECT_EQ(cold.cache.hits, 0u);
  EXPECT_EQ(cold.cache.misses, cold.designs);
  EXPECT_EQ(service.cacheStats().entries, cold.designs);
  expectSameResult(cold, service.run(q));  // warm: all hits

  // The algebra part of the key: the same contraction with one loop
  // extent changed shares every slot key but none of the evaluations.
  ExploreQuery longer(twoK(16));
  longer.array = array;
  const auto other = service.run(longer);
  EXPECT_EQ(other.cache.hits, 0u);
  EXPECT_EQ(other.cache.misses, other.designs);
}

TEST(ServiceCache, ClearCacheRestoresMisses) {
  ExplorationService service(accountingOptions(1));
  const ExploreQuery q = gemmQuery();
  service.run(q);
  service.clearCache();
  EXPECT_EQ(service.cacheStats().entries, 0u);
  const auto after = service.run(q);
  EXPECT_EQ(after.cache.hits, 0u);
  EXPECT_EQ(after.cache.misses, after.designs);
}

TEST(ServiceCache, BoundedCacheEvictsButStaysCorrect) {
  ServiceOptions tiny = accountingOptions(1);
  tiny.shardCount = 2;
  tiny.cacheCapacity = 16;  // far below the ~285-spec GEMM space
  ExplorationService small(tiny);
  ExplorationService big(withThreads(1));

  const ExploreQuery q = gemmQuery(Objective::EnergyDelay);
  const auto constrained = small.run(q);
  const auto reference = big.run(q);
  expectSameResult(constrained, reference);

  const auto stats = small.cacheStats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.entries, 16u);
}

// --- multi-backend ----------------------------------------------------------

TEST(ServiceBackends, FpgaQueriesProduceFpgaReports) {
  ExplorationService service(withThreads(1));
  const auto result = service.run(gemmQuery(Objective::Performance,
                                            cost::BackendKind::Fpga));
  ASSERT_FALSE(result.frontier.empty());
  for (const auto& rep : result.frontier) {
    EXPECT_EQ(rep.backend, cost::BackendKind::Fpga);
    ASSERT_TRUE(rep.fpga.has_value());
    EXPECT_GT(rep.fpga->luts, 0);
    EXPECT_GT(rep.fpga->powerMw, 0.0);
    EXPECT_GT(rep.figures().area, 0.0);
    EXPECT_NE(rep.summary().find("% of device"), std::string::npos);
  }
  ASSERT_TRUE(result.best.has_value());
}

TEST(ServiceBackends, AsicAndFpgaEvaluationsAreCachedSeparately) {
  ExplorationService service(accountingOptions(1));
  const auto asic = service.run(gemmQuery());
  const auto fpga =
      service.run(gemmQuery(Objective::Performance, cost::BackendKind::Fpga));
  EXPECT_EQ(asic.cache.misses, asic.designs);
  EXPECT_EQ(fpga.cache.misses, fpga.designs);  // no cross-backend hits
  EXPECT_EQ(service.cacheStats().entries, asic.designs + fpga.designs);

  // The array part of the key: the same algebra and backend on 8x8 and
  // then on 16x16 share no evaluation.
  for (const std::int64_t side : {8, 16}) {
    ExploreQuery q = gemmQuery();
    q.array.rows = q.array.cols = side;
    const auto result = service.run(q);
    EXPECT_EQ(result.cache.hits, 0u) << side;
    EXPECT_EQ(result.cache.misses, result.designs) << side;
  }
}

// --- frontier semantics -----------------------------------------------------

TEST(ServiceFrontier, MatchesBruteForceParetoFilter) {
  ExplorationService service(withThreads(1));
  const ExploreQuery q = gemmQuery(Objective::Power);
  const auto all = verify::exhaustiveReports(q);
  const auto result = service.run(q);

  // Brute-force non-dominated filter with the frontier's tie rule (exact
  // cost ties collapse to the smallest enumeration index).
  auto costOf = [](const DesignReport& r) {
    const auto f = r.figures();
    return ParetoCost{static_cast<double>(r.perf.totalCycles), f.powerMw,
                      f.area, r.perf.utilization};
  };
  std::vector<std::size_t> expected;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const ParetoCost ci = costOf(all[i]);
    bool keep = finiteCost(ci);
    for (std::size_t j = 0; keep && j < all.size(); ++j) {
      if (j == i) continue;
      const ParetoCost cj = costOf(all[j]);
      if (dominates(cj, ci)) keep = false;
      if (cj.cycles == ci.cycles && cj.powerMw == ci.powerMw &&
          cj.area == ci.area && j < i)
        keep = false;
    }
    if (keep) expected.push_back(i);
  }

  ASSERT_EQ(result.frontier.size(), expected.size());
  // The frontier is sorted by cost, not index; compare as label sets keyed
  // by the unique transform.
  std::vector<std::string> expectedKeys, actualKeys;
  for (std::size_t i : expected)
    expectedKeys.push_back(all[i].spec.label() + all[i].spec.transform().str());
  for (const auto& rep : result.frontier)
    actualKeys.push_back(rep.spec.label() + rep.spec.transform().str());
  std::sort(expectedKeys.begin(), expectedKeys.end());
  std::sort(actualKeys.begin(), actualKeys.end());
  EXPECT_EQ(expectedKeys, actualKeys);
}

TEST(ServiceFrontier, PowerWinnerRespectsPerformanceBand) {
  ExplorationService service(withThreads(1));
  const ExploreQuery q = gemmQuery(Objective::Power);
  const auto all = verify::exhaustiveReports(q);
  const auto result = service.run(q);
  ASSERT_TRUE(result.best.has_value());
  double bestUtil = 0.0;
  for (const auto& r : all) bestUtil = std::max(bestUtil, r.perf.utilization);
  EXPECT_GE(result.best->perf.utilization, 0.9 * bestUtil);
  // And it is the cheapest design inside the band.
  for (const auto& r : all)
    if (r.perf.utilization >= 0.9 * bestUtil)
      EXPECT_LE(result.best->figures().powerMw, r.figures().powerMw);
}

}  // namespace
}  // namespace tensorlib::driver

// The exhaustive reference for ExplorationService::run()/runBatch(): the
// frontier and objective winner folded from verify::exhaustiveReports(),
// which prices every spec through the scalar models with no cache, no pool
// and no pruning. The packed block pipeline, its dominance cuts, its cache
// and its work-unit/block schedule must all be invisible against it.
// Shared by the service differential tests, together with the report
// comparators they assert with.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "driver/explore_service.hpp"
#include "driver/snapshot.hpp"
#include "verify/exhaustive.hpp"

namespace tensorlib::driver {

/// Folds verify::exhaustiveReports() into the result run() must return:
/// every report enters a ParetoFrontier in enumeration order (the order
/// tie-break run() uses), and the winner is picked among the sorted
/// residents.
inline QueryResult referenceResult(const ExploreQuery& query) {
  std::vector<DesignReport> all = verify::exhaustiveReports(query);
  ParetoFrontier frontier;
  for (std::size_t i = 0; i < all.size(); ++i) {
    ParetoEntry e;
    e.cost.cycles = static_cast<double>(all[i].perf.totalCycles);
    e.cost.powerMw = all[i].figures().powerMw;
    e.cost.area = all[i].figures().area;
    e.cost.utilization = all[i].perf.utilization;
    e.order = i;
    frontier.insert(e);
  }
  QueryResult result;
  result.designs = all.size();
  const std::vector<ParetoEntry> ordered = frontier.sorted();
  for (const ParetoEntry& e : ordered) result.frontier.push_back(all[e.order]);
  if (const auto best = pickBest(ordered, query.objective))
    result.best = result.frontier[*best];
  return result;
}

inline void expectSameReport(const DesignReport& a, const DesignReport& b) {
  EXPECT_EQ(a.spec.label(), b.spec.label());
  EXPECT_EQ(a.spec.transform().str(), b.spec.transform().str());
  EXPECT_EQ(a.perf.totalCycles, b.perf.totalCycles);
  EXPECT_EQ(a.perf.utilization, b.perf.utilization);
  EXPECT_EQ(a.backend, b.backend);
  const auto fa = a.figures(), fb = b.figures();
  EXPECT_EQ(fa.powerMw, fb.powerMw);
  EXPECT_EQ(fa.area, fb.area);
}

/// Same design count, frontier (report for report, in order) and winner.
inline void expectSameResult(const QueryResult& a, const QueryResult& b) {
  EXPECT_EQ(a.designs, b.designs);
  ASSERT_EQ(a.frontier.size(), b.frontier.size());
  for (std::size_t i = 0; i < a.frontier.size(); ++i)
    expectSameReport(a.frontier[i], b.frontier[i]);
  ASSERT_EQ(a.best.has_value(), b.best.has_value());
  if (a.best) expectSameReport(*a.best, *b.best);
}

/// Fills `service`'s evaluation cache with every design point of `query`:
/// an unpruned run() on a scratch service evaluates them all, and a
/// snapshot written to `path` (removed afterwards) carries them over.
inline void primeCache(ExplorationService& service, const ExploreQuery& query,
                       const std::string& path) {
  ServiceOptions options;
  options.threads = 1;
  options.enablePruning = false;
  ExplorationService scratch(options);
  (void)scratch.run(query);
  const std::string fingerprint = snapshot::cacheSchemaFingerprint();
  ASSERT_TRUE(scratch.saveSnapshot(path, fingerprint));
  EXPECT_TRUE(service.restoreSnapshot(path, fingerprint).restored());
  std::remove(path.c_str());
}

/// Every design lands in exactly one cache bucket.
inline void expectExactAccounting(const QueryResult& r) {
  EXPECT_EQ(r.cache.hits + r.cache.misses + r.cache.pruned + r.cache.skipped,
            r.designs);
}

}  // namespace tensorlib::driver

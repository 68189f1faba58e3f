// Exactness of the evaluation-class quotient (EnumerationOptions::
// dedupeBySignature, on by default): the design space every query prices
// keeps one representative per (|T|, per-tensor class, |direction|, |dt|)
// within a loop selection, and must lose nothing a frontier can see.
//
//   * Value-set exactness: across every registered workload x {ASIC, FPGA}
//     x {8x8, 16x16} at maxEntry 1, and on the pointwise-residual shape at
//     maxEntry 2, run()'s frontier value set (cycles, power, area,
//     utilization) equals that of the same query over the exact candidate
//     stream (dedupeBySignature off), at 1 and 8 threads. Dataflow-
//     signature dedupe, which ignored |T|, failed this on 9 of the 48
//     table queries.
//   * Quotient structure: the quotient's slots are exactly the first
//     stream slot of each evaluation class, in stream order.
//   * Service contract: designs accounting under a deadline, the shared
//     candidate memo and its snapshot round trip, and evaluation keys the
//     quotient shares with the stream.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "cost/backend.hpp"
#include "driver/explore_service.hpp"
#include "driver/snapshot.hpp"
#include "stt/enumerate.hpp"
#include "tensor/workloads.hpp"

namespace tensorlib::driver {
namespace {

namespace wl = tensor::workloads;

using FrontierValue = std::tuple<double, double, double, double>;

/// The representative-independent content of a frontier: its unique
/// (cycles, power, area, utilization) tuples. The quotient keeps fewer
/// duplicates of each point, so only the unique set is comparable.
std::set<FrontierValue> frontierValues(const QueryResult& r) {
  std::set<FrontierValue> values;
  for (const DesignReport& d : r.frontier) {
    const auto f = d.figures();
    values.insert({static_cast<double>(d.perf.totalCycles), f.powerMw, f.area,
                   d.perf.utilization});
  }
  return values;
}

ServiceOptions threadsOf(std::size_t threads) {
  ServiceOptions o;
  o.threads = threads;
  return o;
}

/// Runs `q` over the quotient and over the exact stream on fresh services
/// and expects equal frontier value sets and winner figures.
void expectQuotientExact(const ExploreQuery& q, std::size_t threads) {
  ExploreQuery stream = q;
  stream.enumeration.dedupeBySignature = false;
  ExplorationService a(threadsOf(threads)), b(threadsOf(threads));
  const QueryResult quotient = a.run(q);
  const QueryResult exact = b.run(stream);
  ASSERT_FALSE(quotient.timedOut || exact.timedOut);
  EXPECT_LE(quotient.designs, exact.designs);
  EXPECT_EQ(frontierValues(quotient), frontierValues(exact));
  ASSERT_EQ(quotient.best.has_value(), exact.best.has_value());
  if (!quotient.best) return;
  EXPECT_EQ(quotient.best->perf.totalCycles, exact.best->perf.totalCycles);
  EXPECT_EQ(quotient.best->figures().powerMw, exact.best->figures().powerMw);
  EXPECT_EQ(quotient.best->figures().area, exact.best->figures().area);
}

TEST(Quotient, FrontierValueSetsEqualTheStreamAcrossTable) {
  for (const auto& w : wl::allWorkloads())
    for (const auto backend : {cost::BackendKind::Asic, cost::BackendKind::Fpga})
      for (const std::int64_t side : {8, 16})
        for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
          SCOPED_TRACE(w.name + " " + cost::backendKindName(backend) + " " +
                       std::to_string(side) + "x" + std::to_string(side) +
                       " threads=" + std::to_string(threads));
          ExploreQuery q(w.algebra);
          q.backend = backend;
          q.array.rows = q.array.cols = side;
          q.enumeration.dropAllUnicast = !w.allowAllUnicast;
          expectQuotientExact(q, threads);
        }
}

TEST(Quotient, PointwiseResidualKeepsTheThreeCycleDesign) {
  // resnet-deep's `scale` layer. Signature dedupe kept a 4-cycle
  // BIJ-UBU [0 1 -1; 1 -1 0; 1 0 0] for the whole signature and dropped
  // the 3-cycle [0 1 0; 1 -1 -1; 0 0 1] the space holds.
  ExploreQuery q(wl::pointwiseResidual(4, 4, 4));
  q.array.rows = q.array.cols = 8;
  q.enumeration.maxEntry = 2;
  q.enumeration.dropAllUnicast = false;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expectQuotientExact(q, threads);
  }
  ExplorationService service(threadsOf(1));
  const QueryResult r = service.run(q);
  ASSERT_TRUE(r.best.has_value());
  EXPECT_EQ(r.best->perf.totalCycles, 3);
}

/// A slot's full evaluation-class key within its selection.
using ClassKey = std::tuple<std::size_t, std::array<std::int64_t, 9>,
                            std::vector<std::int64_t>>;

ClassKey classKey(const stt::DesignSpace& space, std::size_t i) {
  const stt::SpecBlockSet& set = space.blocks;
  std::array<std::int64_t, 9> absT{};
  for (std::size_t e = 0; e < 9; ++e) absT[e] = set.specAbsT(i)[e];
  std::vector<std::int64_t> data;
  for (std::size_t k = 0; k < set.tensorsPerSpec; ++k) {
    const std::size_t t = set.tensorIndex(i, k);
    data.push_back(set.classTag[t]);
    data.push_back(set.absDir[t * 2]);
    data.push_back(set.absDir[t * 2 + 1]);
    data.push_back(set.systolicDt[t]);
  }
  return {space.contextOf[i], absT, data};
}

TEST(Quotient, KeepsTheFirstStreamSlotOfEachEvaluationClass) {
  for (const auto& algebra : {wl::gemm(8, 8, 8), wl::mttkrp(4, 4, 4, 4)}) {
    SCOPED_TRACE(algebra.name());
    stt::EnumerationOptions options;
    options.maxEntry = 2;
    const stt::DesignSpace quotient = stt::packDesignSpace(algebra, options);
    options.dedupeBySignature = false;
    const stt::DesignSpace stream = stt::packDesignSpace(algebra, options);
    ASSERT_EQ(quotient.contexts.size(), stream.contexts.size());

    std::vector<std::size_t> expected;  // stream slots opening a new class
    std::set<ClassKey> seen;
    for (std::size_t i = 0; i < stream.size(); ++i)
      if (seen.insert(classKey(stream, i)).second) expected.push_back(i);
    ASSERT_EQ(quotient.size(), expected.size());
    EXPECT_LT(quotient.size(), stream.size());  // the quotient must bite
    for (std::size_t q = 0; q < quotient.size(); ++q) {
      const std::size_t i = expected[q];
      ASSERT_EQ(quotient.contextOf[q], stream.contextOf[i]) << q;
      ASSERT_EQ(quotient.candidateOf[q], stream.candidateOf[i]) << q;
      ASSERT_EQ(quotient.blocks.labels[q], stream.blocks.labels[i]) << q;
    }
  }
}

TEST(Quotient, DeadlineProducesPartialAccountedResult) {
  // A 1 ms budget on a maxEntry=2 sweep: whatever happens, the result must
  // come back with coherent accounting (the service TL_CHECKs
  // hits + misses + pruned + skipped == designs internally).
  ExplorationService service{ServiceOptions{}};
  ExploreQuery q(wl::gemm(16, 16, 16));
  q.enumeration.maxEntry = 2;
  q.deadlineMs = 1;
  const QueryResult r = service.run(q);
  const auto& c = r.cache;
  EXPECT_EQ(c.hits + c.misses + c.pruned + c.skipped, r.designs);
  if (!r.timedOut) EXPECT_EQ(c.skipped, 0u);
}

TEST(Quotient, CandidateMemoKeyAndSnapshotFlagRoundTrip) {
  // The candidate generator never reads dedupeBySignature, so the quotient
  // and the stream at one maxEntry share one memo entry: one miss, then a
  // hit.
  stt::clearCandidateCache();
  stt::EnumerationOptions stream;
  stream.dedupeBySignature = false;
  const auto before = stt::candidateCacheStats();
  const auto a = stt::candidateTransformMatrices(stream);
  const auto b = stt::candidateTransformMatrices(stt::EnumerationOptions{});
  const auto after = stt::candidateCacheStats();
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_EQ(a.get(), b.get());
  ASSERT_EQ(stt::exportCandidateCache().size(), 1u);

  // The entry survives a snapshot save/restore byte-exactly.
  const std::string path = "quotient_snapshot_test.bin";
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

TEST(Quotient, SchemaFingerprintNamesTheKeySchemaOnly) {
  // An evaluation key already names algebra, array, backend, selection and
  // transform, so no enumeration default can make a restored entry wrong.
  EXPECT_EQ(snapshot::cacheSchemaFingerprint(), "keys-v2");
}

TEST(Quotient, SharesEvaluationKeysWithTheStream) {
  // Every quotient slot is a stream slot with the same rendered key, so
  // after an unpruned stream run() the quotient run() is all hits.
  ServiceOptions options = threadsOf(1);
  options.enablePruning = false;
  ExplorationService service(options);
  ExploreQuery stream(wl::gemm(8, 8, 8));
  stream.array.rows = stream.array.cols = 4;
  stream.enumeration.dedupeBySignature = false;
  ExploreQuery quotient = stream;
  quotient.enumeration.dedupeBySignature = true;

  const QueryResult first = service.run(stream);
  EXPECT_EQ(first.cache.misses, first.designs);
  const QueryResult second = service.run(quotient);
  EXPECT_LT(second.designs, first.designs);
  EXPECT_EQ(second.cache.hits, second.designs);
  EXPECT_EQ(second.cache.misses, 0u);
  EXPECT_EQ(service.cacheStats().entries, first.designs);
}

}  // namespace
}  // namespace tensorlib::driver

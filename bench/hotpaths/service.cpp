// Section "service": batched vs naive exploration of the shared 10-query
// scenario (service_scenario.hpp):
//
//   naive    one fresh ExplorationService per query: every query pays its
//            own enumeration + full design-space evaluation, the
//            one-query-at-a-time Session::exploreAll regime.
//   batched  one service, one runBatch: overlapping queries share the
//            enumerated spec list and every design-point evaluation
//            through the sharded cross-query cache.
//
// Both must produce bit-identical frontiers and winners. Gate (full mode
// only): batched >= kGateMinSpeedup x naive.
#include <cstdio>
#include <sstream>

#include "driver/explore_service.hpp"
#include "sections.hpp"
#include "service_scenario.hpp"
#include "stt/enumerate.hpp"

namespace tensorlib::bench::hotpaths {
namespace {

constexpr double kGateMinSpeedup = 1.5;

}  // namespace

Section runService(const RunConfig& run) {
  const auto batch = serviceScenarioBatch(run.smoke ? 1 : 2);
  std::vector<double> naiveMs, batchedMs;
  std::size_t designs = 0;  // design points across the batch (with repeats)
  std::uint64_t hits = 0, misses = 0;
  for (int rep = 0; rep < run.reps; ++rep) {
    // Naive: a cold service per query, starting from a cold candidate memo
    // — no cross-query reuse anywhere. The batched side runs next, with
    // the memo the naive side left behind.
    stt::clearCandidateCache();
    std::vector<driver::QueryResult> naive;
    auto t = Clock::now();
    for (const auto& q : batch) {
      driver::ExplorationService service;
      naive.push_back(service.run(q));
    }
    naiveMs.push_back(msSince(t));

    driver::ExplorationService service;
    t = Clock::now();
    const auto batched = service.runBatch(batch);
    batchedMs.push_back(msSince(t));

    checkSameResults(naive, batched);
    designs = hits = misses = 0;
    for (const auto& res : batched) {
      designs += res.designs;
      hits += res.cache.hits;
      misses += res.cache.misses;
    }
  }
  const double naive = median(naiveMs), batched = median(batchedMs);
  const double speedup = naive / batched;
  std::printf(
      "  service     %zu queries (%zu design evals)  naive %.1f ms | batched "
      "%.1f ms (%.2fx)  cache %llu hits / %llu misses  [results "
      "bit-identical]\n",
      batch.size(), designs, naive, batched, speedup,
      static_cast<unsigned long long>(hits),
      static_cast<unsigned long long>(misses));

  const bool pass = run.smoke || speedup >= kGateMinSpeedup;
  std::ostringstream line;
  line << "\"service\": {\"workloads\": \"gemm256+attention64\", \"queries\": "
       << batch.size() << ", \"design_evals\": " << designs
       << ", \"naive_ms\": " << naive << ", \"batched_ms\": " << batched
       << ", \"speedup\": " << speedup << ", \"cache_hits\": " << hits
       << ", \"cache_misses\": " << misses
       << ", \"gate_min_speedup\": " << kGateMinSpeedup
       << ", \"pass\": " << (pass ? "true" : "false") << "}";
  return {line.str(), pass};
}

}  // namespace tensorlib::bench::hotpaths

// Section "enum3": the maxEntry wall — a cold gemm-256 exploration at
// maxEntry = 3, gated by an absolute wall-clock budget.
//
// The design space is built once as the evaluation-class quotient
// (stt::packDesignSpace: every canonical candidate fast-classified, one
// representative per evaluation class, packed straight into a
// SpecBlockSet) and priced through the service's one block pipeline —
// cache peek, packed lower-bound cuts, packed evaluation — so only frontier
// keepers are ever analyzed into a DataflowSpec.
//
// Three measurements:
//   diff2   gemm-256, maxEntry=2: the quotient's frontier value set must
//           equal the exact candidate stream's (dedupeBySignature off).
//   diff3   gemm-8, maxEntry=3: the same differential over the full
//           maxEntry=3 space (small workload).
//   enum3   gemm-256, maxEntry=3: the gate — a cold exploration (cold
//           service, cold candidate memo) must finish inside the committed
//           budget.
// Smoke mode runs diff2 on gemm-16 and times gemm-16 at maxEntry=2.
//
// The quotient keeps one representative per class where the stream keeps
// every candidate, so differentials compare the frontier's unique (label,
// cycles, power, area, utilization) value tuples, never transform strings.
#include <cstdio>
#include <set>
#include <sstream>
#include <tuple>

#include "driver/explore_service.hpp"
#include "sections.hpp"
#include "stt/enumerate.hpp"
#include "support/error.hpp"
#include "tensor/workloads.hpp"

namespace tensorlib::bench::hotpaths {
namespace {

/// Committed budget for the gated maxEntry=3 gemm-256 exploration (cold
/// service, cold candidate memo).
constexpr double kGateMaxE3Ms = 3000.0;

driver::ExploreQuery gemmQuery(std::int64_t extent, int maxEntry,
                               bool quotient) {
  driver::ExploreQuery q(tensor::workloads::gemm(extent, extent, extent));
  q.enumeration.maxEntry = maxEntry;
  q.enumeration.dedupeBySignature = quotient;
  return q;
}

using FrontierValue = std::tuple<std::string, double, double, double, double>;

std::set<FrontierValue> frontierValues(const driver::QueryResult& r) {
  std::set<FrontierValue> values;
  for (const driver::DesignReport& d : r.frontier) {
    const auto f = d.figures();
    values.insert({d.spec.label(), static_cast<double>(d.perf.totalCycles),
                   f.powerMw, f.area, d.perf.utilization});
  }
  return values;
}

/// Quotient-vs-stream frontier equality: unique value tuples plus the
/// winner's figures (representatives and tie multiplicity legitimately
/// differ).
void checkSameValueSets(const driver::QueryResult& a,
                        const driver::QueryResult& b, const char* what) {
  TL_CHECK(!a.timedOut && !b.timedOut, std::string(what) + ": timed out");
  TL_CHECK(frontierValues(a) == frontierValues(b),
           std::string(what) + ": frontier value sets differ");
  TL_CHECK(a.best.has_value() == b.best.has_value(),
           std::string(what) + ": best presence differs");
  if (a.best) {
    TL_CHECK(a.best->perf.totalCycles == b.best->perf.totalCycles &&
                 a.best->figures().powerMw == b.best->figures().powerMw &&
                 a.best->figures().area == b.best->figures().area,
             std::string(what) + ": best figures differ");
  }
}

driver::QueryResult runCold(const driver::ExploreQuery& q,
                            std::vector<double>* ms) {
  stt::clearCandidateCache();
  driver::ExplorationService service{driver::ServiceOptions{}};
  const auto t = Clock::now();
  driver::QueryResult r = service.run(q);
  if (ms) ms->push_back(msSince(t));
  return r;
}

/// The quotient and the stream of one query, each cold.
void checkQuotientExact(std::int64_t extent, int maxEntry, const char* what) {
  checkSameValueSets(runCold(gemmQuery(extent, maxEntry, true), nullptr),
                     runCold(gemmQuery(extent, maxEntry, false), nullptr),
                     what);
  std::printf("  enum3       %s gemm-%lld maxEntry=%d: frontier value sets "
              "equal\n",
              what, static_cast<long long>(extent), maxEntry);
}

}  // namespace

Section runEnum3(const RunConfig& run) {
  const std::int64_t extent = run.smoke ? 16 : 256;
  const int maxEntry = run.smoke ? 2 : 3;
  checkQuotientExact(extent, 2, "diff2");
  if (!run.smoke) checkQuotientExact(8, 3, "diff3");

  std::vector<double> ms;
  driver::QueryResult r;
  for (int rep = 0; rep < run.reps; ++rep) {
    r = runCold(gemmQuery(extent, maxEntry, true), &ms);
    TL_CHECK(!r.timedOut && r.best.has_value(), "enum3: no winner");
  }
  const double medianMs = median(ms);
  std::printf("  enum3       gemm-%lld maxEntry=%d: %.1f ms (%zu designs, %llu "
              "pruned)\n",
              static_cast<long long>(extent), maxEntry, medianMs, r.designs,
              static_cast<unsigned long long>(r.cache.pruned));

  const bool pass = run.smoke || medianMs <= kGateMaxE3Ms;
  std::ostringstream line;
  line << "\"enum3\": {\"workload\": \"gemm" << extent
       << "\", \"max_entry\": " << maxEntry << ", \"ms\": " << medianMs
       << ", \"designs\": " << r.designs << ", \"pruned\": " << r.cache.pruned
       << ", \"gate_max_ms\": " << kGateMaxE3Ms
       << ", \"pass\": " << (pass ? "true" : "false") << "}";
  return {line.str(), pass};
}

}  // namespace tensorlib::bench::hotpaths

// The maxEntry wall: a cold gemm-256 exploration at maxEntry = 3, gated by
// an absolute wall-clock budget.
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
//
// The quotient keeps one representative per class where the stream keeps
// every candidate, so differentials compare the frontier's unique (label,
// cycles, power, area, utilization) value tuples, never transform strings.
//
// Merges an "enum3" section into BENCH_hotpaths.json.
//
// Usage: bench_enum3 [--smoke] [--out <path>]
//   --smoke   maxEntry<=2 spaces, correctness asserts only, no timing gate
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <tuple>

#include "bench_util.hpp"
#include "driver/explore_service.hpp"
#include "stt/enumerate.hpp"
#include "support/error.hpp"
#include "tensor/workloads.hpp"

namespace {

using namespace tensorlib;
using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

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

driver::QueryResult runCold(const driver::ExploreQuery& q, double* ms) {
  stt::clearCandidateCache();
  driver::ExplorationService service{driver::ServiceOptions{}};
  const auto t = Clock::now();
  driver::QueryResult r = service.run(q);
  if (ms) *ms = msSince(t);
  return r;
}

/// The quotient and the stream of one query, each cold.
void checkQuotientExact(std::int64_t extent, int maxEntry, const char* what) {
  checkSameValueSets(runCold(gemmQuery(extent, maxEntry, true), nullptr),
                     runCold(gemmQuery(extent, maxEntry, false), nullptr),
                     what);
  std::printf("  %s   gemm-%lld maxEntry=%d: frontier value sets equal\n",
              what, static_cast<long long>(extent), maxEntry);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_hotpaths.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out = argv[++i];
    else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out <path>]\n", argv[0]);
      return 2;
    }
  }

  try {
    bench::printHeader(smoke ? "maxEntry=3 exploration (smoke)"
                             : "maxEntry=3 exploration");

    // diff2 — gemm-16 in smoke mode keeps CI fast; gemm-256 in full mode.
    checkQuotientExact(smoke ? 16 : 256, 2, "diff2");

    if (smoke) {
      std::ostringstream line;
      line << "\"enum3\": {\"mode\": \"smoke\", \"section\": \"enum3\", "
           << "\"pass\": true}";
      bench::mergeJsonSection(out, "enum3", line.str());
      std::printf("  merged into %s\n", out.c_str());
      return 0;
    }

    checkQuotientExact(8, 3, "diff3");

    // enum3 — the gated timing.
    double ms = 0;
    const driver::QueryResult r = runCold(gemmQuery(256, 3, true), &ms);
    TL_CHECK(!r.timedOut && r.best.has_value(), "enum3: no winner");
    std::printf("  enum3   gemm-256 maxEntry=3: %.1f ms (%zu designs, %llu "
                "pruned)\n",
                ms, r.designs, static_cast<unsigned long long>(r.cache.pruned));

    const bool pass = ms <= kGateMaxE3Ms;
    std::ostringstream line;
    line << "\"enum3\": {\"workload\": \"gemm256\", \"max_entry\": 3"
         << ", \"ms\": " << ms << ", \"designs\": " << r.designs
         << ", \"pruned\": " << r.cache.pruned
         << ", \"gate_max_ms\": " << kGateMaxE3Ms
         << ", \"pass\": " << (pass ? "true" : "false") << "}";
    bench::mergeJsonSection(out, "enum3", line.str());
    std::printf("  merged into %s\n", out.c_str());

    if (!pass)
      std::printf("  GATE FAIL: maxEntry=3 %.1f ms > %.1f ms\n", ms,
                  kGateMaxE3Ms);
    return pass ? 0 : 1;
  } catch (const tensorlib::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

// Network-level co-exploration benchmark (the PR-5 perf anchor).
//
// Maps one multi-layer model onto a shared PE array two ways and asserts
// the network frontiers are bit-identical:
//
//   naive     one COLD exhaustive service per layer (pruning off, no
//             cross-layer sharing) — the cost of treating a model as
//             independent per-operator queries — then the same frontier
//             composition.
//   composed  driver::NetworkExplorer — every layer in ONE service batch,
//             so repeated layer shapes hit the cross-query cache and the
//             lower-bound dominance cut skips dominated evaluations.
//
// Full mode uses a serving-size transformer slice (attention-64 twice,
// GEMM-256 twice, GEMM-128) at maxEntry=2 and gates the composed-vs-naive
// speedup >= 1.5x; smoke mode runs the built-in mlp-3 model at maxEntry=1
// with correctness asserts only. Merges a "network" section into
// BENCH_hotpaths.json next to the PR-1/3/4 gates (see docs/ARCHITECTURE.md
// for the bench/gate workflow).
//
// Usage: bench_network_bench [--smoke] [--out <path>]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "driver/network_explorer.hpp"
#include "support/error.hpp"
#include "tensor/network.hpp"
#include "tensor/workloads.hpp"

namespace {

using namespace tensorlib;
using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

constexpr double kGateMinSpeedup = 1.5;

driver::ServiceOptions naiveOptions() {
  driver::ServiceOptions o;
  o.enablePruning = false;
  return o;
}

/// Full mode: a transformer slice at serving sizes — the repeated layer
/// shapes every real model has are exactly what composed exploration
/// amortizes. Smoke mode: the built-in mlp-3 model.
driver::NetworkQuery benchQuery(bool smoke) {
  namespace wl = tensor::workloads;
  if (smoke) {
    driver::NetworkQuery q(*wl::findNetwork("mlp-3"));
    q.arrays = {stt::ArrayConfig{}};
    q.enumeration.maxEntry = 1;
    return q;
  }
  driver::NetworkQuery q(tensor::NetworkSpec(
      "transformer-slice",
      {tensor::NetworkLayer{"qk-scores", wl::attention(64, 64, 64), false},
       tensor::NetworkLayer{"av", wl::attention(64, 64, 64), false},
       tensor::NetworkLayer{"proj", wl::gemm(256, 256, 256), false},
       tensor::NetworkLayer{"ffn1", wl::gemm(256, 256, 256), false},
       tensor::NetworkLayer{"ffn2", wl::gemm(128, 128, 128), false}}));
  q.arrays = {stt::ArrayConfig{}};  // the paper's 16x16 array
  q.enumeration.maxEntry = 2;
  return q;
}

void checkSameNetworkResult(const driver::NetworkResult& a,
                            const driver::NetworkResult& b) {
  TL_CHECK(a.designs == b.designs, "design-space sizes diverged");
  TL_CHECK(a.frontier.size() == b.frontier.size(),
           "network frontier sizes diverged");
  for (std::size_t i = 0; i < a.frontier.size(); ++i) {
    const driver::NetworkDesign& x = a.frontier[i];
    const driver::NetworkDesign& y = b.frontier[i];
    TL_CHECK(x.arrayIndex == y.arrayIndex && x.order == y.order &&
                 x.cost.cycles == y.cost.cycles &&
                 x.cost.powerMw == y.cost.powerMw && x.cost.area == y.cost.area,
             "network frontier design #" + std::to_string(i) + " diverged");
    TL_CHECK(x.layers.size() == y.layers.size(), "assignment arity diverged");
    for (std::size_t l = 0; l < x.layers.size(); ++l)
      TL_CHECK(x.layers[l].dataflow == y.layers[l].dataflow,
               "layer assignment diverged at " + x.layers[l].layer);
  }
  TL_CHECK(a.best.has_value() == b.best.has_value(), "winner presence diverged");
  if (a.best)
    TL_CHECK(a.best->order == b.best->order &&
                 a.best->arrayIndex == b.best->arrayIndex,
             "network winner diverged");
}

struct NetworkBenchReport {
  std::string model;
  std::size_t layers = 0;
  std::size_t designEvals = 0;  ///< design points summed over layer queries
  std::size_t frontier = 0;     ///< network frontier residents
  double naiveMs = 0, composedMs = 0;
  std::uint64_t cacheHits = 0, pruned = 0;
  double speedup() const { return naiveMs / composedMs; }
};

NetworkBenchReport benchNetwork(bool smoke) {
  const driver::NetworkQuery query = benchQuery(smoke);
  NetworkBenchReport r;
  r.model = query.network.name();
  r.layers = query.network.layerCount();

  // Warm the process-wide candidate-matrix memo so neither side pays
  // one-time matrix generation inside its timed region.
  (void)stt::enumerateDesignSpace(query.network.layers()[0].algebra,
                                  query.enumeration);

  // --- naive: one cold exhaustive service per layer, then compose.
  driver::NetworkResult naive;
  {
    const auto t = Clock::now();
    std::vector<std::vector<driver::QueryResult>> perLayer(query.arrays.size());
    for (std::size_t a = 0; a < query.arrays.size(); ++a)
      for (const auto& layer : query.network.layers()) {
        driver::ExplorationService fresh(naiveOptions());
        perLayer[a].push_back(
            fresh.run(driver::layerQuery(query, query.arrays[a], layer)));
      }
    naive = driver::composeLayerFrontiers(query, perLayer);
    r.naiveMs = msSince(t);
  }

  // --- composed: one NetworkExplorer, one batch, shared caches.
  driver::NetworkResult composed;
  {
    driver::NetworkExplorer explorer{driver::ServiceOptions{}};
    const auto t = Clock::now();
    composed = explorer.explore(query);
    r.composedMs = msSince(t);
    r.cacheHits = explorer.service().cacheStats().hits;
  }

  checkSameNetworkResult(naive, composed);
  r.designEvals = composed.designs;
  r.frontier = composed.frontier.size();
  for (const auto& s : composed.layers) r.pruned += s.cache.pruned;
  TL_CHECK(r.cacheHits > 0,
           "composed exploration never hit the cross-layer cache");
  return r;
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
    bench::printHeader(smoke ? "Network co-exploration (smoke)"
                             : "Network co-exploration: composed vs naive");
    const NetworkBenchReport r = benchNetwork(smoke);
    std::printf(
        "  %s (%zu layers)  naive %.1f ms | composed %.1f ms (%.2fx)\n"
        "  [%zu design evals, frontier %zu, %llu cache hits, %llu pruned, "
        "frontiers bit-identical]\n",
        r.model.c_str(), r.layers, r.naiveMs, r.composedMs, r.speedup(),
        r.designEvals, r.frontier,
        static_cast<unsigned long long>(r.cacheHits),
        static_cast<unsigned long long>(r.pruned));

    const bool pass = smoke || r.speedup() >= kGateMinSpeedup;
    std::ostringstream line;
    line << "\"network\": {\"model\": \"" << r.model << "\", \"layers\": "
         << r.layers << ", \"design_evals\": " << r.designEvals
         << ", \"frontier_size\": " << r.frontier << ", \"naive_ms\": "
         << r.naiveMs << ", \"composed_ms\": " << r.composedMs
         << ", \"speedup\": " << r.speedup() << ", \"cache_hits\": "
         << r.cacheHits << ", \"pruned\": " << r.pruned
         << ", \"gate_min_speedup\": " << kGateMinSpeedup
         << ", \"pass\": " << (pass ? "true" : "false") << "}";
    bench::mergeJsonSection(out, "network", line.str());
    std::printf("  merged into %s\n", out.c_str());

    if (!pass)
      std::printf("  GATE FAIL: composed-vs-naive speedup %.2f < %.1f\n",
                  r.speedup(), kGateMinSpeedup);
    return pass ? 0 : 1;
  } catch (const tensorlib::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

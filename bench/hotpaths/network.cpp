// Section "network": maps one multi-layer model onto a shared PE array two
// ways, and the network frontiers must be bit-identical:
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
// speedup >= kGateMinSpeedup; smoke mode runs the built-in mlp-3 model at
// maxEntry=1.
#include <cstdio>
#include <sstream>

#include "driver/network_explorer.hpp"
#include "sections.hpp"
#include "stt/enumerate.hpp"
#include "support/error.hpp"
#include "tensor/network.hpp"
#include "tensor/workloads.hpp"

namespace tensorlib::bench::hotpaths {
namespace {

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

}  // namespace

Section runNetwork(const RunConfig& run) {
  const driver::NetworkQuery query = benchQuery(run.smoke);
  std::vector<double> naiveMs, composedMs;
  driver::NetworkResult composed;
  std::uint64_t cacheHits = 0;
  for (int rep = 0; rep < run.reps; ++rep) {
    // Warm the process-wide candidate-matrix memo so neither side pays
    // one-time matrix generation inside its timed region.
    stt::clearCandidateCache();
    (void)stt::enumerateDesignSpace(query.network.layers()[0].algebra,
                                    query.enumeration);

    // --- naive: one cold exhaustive service per layer, then compose.
    driver::NetworkResult naive;
    {
      const auto t = Clock::now();
      std::vector<std::vector<driver::QueryResult>> perLayer(
          query.arrays.size());
      for (std::size_t a = 0; a < query.arrays.size(); ++a)
        for (const auto& layer : query.network.layers()) {
          driver::ExplorationService fresh(naiveOptions());
          perLayer[a].push_back(
              fresh.run(driver::layerQuery(query, query.arrays[a], layer)));
        }
      naive = driver::composeLayerFrontiers(query, perLayer);
      naiveMs.push_back(msSince(t));
    }

    // --- composed: one NetworkExplorer, one batch, shared caches.
    {
      driver::NetworkExplorer explorer{driver::ServiceOptions{}};
      const auto t = Clock::now();
      composed = explorer.explore(query);
      composedMs.push_back(msSince(t));
      cacheHits = explorer.service().cacheStats().hits;
    }

    checkSameNetworkResult(naive, composed);
    TL_CHECK(cacheHits > 0,
             "composed exploration never hit the cross-layer cache");
  }
  std::uint64_t pruned = 0;
  for (const auto& s : composed.layers) pruned += s.cache.pruned;
  const double naive = median(naiveMs), composedTime = median(composedMs);
  const double speedup = naive / composedTime;
  std::printf(
      "  network     %s (%zu layers)  naive %.1f ms | composed %.1f ms "
      "(%.2fx)  [%zu design evals, frontier %zu, %llu cache hits, %llu "
      "pruned, frontiers bit-identical]\n",
      query.network.name().c_str(), query.network.layerCount(), naive,
      composedTime, speedup, composed.designs, composed.frontier.size(),
      static_cast<unsigned long long>(cacheHits),
      static_cast<unsigned long long>(pruned));

  const bool pass = run.smoke || speedup >= kGateMinSpeedup;
  std::ostringstream line;
  line << "\"network\": {\"model\": \"" << query.network.name()
       << "\", \"layers\": " << query.network.layerCount()
       << ", \"design_evals\": " << composed.designs
       << ", \"frontier_size\": " << composed.frontier.size()
       << ", \"naive_ms\": " << naive << ", \"composed_ms\": " << composedTime
       << ", \"speedup\": " << speedup << ", \"cache_hits\": " << cacheHits
       << ", \"pruned\": " << pruned
       << ", \"gate_min_speedup\": " << kGateMinSpeedup
       << ", \"pass\": " << (pass ? "true" : "false") << "}";
  return {line.str(), pass};
}

}  // namespace tensorlib::bench::hotpaths

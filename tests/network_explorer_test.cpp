// Network-level co-exploration tests: shared-array frontier composition
// edge cases (single-layer network == plain exploration, degenerate layers
// rejected), bit-identity across worker counts and cache states, the
// composed-vs-naive differential, cost composition invariants (sum / max),
// and cross-layer cache reuse.
#include "driver/network_explorer.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "support/error.hpp"
#include "tensor/workloads.hpp"

namespace tensorlib::driver {
namespace {

namespace wl = tensor::workloads;

stt::ArrayConfig smallArray(std::int64_t rows, std::int64_t cols) {
  stt::ArrayConfig a;
  a.rows = rows;
  a.cols = cols;
  return a;
}

NetworkQuery mlpQuery(std::vector<stt::ArrayConfig> arrays = {smallArray(4, 4),
                                                              smallArray(8, 8)}) {
  NetworkQuery q(*wl::findNetwork("mlp-3"));
  q.arrays = std::move(arrays);
  return q;
}

void expectSameDesign(const NetworkDesign& a, const NetworkDesign& b) {
  EXPECT_EQ(a.arrayIndex, b.arrayIndex);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.cost.cycles, b.cost.cycles);
  EXPECT_EQ(a.cost.powerMw, b.cost.powerMw);
  EXPECT_EQ(a.cost.area, b.cost.area);
  EXPECT_EQ(a.cost.utilization, b.cost.utilization);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    EXPECT_EQ(a.layers[l].layer, b.layers[l].layer);
    EXPECT_EQ(a.layers[l].dataflow, b.layers[l].dataflow);
    EXPECT_EQ(a.layers[l].cycles, b.layers[l].cycles);
    EXPECT_EQ(a.layers[l].powerMw, b.layers[l].powerMw);
    EXPECT_EQ(a.layers[l].area, b.layers[l].area);
  }
}

void expectSameResult(const NetworkResult& a, const NetworkResult& b) {
  EXPECT_EQ(a.designs, b.designs);
  ASSERT_EQ(a.frontier.size(), b.frontier.size());
  for (std::size_t i = 0; i < a.frontier.size(); ++i)
    expectSameDesign(a.frontier[i], b.frontier[i]);
  ASSERT_EQ(a.best.has_value(), b.best.has_value());
  if (a.best) expectSameDesign(*a.best, *b.best);
}

// A single-layer network on one array is plain exploration wearing the
// network API: same frontier, same labels, same winner.
TEST(NetworkExplorerTest, SingleLayerEqualsPlainExploration) {
  NetworkQuery query(tensor::NetworkSpec(
      "solo", {tensor::NetworkLayer{"only", wl::gemm(5, 5, 5), false}}));
  query.arrays = {smallArray(4, 4)};

  NetworkExplorer explorer{ServiceOptions{}};
  const NetworkResult network = explorer.explore(query);

  ExplorationService plainService;
  const QueryResult plain = plainService.run(
      layerQuery(query, query.arrays[0], query.network.layers()[0]));

  ASSERT_EQ(network.frontier.size(), plain.frontier.size());
  for (std::size_t i = 0; i < network.frontier.size(); ++i) {
    const NetworkDesign& d = network.frontier[i];
    const DesignReport& rep = plain.frontier[i];
    const auto figures = rep.figures();
    ASSERT_EQ(d.layers.size(), 1u);
    EXPECT_EQ(d.layers[0].dataflow, rep.spec.label());
    EXPECT_EQ(d.cost.cycles, static_cast<double>(rep.perf.totalCycles));
    EXPECT_EQ(d.cost.powerMw, figures.powerMw);
    EXPECT_EQ(d.cost.area, figures.area);
    EXPECT_DOUBLE_EQ(d.cost.utilization, rep.perf.utilization);
  }
  ASSERT_TRUE(network.best.has_value());
  ASSERT_TRUE(plain.best.has_value());
  EXPECT_EQ(network.best->layers[0].dataflow, plain.best->spec.label());
}

TEST(NetworkExplorerTest, RejectsEmptyCandidateArrayList) {
  NetworkQuery query = mlpQuery();
  query.arrays.clear();
  NetworkExplorer explorer{ServiceOptions{}};
  EXPECT_THROW(explorer.explore(query), Error);
}

// A layer whose design space comes up empty (a pointwise shape enumerated
// with the all-unicast designs dropped) must be rejected loudly, not
// composed into a silent empty frontier.
TEST(NetworkExplorerTest, RejectsLayerWithNoRealizableDesign) {
  NetworkQuery query(tensor::NetworkSpec(
      "bad", {tensor::NetworkLayer{"fc", wl::gemm(4, 4, 4), false},
              tensor::NetworkLayer{"scale", wl::pointwiseResidual(3, 4, 4),
                                   /*allowAllUnicast=*/false}}));
  query.arrays = {smallArray(4, 4)};
  NetworkExplorer explorer{ServiceOptions{}};
  try {
    explorer.explore(query);
    FAIL() << "expected tensorlib::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("scale"), std::string::npos);
  }
}

// The pointwise layer explores fine when its allowAllUnicast hint is set —
// the explorer flips dropAllUnicast per layer.
TEST(NetworkExplorerTest, PointwiseLayerUsesItsEnumerationHint) {
  NetworkExplorer explorer{ServiceOptions{}};
  const NetworkResult result = explorer.explore(mlpQuery({smallArray(4, 4)}));
  EXPECT_FALSE(result.frontier.empty());
}

TEST(NetworkExplorerTest, BitIdenticalAcrossThreadsAndCacheStates) {
  const NetworkQuery query = mlpQuery();

  ServiceOptions oneThread;
  oneThread.threads = 1;
  NetworkExplorer serial(oneThread);
  const NetworkResult reference = serial.explore(query);

  ServiceOptions eightThreads;
  eightThreads.threads = 8;
  eightThreads.workUnitSpecs = 32;  // several units per query
  NetworkExplorer parallel(eightThreads);
  const NetworkResult cold = parallel.explore(query);
  const NetworkResult warm = parallel.explore(query);  // pure cache hits

  expectSameResult(reference, cold);
  expectSameResult(reference, warm);

  // The warm run really was served from the cache.
  EXPECT_GT(parallel.service().cacheStats().hits, 0u);
}

// explore() must match composing naive per-layer runs (fresh exhaustive
// service per layer — no pruning, no sharing) through the same composition
// code path.
TEST(NetworkExplorerTest, ComposedMatchesNaivePerLayerExploration) {
  const NetworkQuery query = mlpQuery();

  NetworkExplorer composed{ServiceOptions{}};
  const NetworkResult fast = composed.explore(query);

  std::vector<std::vector<QueryResult>> naive(query.arrays.size());
  for (std::size_t a = 0; a < query.arrays.size(); ++a) {
    for (const auto& layer : query.network.layers()) {
      ServiceOptions cold;
      cold.enablePruning = false;
      ExplorationService freshService(cold);
      naive[a].push_back(
          freshService.run(layerQuery(query, query.arrays[a], layer)));
    }
  }
  const NetworkResult reference = composeLayerFrontiers(query, naive);
  expectSameResult(reference, fast);
}

// Independent oracle for the fold-with-pruning composition: enumerate the
// FULL cross product of per-layer frontier picks, Pareto-filter it by
// brute force (no code shared with composeLayerFrontiers), and demand the
// same frontier — a composition bug that hits both the composed and the
// naive path identically cannot hide from this.
TEST(NetworkExplorerTest, CompositionMatchesBruteForceCrossProduct) {
  const NetworkQuery query = mlpQuery({smallArray(4, 4)});

  NetworkExplorer explorer{ServiceOptions{}};
  const NetworkResult composed = explorer.explore(query);

  ExplorationService service;
  std::vector<QueryResult> layers;
  for (const auto& layer : query.network.layers())
    layers.push_back(service.run(layerQuery(query, query.arrays[0], layer)));

  struct Combo {
    ParetoCost cost;
    std::vector<std::size_t> picks;
  };
  std::vector<Combo> combos;
  std::vector<std::size_t> picks(layers.size(), 0);
  for (;;) {
    Combo combo;
    combo.picks = picks;
    for (std::size_t l = 0; l < layers.size(); ++l) {
      const DesignReport& rep = layers[l].frontier[picks[l]];
      const auto figures = rep.figures();
      combo.cost.cycles += static_cast<double>(rep.perf.totalCycles);
      combo.cost.powerMw = std::max(combo.cost.powerMw, figures.powerMw);
      combo.cost.area = std::max(combo.cost.area, figures.area);
    }
    combos.push_back(std::move(combo));
    std::size_t l = 0;
    while (l < picks.size()) {
      if (++picks[l] < layers[l].frontier.size()) break;
      picks[l] = 0;
      ++l;
    }
    if (l == picks.size()) break;
  }

  const auto equalCost = [](const ParetoCost& a, const ParetoCost& b) {
    return a.cycles == b.cycles && a.powerMw == b.powerMw && a.area == b.area;
  };
  std::vector<Combo> kept;
  for (const Combo& c : combos) {
    bool keep = true;
    for (const Combo& other : combos) {
      if (dominates(other.cost, c.cost) ||
          (equalCost(other.cost, c.cost) && other.picks < c.picks)) {
        keep = false;
        break;
      }
    }
    if (keep) kept.push_back(c);
  }
  std::sort(kept.begin(), kept.end(), [](const Combo& a, const Combo& b) {
    if (a.cost.cycles != b.cost.cycles) return a.cost.cycles < b.cost.cycles;
    if (a.cost.powerMw != b.cost.powerMw) return a.cost.powerMw < b.cost.powerMw;
    if (a.cost.area != b.cost.area) return a.cost.area < b.cost.area;
    return a.picks < b.picks;
  });

  ASSERT_EQ(composed.frontier.size(), kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const NetworkDesign& d = composed.frontier[i];
    EXPECT_EQ(d.cost.cycles, kept[i].cost.cycles);
    EXPECT_EQ(d.cost.powerMw, kept[i].cost.powerMw);
    EXPECT_EQ(d.cost.area, kept[i].cost.area);
    for (std::size_t l = 0; l < layers.size(); ++l)
      EXPECT_EQ(d.layers[l].dataflow,
                layers[l].frontier[kept[i].picks[l]].spec.label());
  }
}

// Network costs obey the shared-array execution model: cycles sum, power
// and area max, utilization = MACs / (PEs * cycles).
TEST(NetworkExplorerTest, CostCompositionInvariants) {
  const NetworkQuery query = mlpQuery();
  NetworkExplorer explorer{ServiceOptions{}};
  const NetworkResult result = explorer.explore(query);

  ASSERT_FALSE(result.frontier.empty());
  const double macs = static_cast<double>(query.network.totalMacs());
  for (const NetworkDesign& d : result.frontier) {
    ASSERT_LT(d.arrayIndex, query.arrays.size());
    ASSERT_EQ(d.layers.size(), query.network.layerCount());
    double cycles = 0.0, power = 0.0, area = 0.0;
    for (const LayerAssignment& l : d.layers) {
      cycles += static_cast<double>(l.cycles);
      power = std::max(power, l.powerMw);
      area = std::max(area, l.area);
    }
    EXPECT_EQ(d.cost.cycles, cycles);
    EXPECT_EQ(d.cost.powerMw, power);
    EXPECT_EQ(d.cost.area, area);
    const auto& array = query.arrays[d.arrayIndex];
    EXPECT_DOUBLE_EQ(d.cost.utilization,
                     macs / (static_cast<double>(array.rows * array.cols) *
                             d.cost.cycles));
  }

  // The frontier is canonically sorted and mutually non-dominated.
  for (std::size_t i = 1; i < result.frontier.size(); ++i) {
    const auto& prev = result.frontier[i - 1].cost;
    const auto& cur = result.frontier[i].cost;
    EXPECT_LE(prev.cycles, cur.cycles);
  }
  for (const NetworkDesign& a : result.frontier)
    for (const NetworkDesign& b : result.frontier)
      if (&a != &b) EXPECT_FALSE(dominates(a.cost, b.cost));

  // Per-layer accounting: hits + misses + pruned covers each layer's space.
  ASSERT_EQ(result.layers.size(),
            query.arrays.size() * query.network.layerCount());
  for (const NetworkLayerStats& s : result.layers)
    EXPECT_EQ(s.cache.hits + s.cache.misses + s.cache.pruned, s.designs);
}

TEST(NetworkExplorerTest, ParseArrayListAcceptsOnlyStrictRxC) {
  stt::ArrayConfig base;
  base.bandwidthGBps = 12.5;
  const auto arrays = parseArrayList("4x4,16x8", base);
  ASSERT_EQ(arrays.size(), 2u);
  EXPECT_EQ(arrays[0].rows, 4);
  EXPECT_EQ(arrays[0].cols, 4);
  EXPECT_EQ(arrays[1].rows, 16);
  EXPECT_EQ(arrays[1].cols, 8);
  EXPECT_EQ(arrays[1].bandwidthGBps, 12.5);  // inherited from base

  for (const char* bad : {"", "8", "8x", "x8", "8x8x8", "8x8qq", "a8x8",
                          "8x8,", "8 x8", "8x-2", "8x0"})
    EXPECT_THROW(parseArrayList(bad, base), Error) << bad;
}

// Repeated layer shapes pay for evaluation once: the second identical
// layer is served entirely from the cross-query cache.
TEST(NetworkExplorerTest, RepeatedLayersReuseTheServiceCache) {
  NetworkQuery query(*wl::findNetwork("attention-block"));
  query.arrays = {smallArray(4, 4)};
  NetworkExplorer explorer{ServiceOptions{}};
  const NetworkResult result = explorer.explore(query);

  // Layers "av" and "proj" are the same GEMM shape; whichever lands second
  // must see pure hits.
  std::uint64_t hits = 0;
  for (const NetworkLayerStats& s : result.layers) hits += s.cache.hits;
  EXPECT_GT(hits, 0u);
  EXPECT_GT(explorer.service().cacheStats().hits, 0u);
}

}  // namespace
}  // namespace tensorlib::driver

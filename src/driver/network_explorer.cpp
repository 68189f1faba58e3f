#include "driver/network_explorer.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "driver/wire.hpp"
#include "support/error.hpp"

namespace tensorlib::driver {

namespace {

/// A partially composed assignment: the (sum, max, max) cost of the layers
/// chosen so far plus the chosen frontier index per layer.
struct Partial {
  ParetoCost cost;
  std::vector<std::uint32_t> picks;
};

LayerAssignment toAssignment(const std::string& layerName,
                             const DesignReport& report) {
  const auto figures = report.figures();
  LayerAssignment a;
  a.layer = layerName;
  a.dataflow = report.spec.label();
  a.cycles = report.perf.totalCycles;
  a.powerMw = figures.powerMw;
  a.area = figures.area;
  a.utilization = report.perf.utilization;
  return a;
}

bool beforeCanonical(const NetworkDesign& a, const NetworkDesign& b) {
  if (a.cost.cycles != b.cost.cycles) return a.cost.cycles < b.cost.cycles;
  if (a.cost.powerMw != b.cost.powerMw) return a.cost.powerMw < b.cost.powerMw;
  if (a.cost.area != b.cost.area) return a.cost.area < b.cost.area;
  if (a.arrayIndex != b.arrayIndex) return a.arrayIndex < b.arrayIndex;
  return a.order < b.order;
}

/// Composes one candidate array's per-layer frontiers, appending the
/// composed frontier residents (as NetworkDesigns) to `out`.
void composeOneArray(const NetworkQuery& query, std::size_t arrayIndex,
                     const std::vector<QueryResult>& layerResults,
                     std::vector<NetworkDesign>* out) {
  const auto& layers = query.network.layers();
  const stt::ArrayConfig& array = query.arrays[arrayIndex];

  for (std::size_t l = 0; l < layers.size(); ++l)
    require(!layerResults[l].frontier.empty(),
            "network '" + query.network.name() + "' layer '" +
                layers[l].name + "' has no realizable design on the " +
                std::to_string(array.rows) + "x" + std::to_string(array.cols) +
                " array");

  // Fold layer by layer through an intermediate frontier. Dominance between
  // partials is preserved by any completion (sum and max are monotone in
  // every axis), so pruning here is exact; equal-cost partials produce
  // equal-cost completions, so collapsing them to the smallest canonical
  // order keeps one canonical representative. std::map keeps the iteration
  // deterministic.
  std::map<std::size_t, Partial> partials;
  partials.emplace(0, Partial{});
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const auto& frontier = layerResults[l].frontier;  // canonically sorted
    ParetoFrontier next;
    std::map<std::size_t, Partial> nextPartials;
    std::vector<std::size_t> evicted;
    for (const auto& [order, partial] : partials) {
      // Orders are re-densified after every fold (below), so this radix
      // step cannot overflow unless the surviving-partials count itself
      // approaches SIZE_MAX / frontier size — guard it anyway.
      TL_CHECK(frontier.empty() ||
                   order <= (std::numeric_limits<std::size_t>::max() -
                             (frontier.size() - 1)) /
                                frontier.size(),
               "network composition order space overflow");
      for (std::size_t j = 0; j < frontier.size(); ++j) {
        const DesignReport& report = frontier[j];
        const auto figures = report.figures();
        ParetoCost cost;
        cost.cycles = partial.cost.cycles +
                      static_cast<double>(report.perf.totalCycles);
        cost.powerMw = std::max(partial.cost.powerMw, figures.powerMw);
        cost.area = std::max(partial.cost.area, figures.area);
        const std::size_t nextOrder = order * frontier.size() + j;
        evicted.clear();
        if (!next.insert({cost, nextOrder}, &evicted)) continue;
        Partial extended;
        extended.cost = cost;
        extended.picks = partial.picks;
        extended.picks.push_back(static_cast<std::uint32_t>(j));
        nextPartials.emplace(nextOrder, std::move(extended));
        for (const std::size_t dead : evicted) nextPartials.erase(dead);
      }
    }
    // Re-densify the canonical orders: the fold's mixed-radix order is the
    // lexicographic order of the picks vectors, which a dense monotone
    // re-index preserves — and keeping orders < |partials| bounds the next
    // fold's radix product far below overflow regardless of model depth.
    partials.clear();
    std::size_t dense = 0;
    for (auto& [order, partial] : nextPartials) {
      (void)order;
      partials.emplace(dense++, std::move(partial));
    }
  }

  const double peCount = static_cast<double>(array.rows * array.cols);
  const double networkMacs = static_cast<double>(query.network.totalMacs());
  for (const auto& [order, partial] : partials) {
    NetworkDesign design;
    design.arrayIndex = arrayIndex;
    design.cost = partial.cost;
    design.cost.utilization =
        partial.cost.cycles > 0.0 && peCount > 0.0
            ? networkMacs / (peCount * partial.cost.cycles)
            : 0.0;
    design.order = order;
    design.layers.reserve(layers.size());
    for (std::size_t l = 0; l < layers.size(); ++l)
      design.layers.push_back(toAssignment(
          layers[l].name, layerResults[l].frontier[partial.picks[l]]));
    out->push_back(std::move(design));
  }
}

}  // namespace

std::vector<stt::ArrayConfig> parseArrayList(const std::string& list,
                                             const stt::ArrayConfig& base) {
  std::vector<stt::ArrayConfig> arrays;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t end = list.find(',', start);
    if (end == std::string::npos) end = list.size();
    const std::string item = list.substr(start, end - start);
    start = end + 1;
    const auto x = item.find('x');
    if (x == std::string::npos)
      fail("bad array-list entry '" + item + "' (expected RxC, e.g. 8x8)");
    // Each side parses as strictly as the --rows/--cols flags ("8x8x8",
    // " 8x8" and "8x0" are all rejected) and takes the same range.
    const std::string entry = "array-list entry '" + item + "'";
    stt::ArrayConfig config = base;
    config.rows = wire::parseIntFlag((entry + " rows").c_str(),
                                     item.substr(0, x), wire::kArraySideRange);
    config.cols = wire::parseIntFlag((entry + " cols").c_str(),
                                     item.substr(x + 1), wire::kArraySideRange);
    arrays.push_back(config);
  }
  return arrays;
}

ExploreQuery layerQuery(const NetworkQuery& query,
                        const stt::ArrayConfig& array,
                        const tensor::NetworkLayer& layer) {
  ExploreQuery q(layer.algebra);
  q.array = array;
  q.objective = query.objective;
  q.backend = query.backend;
  q.dataWidth = query.dataWidth;
  q.fpga = query.fpga;
  q.enumeration = query.enumeration;
  if (layer.allowAllUnicast) q.enumeration.dropAllUnicast = false;
  return q;
}

NetworkResult composeLayerFrontiers(
    const NetworkQuery& query,
    const std::vector<std::vector<QueryResult>>& layerResults) {
  require(!query.arrays.empty(),
          "network query needs at least one candidate array");
  TL_CHECK(layerResults.size() == query.arrays.size(),
           "layerResults must align with the candidate arrays");
  const std::size_t layerCount = query.network.layerCount();

  NetworkResult result;
  std::vector<NetworkDesign> candidates;
  for (std::size_t a = 0; a < query.arrays.size(); ++a) {
    TL_CHECK(layerResults[a].size() == layerCount,
             "layerResults must hold one QueryResult per network layer");
    composeOneArray(query, a, layerResults[a], &candidates);
    for (std::size_t l = 0; l < layerCount; ++l) {
      const QueryResult& r = layerResults[a][l];
      NetworkLayerStats stats;
      stats.arrayIndex = a;
      stats.layer = query.network.layers()[l].name;
      stats.designs = r.designs;
      stats.frontierSize = r.frontier.size();
      stats.cache = r.cache;
      result.designs += r.designs;
      result.layers.push_back(std::move(stats));
    }
  }

  // Cross-array Pareto filter with the canonical tie order (cost, then
  // arrayIndex, then composition order): equal-cost designs collapse to the
  // canonically first, dominated designs drop. The candidate list is the
  // union of small per-array frontiers, so the quadratic scan is cheap.
  std::sort(candidates.begin(), candidates.end(), beforeCanonical);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    bool keep = true;
    for (std::size_t j = 0; j < candidates.size() && keep; ++j) {
      if (j == i) continue;
      if (dominates(candidates[j].cost, candidates[i].cost)) keep = false;
    }
    if (keep && !result.frontier.empty() &&
        equalCost(result.frontier.back().cost, candidates[i].cost))
      keep = false;  // canonical collapse: the earlier-sorted twin stays
    if (keep) result.frontier.push_back(std::move(candidates[i]));
  }

  std::vector<ParetoEntry> entries;
  entries.reserve(result.frontier.size());
  for (std::size_t i = 0; i < result.frontier.size(); ++i)
    entries.push_back({result.frontier[i].cost, i});
  if (const auto best = pickBest(entries, query.objective))
    result.best = result.frontier[*best];
  return result;
}

NetworkExplorer::NetworkExplorer(ExplorationService& service)
    : service_(&service) {}

NetworkExplorer::NetworkExplorer(ServiceOptions options)
    : owned_(std::make_unique<ExplorationService>(options)),
      service_(owned_.get()) {}

NetworkExplorer::~NetworkExplorer() = default;

ExplorationService& NetworkExplorer::service() { return *service_; }

NetworkResult NetworkExplorer::explore(const NetworkQuery& query) {
  require(!query.arrays.empty(),
          "network query needs at least one candidate array");
  std::vector<ExploreQuery> batch;
  batch.reserve(query.arrays.size() * query.network.layerCount());
  for (const stt::ArrayConfig& array : query.arrays)
    for (const tensor::NetworkLayer& layer : query.network.layers())
      batch.push_back(layerQuery(query, array, layer));

  std::vector<QueryResult> flat = service_->runBatch(batch);

  std::vector<std::vector<QueryResult>> shaped(query.arrays.size());
  std::size_t cursor = 0;
  for (std::size_t a = 0; a < query.arrays.size(); ++a) {
    shaped[a].reserve(query.network.layerCount());
    for (std::size_t l = 0; l < query.network.layerCount(); ++l)
      shaped[a].push_back(std::move(flat[cursor++]));
  }
  return composeLayerFrontiers(query, shaped);
}

}  // namespace tensorlib::driver

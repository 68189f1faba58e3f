// explore-cold: cold NetworkExplorer::explore of five builtin models at
// maxEntry 2 on the 8x8 and 16x16 ASIC arrays. Each op gets a fresh
// service (min(4, nproc) threads) and a cleared candidate memo, so
// enumeration, bounds, evaluation, pruning and the thread pool do the work.
#include <malloc.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>

#include "bench.hpp"
#include "cost/backend.hpp"
#include "driver/network_explorer.hpp"
#include "inputs.hpp"
#include "sim/perf.hpp"
#include "stt/enumerate.hpp"
#include "support/error.hpp"
#include "tensor/network.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace tensorlib;

constexpr int kMaxEntry = 2;
constexpr const char* kArrays = "8x8,16x16";
/// One round (five models) takes about this long on a 4-core x86 host;
/// a run does round(seconds / kRoundSeconds) rounds, at least one, so the
/// op count is fixed by --seconds.
constexpr double kRoundSeconds = 10.0;
/// Specs timed by the cost.eval_us probe, from this model's first layer.
constexpr std::size_t kCostSample = 256;
constexpr const char* kCostModel = "resnet-deep";

driver::NetworkQuery coldQuery(const tensor::NetworkSpec& network) {
  driver::NetworkQuery query(network);
  query.arrays = driver::parseArrayList(kArrays, stt::ArrayConfig{});
  query.enumeration.maxEntry = kMaxEntry;
  return query;
}

driver::ServiceOptions serviceOptions(std::size_t threads) {
  driver::ServiceOptions options;
  options.threads = threads;
  return options;
}

std::vector<driver::ExploreQuery> layerBatch(const driver::NetworkQuery& query) {
  std::vector<driver::ExploreQuery> batch;
  for (const stt::ArrayConfig& array : query.arrays)
    for (const tensor::NetworkLayer& layer : query.network.layers())
      batch.push_back(driver::layerQuery(query, array, layer));
  return batch;
}

driver::NetworkResult compose(const driver::NetworkQuery& query,
                              std::vector<driver::QueryResult> flat) {
  std::vector<std::vector<driver::QueryResult>> shaped(query.arrays.size());
  std::size_t cursor = 0;
  for (auto& perArray : shaped)
    for (std::size_t l = 0; l < query.network.layerCount(); ++l)
      perArray.push_back(std::move(flat[cursor++]));
  return driver::composeLayerFrontiers(query, shaped);
}

/// The frontier's value set: (cycles, power, area, utilization) per design.
using ValueSet = std::vector<std::array<double, 4>>;

ValueSet valueSet(const driver::NetworkResult& r) {
  ValueSet values;
  for (const auto& d : r.frontier)
    values.push_back({d.cost.cycles, d.cost.powerMw, d.cost.area, d.cost.utilization});
  return values;
}

/// Structural checks every op gets: a non-empty frontier in canonical cycle
/// order with no dominated member, and a winner taken from it.
bool wellFormed(const driver::NetworkResult& r) {
  if (r.frontier.empty() || !r.best || r.designs == 0) return false;
  bool winnerOnFrontier = false;
  for (std::size_t i = 0; i < r.frontier.size(); ++i) {
    const auto& d = r.frontier[i];
    if (i && d.cost.cycles < r.frontier[i - 1].cost.cycles) return false;
    for (const auto& other : r.frontier)
      if (driver::dominates(other.cost, d.cost)) return false;
    if (d.arrayIndex == r.best->arrayIndex && d.order == r.best->order)
      winnerOnFrontier = true;
  }
  return winnerOnFrontier;
}

struct ColdState {
  std::vector<std::string> models;
  std::vector<driver::NetworkQuery> queries;
};

ColdState setUp(const RunConfig& config) {
  ColdState state;
  state.models = exploreColdModels(config.seed);
  for (const std::string& name : state.models)
    state.queries.push_back(coldQuery(*tensor::workloads::findNetwork(name)));
  // Warm-up: one small exploration pages in the code, the allocator arenas
  // and the pool threads; then the memo is cleared so ops start cold.
  driver::NetworkQuery warm(*tensor::workloads::findNetwork("mlp-3"));
  warm.arrays = {stt::ArrayConfig{4, 4, 320.0, 32.0, 2}};
  {
    driver::NetworkExplorer explorer(serviceOptions(config.threads));
    (void)explorer.explore(warm);
  }
  stt::clearCandidateCache();
  return state;
}

/// Layer counters summed over the traced ops.
struct ColdLayers {
  double candidates = 0, specs = 0, designs = 0, hits = 0, misses = 0,
         evictions = 0, pruned = 0, memoHits = 0, frontierPoints = 0;
  double lastBatchMs = 0;  ///< the latest op's N-thread batch
  double batchNtMs = 0, batch1tMs = 0;  ///< ops that got the 1-thread probe
};

/// One traced op: the NetworkExplorer::explore steps, each in its span.
driver::NetworkResult tracedOp(const RunConfig& config,
                               const driver::NetworkQuery& query, int op,
                               ColdLayers* layers) {
  stt::clearCandidateCache();
  Span span("network.explore", op);
  std::unique_ptr<driver::ExplorationService> service;
  {
    Span s("service.start");
    service = std::make_unique<driver::ExplorationService>(
        serviceOptions(config.threads));
  }
  {
    Span s("stt.candidates");
    layers->candidates +=
        static_cast<double>(stt::candidateTransformMatrices(query.enumeration)->size());
  }
  std::vector<driver::QueryResult> flat;
  const auto batchStart = Clock::now();
  {
    Span s("service.batch");
    flat = service->runBatch(layerBatch(query));
  }
  layers->lastBatchMs = msSince(batchStart);
  driver::NetworkResult result;
  {
    Span s("network.compose");
    result = compose(query, std::move(flat));
  }
  const driver::CacheStats stats = service->cacheStats();
  layers->hits += static_cast<double>(stats.hits);
  layers->misses += static_cast<double>(stats.misses);
  layers->evictions += static_cast<double>(stats.evictions);
  layers->memoHits += static_cast<double>(stats.mappings.hits);
  layers->designs += static_cast<double>(result.designs);
  layers->frontierPoints += static_cast<double>(result.frontier.size());
  for (const auto& s : result.layers) layers->pruned += static_cast<double>(s.cache.pruned);
  return result;
}

/// Probe after a first-round traced op: the same batch on a 1-thread
/// service; returns its frontier value set.
ValueSet singleThreadProbe(const driver::NetworkQuery& query, ColdLayers* layers) {
  layers->batchNtMs += layers->lastBatchMs;
  driver::ExplorationService single(serviceOptions(1));
  std::vector<driver::QueryResult> flat;
  const auto start = Clock::now();
  {
    Span s("service.batch_1t");
    flat = single.runBatch(layerBatch(query));
  }
  layers->batch1tMs += msSince(start);
  return valueSet(compose(query, std::move(flat)));
}

/// cost.eval_us: estimatePerformance + CostBackend::evaluate per design on
/// an evenly spaced sample of `query`'s first-layer design space.
double costEvalUs(const driver::NetworkQuery& query) {
  const driver::ExploreQuery q =
      driver::layerQuery(query, query.arrays.back(), query.network.layers()[0]);
  const std::vector<stt::DataflowSpec> specs =
      stt::enumerateDesignSpace(q.algebra, q.enumeration);
  const auto backend = cost::makeAsicBackend(q.dataWidth);
  const std::size_t step = std::max<std::size_t>(1, specs.size() / kCostSample);
  std::size_t evaluated = 0;
  double checksum = 0;  // keeps the results live; also proves work happened
  const auto start = Clock::now();
  {
    Span s("cost.eval");
    for (std::size_t i = 0; i < specs.size() && evaluated < kCostSample; i += step) {
      checksum += static_cast<double>(
          sim::estimatePerformance(specs[i], q.array).totalCycles);
      checksum += backend->evaluate(specs[i], q.array).figures.powerMw;
      ++evaluated;
    }
  }
  TL_CHECK(checksum > 0, "cost probe evaluated nothing");
  return evaluated ? 1e3 * msSince(start) / static_cast<double>(evaluated) : 0.0;
}

}  // namespace

RunResult runExploreCold(const RunConfig& config) {
  RunResult run;
  ColdState state;
  timeSetups([&] { state = setUp(config); }, &run.phase.setupS);

  // Timed phase: whole rounds over every model.
  std::map<std::string, ValueSet> firstValues;
  const auto rounds = static_cast<std::size_t>(
      std::max(1.0, std::round(config.seconds / kRoundSeconds)));
  for (std::size_t round = 0; round < rounds; ++round) {
    const auto roundStart = Clock::now();
    for (std::size_t m = 0; m < state.queries.size(); ++m) {
      stt::clearCandidateCache();
      const auto start = Clock::now();
      driver::NetworkResult result;
      bool ok = true;
      try {
        driver::NetworkExplorer explorer(serviceOptions(config.threads));
        result = explorer.explore(state.queries[m]);
      } catch (const std::exception& e) {
        ok = false;
        run.notes.push_back("op failed: " + state.models[m] + ": " + e.what());
      }
      run.phase.opMs.push_back(msSince(start));
      run.phase.opModel.push_back(state.models[m]);
      // Hand the op's freed heap back so every op starts from the same
      // footprint and peak_rss_mb is the largest single op, not an
      // order-dependent sum of retained arenas.
      malloc_trim(0);
      ok = ok && wellFormed(result);
      if (ok) {
        const auto [it, fresh] = firstValues.emplace(state.models[m], valueSet(result));
        if (fresh) run.phase.winnerCycles += result.best->cost.cycles;
        else ok = it->second == valueSet(result);
        run.phase.designs += static_cast<double>(result.designs);
      }
      run.ops.record(ok);
      if (round == 0)
        run.notes.push_back(state.models[m] + " " + std::to_string(run.phase.opMs.back()) +
                            " ms, " + std::to_string(result.designs) + " designs");
    }
    run.phase.roundS.push_back(msSince(roundStart) / 1e3);
  }
  run.phase.peakRssMb = peakRssMb();
  run.notes.push_back("rounds " + std::to_string(rounds) + " of " +
                      std::to_string(state.queries.size()) + " models");
  if (!config.trace) return run;

  // Traced pass over the same ops, then the probes.
  setTracing(true);
  ColdLayers layers;
  double tracedMs = 0;
  int op = 0;
  for (std::size_t r = 0; r < rounds; ++r)
    for (std::size_t m = 0; m < state.queries.size(); ++m) {
      const auto start = Clock::now();
      bool ok = true;
      ValueSet traced;
      try {
        traced = valueSet(tracedOp(config, state.queries[m], op++, &layers));
      } catch (const std::exception& e) {
        ok = false;
        run.notes.push_back("traced op failed: " + state.models[m] + ": " + e.what());
      }
      tracedMs += msSince(start);
      const auto it = firstValues.find(state.models[m]);
      ok = ok && it != firstValues.end() && it->second == traced;
      // Probe after the op (outside its span): enumeration alone.
      layers.specs += enumerateDistinct(layerBatch(state.queries[m]));
      // Frontier value sets must not depend on the thread count.
      if (r == 0) ok = ok && singleThreadProbe(state.queries[m], &layers) == traced;
      run.ops.record(ok);
      malloc_trim(0);  // the next op starts from a trimmed heap, as untraced
    }
  const auto costModel = std::find(state.models.begin(), state.models.end(), kCostModel);
  const double costUs = costEvalUs(state.queries[costModel - state.models.begin()]);
  const auto spans = recordedSpans();

  double untracedMs = 0;
  for (const double ms : run.phase.opMs) untracedMs += ms;
  const double ops = static_cast<double>(op);
  const double batchMs = spanTotalMs(spans, "service.batch");
  const double enumerateMs = spanTotalMs(spans, "stt.enumerate");
  run.layers = {
      {"stt.candidates_ms", spanTotalMs(spans, "stt.candidates") / ops},
      {"stt.candidates", layers.candidates / ops},
      {"stt.enumerate_ms", enumerateMs / ops},
      {"stt.specs", layers.specs / ops},
      {"service.batch_ms", batchMs / ops},
      {"service.self_ms", (batchMs - enumerateMs) / ops},
      {"service.designs", layers.designs / ops},
      {"service.cache_hits", layers.hits / ops},
      {"service.cache_misses", layers.misses / ops},
      {"service.cache_evictions", layers.evictions / ops},
      {"service.pruned", layers.pruned / ops},
      {"service.prune_ratio", layers.designs > 0 ? layers.pruned / layers.designs : 0},
      {"service.mapping_memo_hits", layers.memoHits / ops},
      {"service.parallel_speedup",
       layers.batchNtMs > 0 ? layers.batch1tMs / layers.batchNtMs : 0},
      {"cost.eval_us", costUs},
      {"network.compose_ms", spanTotalMs(spans, "network.compose") / ops},
      {"network.frontier_points", layers.frontierPoints / ops},
      {"trace.coverage", opCoverage(spans)},
      {"trace.overhead_pct", overheadPct(untracedMs, tracedMs)},
  };
  return run;
}

}  // namespace perfbench

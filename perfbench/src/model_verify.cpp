// model-verify: verify::checkModel (1 thread, 4x4 array, maxEntry 1) on the
// six builtin models plus seed-drawn verify::randomNetwork models. Each op
// is one verdict: explore, stitch the winners into one top, run it on the
// compiled RTL tape and compare it with the composed dense reference.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>

#include "arch/model.hpp"
#include "bench.hpp"
#include "driver/network_explorer.hpp"
#include "hwir/verilog.hpp"
#include "inputs.hpp"
#include "support/error.hpp"
#include "tensor/network.hpp"
#include "tensor/reference.hpp"
#include "trace.hpp"
#include "verify/model_conformance.hpp"
#include "verify/network_fuzz.hpp"

namespace perfbench {

namespace {

using namespace tensorlib;

/// One round (six builtins plus three random networks) takes about this long on
/// a 4-core x86 host; a run does round(seconds / kRoundSeconds) rounds, at
/// least one, so the op count is fixed by --seconds.
constexpr double kRoundSeconds = 3.0;

tensor::NetworkSpec networkOf(const ModelItem& item) {
  if (!item.builtin.empty()) return *tensor::workloads::findNetwork(item.builtin);
  return verify::randomNetwork(item.networkSeed);
}

verify::ModelConformanceOptions checkOptions(const RunConfig& config) {
  verify::ModelConformanceOptions options;
  options.threads = 1;
  options.dataSeed = modelVerifyDataSeed(config.seed);
  return options;
}

/// The network query checkModel explores for `network`.
driver::NetworkQuery verifyQuery(const tensor::NetworkSpec& network,
                                 const verify::ModelConformanceOptions& options) {
  driver::NetworkQuery query(network);
  query.arrays = {options.array};
  query.enumeration = options.enumeration;
  query.dataWidth = options.dataWidth;
  return query;
}

/// checkModel's batch: one query per layer on the shared array.
std::vector<driver::ExploreQuery> layerBatch(
    const tensor::NetworkSpec& network, const verify::ModelConformanceOptions& options) {
  const driver::NetworkQuery query = verifyQuery(network, options);
  std::vector<driver::ExploreQuery> batch;
  for (const auto& layer : network.layers())
    batch.push_back(driver::layerQuery(query, options.array, layer));
  return batch;
}

/// What checkModel's exploration step produced.
struct Exploration {
  std::vector<driver::QueryResult> results;  ///< per layer
  driver::NetworkResult composed;
  driver::CacheStats cache;
};

/// checkModel's exploration step: the layer batch on an owned service, then
/// the composed network frontier (spans service.batch, network.compose).
Exploration explore(const tensor::NetworkSpec& network,
                    const verify::ModelConformanceOptions& options) {
  Exploration e;
  {
    Span s("service.batch");
    driver::ServiceOptions serviceOptions;
    serviceOptions.threads = options.threads;
    driver::ExplorationService service(serviceOptions);
    e.results = service.runBatch(layerBatch(network, options));
    e.cache = service.cacheStats();
  }
  {
    Span s("network.compose");
    e.composed = driver::composeLayerFrontiers(verifyQuery(network, options), {e.results});
  }
  TL_CHECK(e.composed.best.has_value(), "empty network frontier for " + network.name());
  return e;
}

/// checkModel's per-layer data seed (splitmix of the run's data seed and
/// the layer index), so the traced pipeline runs on the same tensors.
std::uint64_t layerDataSeed(std::uint64_t base, std::size_t layer) {
  std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * (layer + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// What a verdict is compared on across iterations and engines.
struct Verdict {
  bool pass = false;
  std::int64_t cycles = 0;
  std::int64_t stalls = 0;
  std::vector<std::string> used;  ///< stitched dataflow label per layer

  bool operator==(const Verdict& o) const {
    return pass == o.pass && cycles == o.cycles && stalls == o.stalls && used == o.used;
  }
};

Verdict verdictOf(const verify::ModelConformanceReport& report) {
  Verdict v{report.pass(), report.cyclesRun, report.stallSlots, {}};
  for (const auto& pick : report.picks) v.used.push_back(pick.used);
  return v;
}

/// Layer counters summed over the traced ops.
struct VerifyLayers {
  double specs = 0, designs = 0, hits = 0, misses = 0, evictions = 0, pruned = 0,
         memoHits = 0, frontierPoints = 0, rejects = 0, bufferElems = 0,
         stallSlots = 0, simCycles = 0, netlistNodes = 0, predicted = 0,
         errorPct = 0, verilogBytes = 0, verilogModels = 0;
};

/// One traced op: checkModel's steps through the public API, each in its
/// span. Returns the verdict and leaves the stitched top in `top`.
Verdict tracedOp(const tensor::NetworkSpec& network,
                 const verify::ModelConformanceOptions& options, int op,
                 VerifyLayers* layers, std::optional<arch::ModelAccelerator>* top) {
  Span span("verify.model", op);
  const Exploration explored = explore(network, options);
  const driver::NetworkResult& composed = explored.composed;
  layers->hits += static_cast<double>(explored.cache.hits);
  layers->misses += static_cast<double>(explored.cache.misses);
  layers->evictions += static_cast<double>(explored.cache.evictions);
  layers->memoHits += static_cast<double>(explored.cache.mappings.hits);
  layers->designs += static_cast<double>(composed.designs);
  layers->frontierPoints += static_cast<double>(composed.frontier.size());
  for (const auto& s : composed.layers) layers->pruned += static_cast<double>(s.cache.pruned);

  arch::ModelBuildOptions build;
  build.array = options.array;
  build.hw.dataWidth = options.dataWidth;
  build.topName = network.name();
  std::vector<std::pair<std::string, stt::DataflowSpec>> layerSpecs;
  Verdict verdict;
  {
    Span s("arch.generate");
    for (std::size_t l = 0; l < network.layers().size(); ++l) {
      const std::string winner = composed.best->layers[l].dataflow;
      std::vector<const stt::DataflowSpec*> candidates;
      for (const auto& design : explored.results[l].frontier)
        if (design.spec.label() == winner) candidates.push_back(&design.spec);
      for (const auto& design : explored.results[l].frontier)
        if (design.spec.label() != winner) candidates.push_back(&design.spec);
      const stt::DataflowSpec* picked = nullptr;
      for (const stt::DataflowSpec* spec : candidates) {
        try {
          (void)arch::generateAccelerator(*spec, options.array, build.hw);
          picked = spec;
          break;
        } catch (const Error&) {
          layers->rejects += 1;
        }
      }
      TL_CHECK(picked != nullptr, "no realizable design for layer " +
                                      network.layers()[l].name);
      verdict.used.push_back(picked->label());
      layerSpecs.emplace_back(network.layers()[l].name, *picked);
    }
  }
  {
    Span s("arch.stitch");
    top->emplace(arch::buildModelAccelerator(layerSpecs, build));
  }
  const arch::ModelAccelerator& model = **top;
  std::vector<tensor::TensorEnv> envs;
  {
    Span s("tensor.inputs");
    for (std::size_t l = 0; l < model.layers.size(); ++l)
      envs.push_back(tensor::makeRandomInputs(model.layers[l].acc.spec.algebra(),
                                              layerDataSeed(options.dataSeed, l)));
  }
  std::vector<tensor::DenseTensor> golden;
  {
    Span s("tensor.reference");
    golden = arch::composedReference(model, envs);
  }
  arch::ModelRunResult rtl;
  {
    Span s("hwir.rtl");
    rtl = arch::runModelAccelerator(model, envs);
  }
  {
    Span s("verify.compare");
    verdict.pass = rtl.outputs.size() == golden.size();
    for (std::size_t l = 0; verdict.pass && l < golden.size(); ++l)
      verdict.pass = golden[l].raw() == rtl.outputs[l].raw();
  }
  verdict.cycles = rtl.cyclesRun;
  verdict.stalls = rtl.stallSlots;
  for (const auto& buffer : model.buffers)
    layers->bufferElems += static_cast<double>(buffer.capacity);
  layers->stallSlots += static_cast<double>(rtl.stallSlots);
  layers->simCycles += static_cast<double>(rtl.cyclesRun);
  layers->netlistNodes += static_cast<double>(model.top.size());
  layers->predicted += composed.best->cost.cycles;
  if (rtl.cyclesRun > 0)
    layers->errorPct += 100.0 *
                        std::abs(static_cast<double>(rtl.cyclesRun) -
                                 composed.best->cost.cycles) /
                        static_cast<double>(rtl.cyclesRun);
  return verdict;
}

/// Probes after a traced op (outside its span): enumeration alone for the
/// op's distinct algebras, the planner replay of the stitched schedule, and
/// Verilog emission of the stitched top (once per model).
void probeAfterOp(const tensor::NetworkSpec& network,
                  const verify::ModelConformanceOptions& options,
                  const arch::ModelAccelerator& model, bool emitVerilog,
                  VerifyLayers* layers) {
  layers->specs += enumerateDistinct(layerBatch(network, options));
  {
    Span s("arch.plan");
    std::vector<std::int64_t> capacities;
    for (const auto& buffer : model.buffers) capacities.push_back(buffer.capacity);
    (void)arch::planModelSchedule(model, capacities);
  }
  if (emitVerilog) {
    Span s("hwir.verilog");
    layers->verilogBytes += static_cast<double>(hwir::emitVerilog(model.top).size());
    layers->verilogModels += 1;
  }
}

}  // namespace

RunResult runModelVerify(const RunConfig& config) {
  RunResult run;
  const verify::ModelConformanceOptions options = checkOptions(config);
  std::vector<ModelItem> round0;
  timeSetups(
      [&] {
        round0 = modelVerifyRound(config.seed, 0);
        for (const ModelItem& item : round0) (void)networkOf(item);
        // Warm-up: one small verdict pages in the code and the allocator.
        (void)verify::checkModel(*tensor::workloads::findNetwork("mlp-3"), options);
      },
      &run.phase.setupS);

  // Timed phase: whole rounds.
  std::vector<tensor::NetworkSpec> opNetworks;
  std::map<std::string, Verdict> firstVerdicts;
  const auto rounds = static_cast<std::size_t>(
      std::max(1.0, std::round(config.seconds / kRoundSeconds)));
  for (std::size_t round = 0; round < rounds; ++round) {
    const auto roundStart = Clock::now();
    const std::vector<ModelItem> items =
        round == 0 ? round0 : modelVerifyRound(config.seed, round);
    for (const ModelItem& item : items) {
      const tensor::NetworkSpec network = networkOf(item);
      const auto start = Clock::now();
      const verify::ModelConformanceReport report = verify::checkModel(network, options);
      run.phase.opMs.push_back(msSince(start));
      run.phase.opModel.push_back(network.name());
      malloc_trim(0);  // every op starts from the same heap footprint
      const Verdict verdict = verdictOf(report);
      const auto [it, fresh] = firstVerdicts.emplace(network.name(), verdict);
      const bool ok = report.pass() && (fresh || it->second == verdict);
      if (!ok) run.notes.push_back("op failed: " + report.summary());
      run.ops.record(ok);
      opNetworks.push_back(network);
    }
    run.phase.roundS.push_back(msSince(roundStart) / 1e3);
  }
  run.phase.peakRssMb = peakRssMb();

  // Outside the timed phase: checkModel's exploration step, replayed once
  // per model, gives the design points each verdict handled and the
  // builtin models' network winners (both deterministic).
  struct Explored {
    double designs = 0, winnerCycles = 0;
  };
  std::map<std::string, Explored> exploredOf;
  std::int64_t stitchedCycles = 0;
  for (const tensor::NetworkSpec& network : opNetworks) {
    const auto [it, fresh] = exploredOf.try_emplace(network.name());
    if (fresh) {
      const Exploration e = explore(network, options);
      it->second = {static_cast<double>(e.composed.designs), e.composed.best->cost.cycles};
      if (tensor::workloads::findNetwork(network.name()) != nullptr) {
        run.phase.winnerCycles += it->second.winnerCycles;
        stitchedCycles += firstVerdicts[network.name()].cycles;
      }
    }
    run.phase.designs += it->second.designs;
  }
  run.notes.push_back("stitched_cycles " + std::to_string(stitchedCycles) +
                      " cycles (summed cyclesRun of the builtin models' stitched tops)");
  std::string excluded;
  for (const std::uint64_t networkSeed : kKnownFailingNetworkSeeds)
    excluded += " " + std::to_string(networkSeed);
  run.notes.push_back("known-failing network seeds kept out of the draw:" + excluded);
  if (!config.trace) return run;

  // Traced pass over the same ops, then the probes.
  setTracing(true);
  VerifyLayers layers;
  double tracedMs = 0, untracedMs = 0;
  std::set<std::string> emitted;
  for (std::size_t op = 0; op < opNetworks.size(); ++op) {
    const tensor::NetworkSpec& network = opNetworks[op];
    untracedMs += run.phase.opMs[op];
    std::optional<arch::ModelAccelerator> top;
    const auto start = Clock::now();
    bool ok = true;
    try {
      const Verdict traced =
          tracedOp(network, options, static_cast<int>(op), &layers, &top);
      ok = traced.pass && traced == firstVerdicts[network.name()];
    } catch (const std::exception& e) {
      ok = false;
      run.notes.push_back("traced op failed: " + network.name() + ": " + e.what());
    }
    tracedMs += msSince(start);
    if (top) probeAfterOp(network, options, *top, emitted.insert(network.name()).second,
                          &layers);
    run.ops.record(ok);
    malloc_trim(0);  // the next op starts from a trimmed heap, as untraced
  }
  const auto spans = recordedSpans();
  const double ops = static_cast<double>(opNetworks.size());
  const double batchMs = spanTotalMs(spans, "service.batch");
  const double enumerateMs = spanTotalMs(spans, "stt.enumerate");
  const double rtlMs = spanTotalMs(spans, "hwir.rtl");
  const double models = std::max(1.0, layers.verilogModels);
  run.layers = {
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
      {"network.compose_ms", spanTotalMs(spans, "network.compose") / ops},
      {"network.frontier_points", layers.frontierPoints / ops},
      {"arch.generate_ms", spanTotalMs(spans, "arch.generate") / ops},
      {"arch.generate_rejects", layers.rejects / ops},
      {"arch.stitch_ms", spanTotalMs(spans, "arch.stitch") / ops},
      {"arch.plan_ms", spanTotalMs(spans, "arch.plan") / ops},
      {"arch.buffer_elems", layers.bufferElems / ops},
      {"arch.stall_slots", layers.stallSlots / ops},
      {"tensor.reference_ms", spanTotalMs(spans, "tensor.reference") / ops},
      {"hwir.rtl_ms", rtlMs / ops},
      {"hwir.sim_cycles", layers.simCycles / ops},
      {"hwir.cycles_per_s", rtlMs > 0 ? layers.simCycles / (rtlMs / 1e3) : 0},
      {"hwir.netlist_nodes", layers.netlistNodes / ops},
      {"hwir.verilog_ms", spanTotalMs(spans, "hwir.verilog") / models},
      {"hwir.verilog_bytes", layers.verilogBytes / models},
      {"verify.check_ms", untracedMs / ops},
      {"sim.predicted_cycles", layers.predicted / ops},
      {"sim.cycle_error_pct", layers.errorPct / ops},
      {"stitched_cycles", static_cast<double>(stitchedCycles)},
      {"trace.coverage", opCoverage(spans)},
      {"trace.overhead_pct", overheadPct(untracedMs, tracedMs)},
  };
  return run;
}

}  // namespace perfbench

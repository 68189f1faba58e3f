// network_explorer: map a whole multi-layer model onto one shared PE array.
//
//   network_explorer --model resnet-block
//   network_explorer --file examples/resnet_block.jsonl --arrays 8x8,16x16
//   network_explorer --model attention-block --backend fpga --objective power
//   network_explorer --list-models
//
// Runs every (candidate array, layer) pair as ONE ExplorationService batch
// (shared evaluation cache, lower-bound pruning, one tile search per
// mapping class), then composes the per-layer Pareto frontiers under the
// shared-array execution model: network cycles = sum over layers, network
// power/area = max over the chosen per-layer designs. Prints the network
// frontier with each design's per-layer dataflow assignment, the objective
// winner, and the service cache stats (repeated layer shapes show up as
// cache hits; the mappings=[...] counters are tile searches run and
// reused). Exit codes: 0 success, 1 exploration failure, 2 usage or input
// errors (including a count flag that is not plain digits within its cap,
// and an array or datapath flag outside the range its request field takes).
// docs/PROTOCOL.md documents the JSONL model format.
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "driver/network_explorer.hpp"
#include "driver/wire.hpp"
#include "support/error.hpp"
#include "tensor/network.hpp"

namespace {

using namespace tensorlib;
namespace wire = driver::wire;

int usage() {
  std::printf(
      "usage: network_explorer (--model NAME | --file MODEL.jsonl)\n"
      "                        [--arrays RxC[,RxC...]] [--rows N] [--cols N]\n"
      "                        [--bandwidth-gbps F] [--frequency-mhz F]\n"
      "                        [--data-bytes N] [--data-width N]\n"
      "                        [--objective performance|power|energy-delay]\n"
      "                        [--backend asic|fpga] [--max-entry N]\n"
      "                        [--threads N] [--max-frontier N]\n"
      "                        [--list-models]\n"
      "Explores every layer of the model on each candidate array through\n"
      "one batched, cached service run and composes the network frontier.\n");
  return 2;
}

std::string arrayName(const stt::ArrayConfig& a) {
  return std::to_string(a.rows) + "x" + std::to_string(a.cols);
}

void printDesign(const driver::NetworkQuery& query,
                 const driver::NetworkDesign& design, const char* prefix) {
  std::printf("%s array %-7s cycles %-10.0f power %8.2f mW  area %8.4f  util %5.1f%%\n",
              prefix, arrayName(query.arrays[design.arrayIndex]).c_str(),
              design.cost.cycles, design.cost.powerMw, design.cost.area,
              100.0 * design.cost.utilization);
  for (const auto& layer : design.layers)
    std::printf("      %-12s -> %-14s cycles %-10lld util %5.1f%%\n",
                layer.layer.c_str(), layer.dataflow.c_str(),
                static_cast<long long>(layer.cycles),
                100.0 * layer.utilization);
}

}  // namespace

int main(int argc, char** argv) {
  std::string model, file, arraysArg;
  stt::ArrayConfig base;
  driver::Objective objective = driver::Objective::Performance;
  cost::BackendKind backend = cost::BackendKind::Asic;
  int dataWidth = 16, maxEntry = 1;
  std::size_t threads = 0, maxFrontier = 16;
  bool listModels = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) { usage(); std::exit(2); }
        return argv[++i];
      };
      auto count = [&](std::size_t max =
                           std::numeric_limits<std::size_t>::max()) {
        const auto v = wire::parseCount(next(), max);
        if (!v) { usage(); std::exit(2); }
        return *v;
      };
      if (a == "--model") model = next();
      else if (a == "--file") file = next();
      else if (a == "--arrays") arraysArg = next();
      else if (a == "--rows")
        base.rows = wire::parseIntFlag("--rows", next(), wire::kArraySideRange);
      else if (a == "--cols")
        base.cols = wire::parseIntFlag("--cols", next(), wire::kArraySideRange);
      else if (a == "--bandwidth-gbps")
        base.bandwidthGBps =
            wire::parsePositiveFlag("--bandwidth-gbps", next());
      else if (a == "--frequency-mhz")
        base.frequencyMHz = wire::parsePositiveFlag("--frequency-mhz", next());
      else if (a == "--data-bytes")
        base.dataBytes =
            wire::parseIntFlag("--data-bytes", next(), wire::kDataBytesRange);
      else if (a == "--data-width")
        dataWidth = static_cast<int>(
            wire::parseIntFlag("--data-width", next(), wire::kDataWidthRange));
      else if (a == "--max-entry")
        maxEntry = static_cast<int>(
            wire::parseIntFlag("--max-entry", next(), wire::kMaxEntryRange));
      else if (a == "--threads") threads = count(wire::kMaxThreads);
      else if (a == "--max-frontier") maxFrontier = count();
      else if (a == "--objective") {
        const auto o = driver::parseObjective(next());
        if (!o) return usage();
        objective = *o;
      } else if (a == "--backend") {
        const auto b = cost::parseBackendKind(next());
        if (!b) return usage();
        backend = *b;
      } else if (a == "--list-models") listModels = true;
      else return usage();
    }
  } catch (const Error& e) {  // a flag value malformed or out of range
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage();
  }

  if (listModels) {
    for (const auto& n : tensor::workloads::builtinNetworks())
      std::printf("%s", n.str().c_str());
    return 0;
  }
  if (model.empty() == file.empty()) return usage();  // exactly one source

  // Model and array-list resolution failures are input errors (exit 2,
  // like usage); failures during exploration below are runtime errors
  // (exit 1).
  std::optional<tensor::NetworkSpec> network;
  std::vector<stt::ArrayConfig> arrays{base};
  try {
    if (!arraysArg.empty()) arrays = driver::parseArrayList(arraysArg, base);
    if (!file.empty()) {
      network = tensor::workloads::loadNetworkJsonl(file);
    } else {
      const auto* builtin = tensor::workloads::findNetwork(model);
      if (!builtin)
        fail("unknown model '" + model + "' (try --list-models)");
      network = *builtin;
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  try {
    driver::NetworkQuery query(*network);
    query.arrays = arrays;
    query.objective = objective;
    query.backend = backend;
    query.dataWidth = dataWidth;
    query.enumeration.maxEntry = maxEntry;

    driver::ServiceOptions options;
    options.threads = threads;
    driver::NetworkExplorer explorer(options);

    std::printf("%s", network->str().c_str());
    const driver::NetworkResult result = explorer.explore(query);

    std::printf("\nper-layer exploration (%zu queries, %zu design points):\n",
                result.layers.size(), result.designs);
    for (const auto& s : result.layers)
      std::printf("  array %-7s %-12s designs %-7zu frontier %-4zu "
                  "cache hits %llu misses %llu pruned %llu\n",
                  arrayName(query.arrays[s.arrayIndex]).c_str(),
                  s.layer.c_str(), s.designs, s.frontierSize,
                  static_cast<unsigned long long>(s.cache.hits),
                  static_cast<unsigned long long>(s.cache.misses),
                  static_cast<unsigned long long>(s.cache.pruned));

    std::printf("\nnetwork frontier (%zu designs):\n", result.frontier.size());
    const std::size_t shown = std::min(maxFrontier, result.frontier.size());
    for (std::size_t i = 0; i < shown; ++i)
      printDesign(query, result.frontier[i], "  ");
    if (shown < result.frontier.size())
      std::printf("  ... %zu more (raise --max-frontier)\n",
                  result.frontier.size() - shown);

    if (result.best) {
      std::printf("\nbest (%s):\n",
                  driver::objectiveName(query.objective).c_str());
      printDesign(query, *result.best, "  ");
    }

    std::printf("\nservice cache: %s\n",
                explorer.service().cacheStats().str().c_str());
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

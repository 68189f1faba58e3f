// conformance_runner: sweep the cross-layer differential oracle.
//
//   conformance_runner                         # all registered workloads
//   conformance_runner --workload conv2d-strided
//   conformance_runner --seeds 200             # 200 random algebras
//   conformance_runner --seeds 1000 --time-budget-ms 120000   # CI smoke
//   conformance_runner --seeds 1 --seed-base 1337             # replay
//   conformance_runner --model all             # stitched builtin models
//   conformance_runner --model mlp-3 --threads 8
//   conformance_runner --network-seeds 100     # fuzzed stitched models
//
// Every design point of every scenario runs through the dense reference,
// the behavioral simulator with trace memoization on and off, and the
// generated netlist under both RTL engines; the first divergent layer is
// reported with the replay seed. Fuzz failures are shrunk to a minimal
// failing algebra before printing. --model / --network-seeds lift the
// oracle to whole models: per-layer exploration winners stitched into ONE
// compiled netlist with inter-layer buffers, executed element-exactly
// against the composed dense reference (src/verify/model_conformance.*).
// Exit code 0 iff everything conformed; 2 on usage errors, including a
// count flag that is not plain digits within its cap and a --rows/--cols
// outside the range the request fields take.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "driver/wire.hpp"
#include "support/error.hpp"
#include "tensor/network.hpp"
#include "tensor/workloads.hpp"
#include "verify/conformance.hpp"
#include "verify/fuzz.hpp"
#include "verify/model_conformance.hpp"
#include "verify/network_fuzz.hpp"

namespace {

using namespace tensorlib;

int usage() {
  std::printf(
      "usage: conformance_runner [--workload NAME] [--seeds N]\n"
      "                          [--seed-base S] [--data-seed S]\n"
      "                          [--rows R --cols C] [--max-specs N]\n"
      "                          [--max-rtl N] [--time-budget-ms T]\n"
      "                          [--model NAME|all] [--network-seeds N]\n"
      "                          [--threads T] [--no-shrink] [--list]\n"
      "With no --seeds/--workload/--model/--network-seeds, checks every\n"
      "registered workload. --model runs the stitched model oracle on a\n"
      "builtin network (all of them with 'all'); --network-seeds fuzzes\n"
      "random stitched models; --threads sets the exploration service\n"
      "worker count for the model paths.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, model;
  std::int64_t seeds = 0, seedBase = 1, networkSeeds = 0;
  std::size_t threads = 1;
  std::int64_t timeBudgetMs = 0;
  bool shrink = true, list = false;
  verify::ConformanceOptions options;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) { usage(); std::exit(2); }
        return argv[++i];
      };
      auto count = [&](std::size_t max =
                           std::numeric_limits<std::size_t>::max()) {
        const auto v = driver::wire::parseCount(next(), max);
        if (!v) { usage(); std::exit(2); }
        return *v;
      };
      constexpr auto kSeedMax =
          static_cast<std::size_t>(std::numeric_limits<std::int64_t>::max());
      if (a == "--workload") workload = next();
      else if (a == "--seeds")
        seeds = static_cast<std::int64_t>(count(kSeedMax));
      else if (a == "--seed-base")
        seedBase = driver::wire::parseIntFlag("--seed-base", next(),
                                              driver::wire::kNonNegativeRange);
      else if (a == "--data-seed") options.dataSeed = count();
      else if (a == "--rows")
        options.array.rows = driver::wire::parseIntFlag(
            "--rows", next(), driver::wire::kArraySideRange);
      else if (a == "--cols")
        options.array.cols = driver::wire::parseIntFlag(
            "--cols", next(), driver::wire::kArraySideRange);
      else if (a == "--max-specs") options.maxSpecsPerSelection = count();
      else if (a == "--max-rtl") options.maxRtlSpecs = count();
      else if (a == "--time-budget-ms")
        timeBudgetMs = driver::wire::parseIntFlag(
            "--time-budget-ms", next(), driver::wire::kNonNegativeRange);
      else if (a == "--model") model = next();
      else if (a == "--network-seeds")
        networkSeeds = static_cast<std::int64_t>(count(kSeedMax));
      else if (a == "--threads") threads = count(driver::wire::kMaxThreads);
      else if (a == "--no-shrink") shrink = false;
      else if (a == "--list") list = true;
      else return usage();
    }
  } catch (const Error& e) {  // a flag value malformed or out of range
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage();
  }

  if (list) {
    for (const auto& w : tensor::workloads::allWorkloads())
      std::printf("%-20s %s\n", w.name.c_str(), w.algebra.str().c_str());
    return 0;
  }

  const auto start = std::chrono::steady_clock::now();
  const auto budgetLeft = [&] {
    if (timeBudgetMs <= 0) return true;
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    return elapsed < timeBudgetMs;
  };

  int tableDivergent = 0, fuzzDivergent = 0;
  int modelDivergent = 0, networkFuzzDivergent = 0;
  std::int64_t checked = 0;

  verify::ModelConformanceOptions modelOptions;
  modelOptions.array = options.array;
  modelOptions.dataSeed = options.dataSeed;
  modelOptions.threads = threads > 0 ? threads : 1;

  // --- Scenario table ---------------------------------------------------
  const bool modelMode = !model.empty() || networkSeeds > 0;
  if ((seeds == 0 && !modelMode) || !workload.empty()) {
    for (const auto& w : tensor::workloads::allWorkloads()) {
      if (!workload.empty() && w.name != workload) continue;
      if (!budgetLeft()) {
        std::printf("time budget exhausted after %lld scenario(s)\n",
                    static_cast<long long>(checked));
        break;
      }
      verify::ConformanceOptions o = options;
      o.enumeration.dropAllUnicast = !w.allowAllUnicast;
      o.maxSpecsPerSelection =
          std::min(o.maxSpecsPerSelection, w.sweepCap);
      const auto report = verify::checkAlgebra(w.algebra, o);
      ++checked;
      const std::string detail =
          report.pass() ? std::string() : "\n" + report.summary();
      std::printf("[%s] %-20s specs=%zu rtl=%zu%s\n",
                  report.pass() ? "PASS" : "FAIL", w.name.c_str(),
                  report.specsChecked, report.rtlSpecsChecked, detail.c_str());
      if (!report.pass()) ++tableDivergent;
    }
    if (!workload.empty() && checked == 0) {
      std::fprintf(stderr, "unknown workload '%s' (try --list)\n",
                   workload.c_str());
      return 2;
    }
  }

  // --- Fuzzed algebras --------------------------------------------------
  if (seeds > 0) {
    const verify::FuzzOptions fuzzOpts;
    // Keep all-unicast (streaming) designs: without them ~1% of random
    // algebras enumerate an empty — vacuous — design space.
    verify::ConformanceOptions fuzzConformance = options;
    fuzzConformance.enumeration.dropAllUnicast = false;
    std::int64_t ran = 0;
    for (std::int64_t s = 0; s < seeds; ++s) {
      if (!budgetLeft()) {
        std::printf("time budget exhausted after %lld of %lld seeds\n",
                    static_cast<long long>(ran), static_cast<long long>(seeds));
        break;
      }
      const std::uint64_t seed = static_cast<std::uint64_t>(seedBase + s);
      const auto algebra = verify::randomAlgebra(seed, fuzzOpts);
      verify::ConformanceReport report;
      bool errored = false;
      std::string errorText;
      try {
        report = verify::checkAlgebra(algebra, fuzzConformance);
      } catch (const Error& e) {
        errored = true;
        errorText = e.what();
      }
      ++ran;
      if (!errored && report.pass()) continue;

      ++fuzzDivergent;
      std::printf("[FAIL] fuzz seed %llu\n  %s\n",
                  static_cast<unsigned long long>(seed),
                  verify::describeAlgebra(algebra).c_str());
      if (errored)
        std::printf("  pipeline error: %s\n", errorText.c_str());
      else
        std::printf("%s\n", report.summary().c_str());

      // Shrinking minimizes divergences; a vacuous failure (empty design
      // space) or pipeline error has nothing for the predicate to hold onto.
      if (shrink && !errored && !report.failures.empty()) {
        const auto minimal = verify::shrinkAlgebra(
            algebra, verify::divergencePredicate(fuzzConformance), fuzzOpts);
        std::printf("  shrunken to:\n  %s\n",
                    verify::describeAlgebra(minimal).c_str());
      }
      std::printf("  replay: conformance_runner --seeds 1 --seed-base %llu\n",
                  static_cast<unsigned long long>(seed));
    }
    std::printf("fuzz: %lld seed(s) checked, %d divergent\n",
                static_cast<long long>(ran), fuzzDivergent);
  }

  // --- Stitched builtin models ------------------------------------------
  if (!model.empty()) {
    bool found = false;
    for (const auto& network : tensor::workloads::builtinNetworks()) {
      if (model != "all" && network.name() != model) continue;
      found = true;
      if (!budgetLeft()) {
        std::printf("time budget exhausted before model '%s'\n",
                    network.name().c_str());
        break;
      }
      const auto report = verify::checkModel(network, modelOptions);
      std::printf("[%s] %s\n", report.pass() ? "PASS" : "FAIL",
                  report.summary().c_str());
      if (!report.pass()) ++modelDivergent;
    }
    if (!found) {
      std::fprintf(stderr, "unknown model '%s' (builtins: ", model.c_str());
      for (const auto& network : tensor::workloads::builtinNetworks())
        std::fprintf(stderr, "%s ", network.name().c_str());
      std::fprintf(stderr, ")\n");
      return 2;
    }
  }

  // --- Fuzzed stitched models -------------------------------------------
  if (networkSeeds > 0) {
    std::int64_t ran = 0;
    for (std::int64_t s = 0; s < networkSeeds; ++s) {
      if (!budgetLeft()) {
        std::printf("time budget exhausted after %lld of %lld network seeds\n",
                    static_cast<long long>(ran),
                    static_cast<long long>(networkSeeds));
        break;
      }
      const std::uint64_t seed = static_cast<std::uint64_t>(seedBase + s);
      const auto network = verify::randomNetwork(seed);
      const auto report = verify::checkModel(network, modelOptions);
      ++ran;
      if (report.pass()) continue;

      ++networkFuzzDivergent;
      std::printf("[FAIL] network fuzz seed %llu\n%s\n  %s\n",
                  static_cast<unsigned long long>(seed),
                  network.str().c_str(), report.summary().c_str());
      if (shrink) {
        const auto minimal = verify::shrinkNetwork(
            network, [&](const tensor::NetworkSpec& candidate) {
              return !verify::checkModel(candidate, modelOptions).pass();
            });
        std::printf("  shrunken to:\n%s\n", minimal.str().c_str());
      }
      std::printf(
          "  replay: conformance_runner --network-seeds 1 --seed-base %llu "
          "--data-seed %llu\n",
          static_cast<unsigned long long>(seed),
          static_cast<unsigned long long>(modelOptions.dataSeed));
    }
    std::printf("network fuzz: %lld seed(s) checked, %d divergent\n",
                static_cast<long long>(ran), networkFuzzDivergent);
  }

  return tableDivergent + fuzzDivergent + modelDivergent +
                     networkFuzzDivergent ==
                 0
             ? 0
             : 1;
}

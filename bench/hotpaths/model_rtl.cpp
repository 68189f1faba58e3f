// Section "model_rtl": stitched model execution on the compiled RTL tape,
// with the legacy interpreter timed alongside for reference.
//
// Builds the mlp-3 builtin model the same way the model oracle does — one
// realizable design per layer, stitched into ONE merged netlist with
// planner-sized inter-layer buffers — then executes the identical stitched
// top under both RTL engines:
//
//   compiled  the flattened evaluation tape (hwir::SimEngine::Compiled),
//             the engine the model oracle and the daemon run on.
//   legacy    the node-walking interpreter (hwir::SimEngine::Legacy), the
//             semantics reference.
//
// Every run of both engines must match the composed dense reference bit for
// bit (the same contract verify_model_conformance_test enforces). Gate (full
// mode only): the compiled tape finishes within kGateMaxCompiledMs. The
// legacy time and the compiled/legacy ratio are reported but not gated.
#include <cstdio>
#include <sstream>

#include "arch/model.hpp"
#include "sections.hpp"
#include "stt/enumerate.hpp"
#include "support/error.hpp"
#include "tensor/network.hpp"
#include "tensor/reference.hpp"
#include "tensor/workloads.hpp"

namespace tensorlib::bench::hotpaths {
namespace {

/// Budget for the compiled tape's stitched mlp-3 run. Measured at 10–21 ms
/// on a 4-vCPU host, so the budget leaves about 3x headroom: it fails on a
/// real regression of the tape, not on scheduler noise.
constexpr double kGateMaxCompiledMs = 60.0;
constexpr const char* kModel = "mlp-3";

/// First enumerated design the netlist generator can realize — the same
/// cheap spec source the buffer-property tests use (no cost models, no
/// exploration service; engine time is what this section measures).
stt::DataflowSpec firstRealizableSpec(const tensor::TensorAlgebra& algebra,
                                      bool allowAllUnicast,
                                      const arch::ModelBuildOptions& options) {
  stt::EnumerationOptions enumeration;
  enumeration.dropAllUnicast = !allowAllUnicast;
  arch::HardwareConfig hw = options.hw;
  hw.injectEverywhere = true;
  for (const stt::DataflowSpec& spec :
       stt::enumerateDesignSpace(algebra, enumeration)) {
    try {
      (void)arch::generateAccelerator(spec, options.array, hw);
      return spec;
    } catch (const Error&) {
      continue;
    }
  }
  fail("no realizable design for " + algebra.str());
}

}  // namespace

Section runModelRtl(const RunConfig& run) {
  const tensor::NetworkSpec* network = tensor::workloads::findNetwork(kModel);
  if (network == nullptr) fail(std::string("missing builtin model ") + kModel);

  arch::ModelBuildOptions options;
  std::vector<std::pair<std::string, stt::DataflowSpec>> layerSpecs;
  for (const auto& layer : network->layers())
    layerSpecs.emplace_back(
        layer.name,
        firstRealizableSpec(layer.algebra, layer.allowAllUnicast, options));
  const arch::ModelAccelerator model =
      arch::buildModelAccelerator(layerSpecs, options);

  std::vector<tensor::TensorEnv> envs;
  for (std::size_t l = 0; l < model.layers.size(); ++l)
    envs.push_back(
        tensor::makeRandomInputs(model.layers[l].acc.spec.algebra(), l + 1));
  const std::vector<tensor::DenseTensor> golden =
      arch::composedReference(model, envs);

  std::int64_t cycles = 0;  // stitched schedule length (both engines)
  std::vector<double> compiledMs, legacyMs;
  for (int rep = 0; rep < run.reps; ++rep) {
    for (const hwir::SimEngine engine :
         {hwir::SimEngine::Compiled, hwir::SimEngine::Legacy}) {
      arch::ModelRunOptions runOptions;
      runOptions.engine = engine;
      const auto t = Clock::now();
      const arch::ModelRunResult result =
          arch::runModelAccelerator(model, envs, runOptions);
      (engine == hwir::SimEngine::Compiled ? compiledMs : legacyMs)
          .push_back(msSince(t));
      cycles = result.cyclesRun;
      // Element-exactness on every run: the speed comparison is only
      // meaningful while both engines compute the same model.
      if (result.outputs.size() != golden.size())
        fail("stitched run returned the wrong layer count");
      for (std::size_t l = 0; l < golden.size(); ++l)
        if (golden[l].maxAbsDiff(result.outputs[l]) != 0.0)
          fail("stitched engine diverged from the composed reference at "
               "layer " +
               std::to_string(l));
    }
  }
  const double compiled = median(compiledMs), legacy = median(legacyMs);
  std::printf(
      "  model_rtl   %s  compiled %.1f ms | legacy %.1f ms (%.2fx)  [%zu "
      "layers, %lld cycles, both engines element-exact vs composed "
      "reference]\n",
      kModel, compiled, legacy, legacy / compiled, model.layers.size(),
      static_cast<long long>(cycles));

  const bool pass = run.smoke || compiled <= kGateMaxCompiledMs;
  std::ostringstream line;
  line << "\"model_rtl\": {\"model\": \"" << kModel
       << "\", \"layers\": " << model.layers.size()
       << ", \"cycles\": " << cycles << ", \"compiled_ms\": " << compiled
       << ", \"legacy_ms\": " << legacy << ", \"speedup\": " << legacy / compiled
       << ", \"gate_max_compiled_ms\": " << kGateMaxCompiledMs
       << ", \"pass\": " << (pass ? "true" : "false") << "}";
  return {line.str(), pass};
}

}  // namespace tensorlib::bench::hotpaths

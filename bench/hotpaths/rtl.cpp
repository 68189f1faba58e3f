// Section "rtl": RTL simulation node-evals/sec on the fig5a GEMM accelerator
// netlist (MNK-SST on 16x16 PEs), compiled tape and legacy interpreter, with
// a running output checksum proving bit-identical behavior.
//
// Gate (full mode only): the compiled tape runs the 2000 cycles within
// kGateMaxCompiledMs. The legacy interpreter's time and the compiled/legacy
// ratio are reported but not gated: the interpreter stays only as the
// equivalence oracle.
#include <cstdio>

#include "arch/generator.hpp"
#include "hwir/rtlsim.hpp"
#include "sections.hpp"
#include "stt/enumerate.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"
#include "tensor/workloads.hpp"

namespace tensorlib::bench::hotpaths {
namespace {

/// Budget for the compiled tape's 2000-cycle run of the 16x16 netlist.
/// Measured at 18–31 ms on a 4-vCPU host (240M–415M node evals/s), so the
/// budget leaves about 3x headroom: it fails on a real regression of the
/// tape, not on scheduler noise.
constexpr double kGateMaxCompiledMs = 100.0;

/// Drives the netlist for `cycles` with identical PRNG stimulus on both
/// engines and returns a checksum of every output port every cycle.
std::uint64_t driveNetlist(const hwir::Netlist& netlist, hwir::SimEngine engine,
                           std::int64_t cycles, std::vector<double>* ms) {
  hwir::RtlSimulator sim(netlist, engine);
  Prng rng(0xfeedULL);
  std::uint64_t checksum = 0;
  const auto t = Clock::now();
  for (std::int64_t c = 0; c < cycles; ++c) {
    for (hwir::NodeId in : netlist.inputs()) sim.poke(in, rng.next());
    sim.evaluate();
    for (hwir::NodeId out : netlist.outputs())
      checksum = checksum * 1099511628211ull + sim.peek(out);
    sim.step();
  }
  ms->push_back(msSince(t));
  return checksum;
}

}  // namespace

Section runRtl(const RunConfig& run) {
  // The fig5a workload: GEMM, paper array geometry, MNK-SST (systolic A and
  // B, stationary accumulators) — the densest netlist of the named designs.
  const std::int64_t side = run.smoke ? 4 : 16;
  const std::int64_t cycles = run.smoke ? 256 : 2000;
  const auto g = tensor::workloads::gemm(256, 256, 256);
  const auto spec = stt::findDataflowByLabel(g, "MNK-SST");
  TL_CHECK(spec.has_value(), "MNK-SST not realizable?");
  stt::ArrayConfig config;
  config.rows = side;
  config.cols = side;
  const auto acc = arch::generateAccelerator(*spec, config);

  std::vector<double> legacyMs, compiledMs;
  for (int rep = 0; rep < run.reps; ++rep) {
    const std::uint64_t legacySum = driveNetlist(
        acc.netlist, hwir::SimEngine::Legacy, cycles, &legacyMs);
    const std::uint64_t compiledSum = driveNetlist(
        acc.netlist, hwir::SimEngine::Compiled, cycles, &compiledMs);
    TL_CHECK(legacySum == compiledSum,
             "compiled tape diverged from legacy interpreter");
  }
  const double compiled = median(compiledMs), legacy = median(legacyMs);
  const std::size_t nodes = acc.netlist.size();
  const auto evalsPerSec = [&](double ms) {
    return static_cast<double>(nodes) * static_cast<double>(cycles) /
           (ms / 1000.0);
  };
  std::printf(
      "  rtl         compiled %.1f ms (%.0f evals/s) | legacy %.1f ms (%.0f "
      "evals/s, %.2fx)  [%zu nodes x %lld cycles, checksums equal]\n",
      compiled, evalsPerSec(compiled), legacy, evalsPerSec(legacy),
      legacy / compiled, nodes, static_cast<long long>(cycles));

  const bool pass = run.smoke || compiled <= kGateMaxCompiledMs;
  char line[512];
  std::snprintf(line, sizeof(line),
                "\"rtl\": {\"netlist\": \"fig5a_gemm_mnk_sst\", \"nodes\": "
                "%zu, \"cycles\": %lld, \"compiled_ms\": %.2f, "
                "\"legacy_ms\": %.2f, \"compiled_evals_per_sec\": %.0f, "
                "\"legacy_evals_per_sec\": %.0f, \"speedup\": %.2f, "
                "\"gate_max_compiled_ms\": %.0f, \"pass\": %s}",
                nodes, static_cast<long long>(cycles), compiled, legacy,
                evalsPerSec(compiled), evalsPerSec(legacy), legacy / compiled,
                kGateMaxCompiledMs, pass ? "true" : "false");
  return {line, pass};
}

}  // namespace tensorlib::bench::hotpaths

// Perf-regression harness for two hot paths:
//
//   1. RTL simulation: node-evals/sec on the fig5a GEMM accelerator netlist
//      (MNK-SST on 16x16 PEs) — compiled tape and legacy interpreter, with a
//      running output checksum proving bit-identical behavior.
//   2. Tile-trace construction: functional dataflow simulation with trace
//      memoization off (rebuild per tile per outer iteration, the seed
//      behavior) vs on (TileTraceCache).
//
// Emits BENCH_hotpaths.json. Gate (full mode only): the compiled tape runs
// the 2000 cycles within kGateMaxCompiledMs; exit status 1 if it does not.
// The legacy interpreter's time and the compiled/legacy ratio are reported
// but not gated: the interpreter stays only as the equivalence oracle.
//
// Usage: bench_perf_regression [--smoke] [--out <path>]
//   --smoke   small sizes, correctness asserts only, no timing gates (CI)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "arch/generator.hpp"
#include "bench_util.hpp"
#include "hwir/rtlsim.hpp"
#include "sim/dfsim.hpp"
#include "stt/enumerate.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"
#include "tensor/reference.hpp"
#include "tensor/workloads.hpp"

namespace {

using namespace tensorlib;
using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Budget for the compiled tape's 2000-cycle run of the 16x16 netlist.
/// Measured at 18–31 ms on a 4-vCPU host (240M–415M node evals/s), so the
/// budget leaves about 3x headroom: it fails on a real regression of the
/// tape, not on scheduler noise.
constexpr double kGateMaxCompiledMs = 100.0;

struct RtlReport {
  std::size_t nodes = 0;
  std::int64_t cycles = 0;
  double legacyMs = 0, compiledMs = 0;
  double evalsPerSec(double ms) const {
    return static_cast<double>(nodes) * static_cast<double>(cycles) /
           (ms / 1000.0);
  }
  double speedup() const { return legacyMs / compiledMs; }
};

/// Drives the netlist for `cycles` with identical PRNG stimulus on both
/// engines and returns a checksum of every output port every cycle.
std::uint64_t driveNetlist(const hwir::Netlist& netlist, hwir::SimEngine engine,
                           std::int64_t cycles, double* elapsedMs) {
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
  *elapsedMs = msSince(t);
  return checksum;
}

RtlReport benchRtl(std::int64_t rows, std::int64_t cols, std::int64_t cycles) {
  // The fig5a workload: GEMM, paper array geometry, MNK-SST (systolic A and
  // B, stationary accumulators) — the densest netlist of the named designs.
  const auto g = tensor::workloads::gemm(256, 256, 256);
  const auto spec = stt::findDataflowByLabel(g, "MNK-SST");
  TL_CHECK(spec.has_value(), "MNK-SST not realizable?");
  stt::ArrayConfig config;
  config.rows = rows;
  config.cols = cols;
  const auto acc = arch::generateAccelerator(*spec, config);

  RtlReport r;
  r.nodes = acc.netlist.size();
  r.cycles = cycles;
  const std::uint64_t legacySum =
      driveNetlist(acc.netlist, hwir::SimEngine::Legacy, cycles, &r.legacyMs);
  const std::uint64_t compiledSum =
      driveNetlist(acc.netlist, hwir::SimEngine::Compiled, cycles, &r.compiledMs);
  TL_CHECK(legacySum == compiledSum,
           "compiled tape diverged from legacy interpreter");
  return r;
}

struct TraceReport {
  double rebuildMs = 0, memoMs = 0;
  double speedup() const { return rebuildMs / memoMs; }
};

TraceReport benchTileTrace(std::int64_t dim, std::int64_t rows) {
  // Small array + larger extents = many tiles and outer iterations, the
  // regime where per-tile trace rebuilding dominated sim::simulate.
  const auto g = tensor::workloads::gemm(dim, dim, dim);
  const auto spec = stt::findDataflowByLabel(g, "MNK-SST");
  TL_CHECK(spec.has_value(), "MNK-SST not realizable?");
  const stt::ArrayConfig config{rows, rows, 320.0, 32.0, 2};
  tensor::TensorEnv env = tensor::makeRandomInputs(g, 3);

  sim::SimOptions rebuild;
  rebuild.reuseTraces = false;
  sim::SimOptions memo;  // reuseTraces = true

  TraceReport r;
  auto t = Clock::now();
  const sim::SimResult a = sim::simulate(*spec, config, &env, rebuild);
  r.rebuildMs = msSince(t);
  t = Clock::now();
  const sim::SimResult b = sim::simulate(*spec, config, &env, memo);
  r.memoMs = msSince(t);

  TL_CHECK(a.cycles == b.cycles && a.macs == b.macs &&
               a.trafficWords == b.trafficWords,
           "trace memoization changed simulation results");
  TL_CHECK(a.output.sameShape(b.output) && a.output.maxAbsDiff(b.output) == 0.0,
           "trace memoization changed functional output");
  return r;
}

void writeJson(const std::string& path, bool smoke, const RtlReport& rtl,
               const TraceReport& tr, bool rtlPass) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  TL_CHECK(f != nullptr, "cannot write " + path);
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"hotpaths\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f,
               "  \"rtl\": {\"netlist\": \"fig5a_gemm_mnk_sst\", \"nodes\": "
               "%zu, \"cycles\": %lld, \"compiled_ms\": %.2f, "
               "\"legacy_ms\": %.2f, \"compiled_evals_per_sec\": %.0f, "
               "\"legacy_evals_per_sec\": %.0f, \"speedup\": %.2f, "
               "\"gate_max_compiled_ms\": %.0f, \"pass\": %s},\n",
               rtl.nodes, static_cast<long long>(rtl.cycles), rtl.compiledMs,
               rtl.legacyMs, rtl.evalsPerSec(rtl.compiledMs),
               rtl.evalsPerSec(rtl.legacyMs), rtl.speedup(),
               kGateMaxCompiledMs, rtlPass ? "true" : "false");
  std::fprintf(f,
               "  \"tile_trace\": {\"workload\": \"gemm_mnk_sst\", "
               "\"rebuild_ms\": %.2f, \"memo_ms\": %.2f, \"speedup\": %.2f}\n",
               tr.rebuildMs, tr.memoMs, tr.speedup());
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace

int runBench(bool smoke, const std::string& out);

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
    return runBench(smoke, out);
  } catch (const tensorlib::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

int runBench(bool smoke, const std::string& out) {
  bench::printHeader(smoke ? "Hot-path perf regression (smoke)"
                           : "Hot-path perf regression");

  const RtlReport rtl = smoke ? benchRtl(4, 4, 256) : benchRtl(16, 16, 2000);
  std::printf(
      "  rtl sim      compiled %.1f ms (%.0f evals/s) | legacy %.1f ms (%.0f "
      "evals/s, %.2fx)  [%zu nodes x %lld cycles, checksums equal]\n",
      rtl.compiledMs, rtl.evalsPerSec(rtl.compiledMs), rtl.legacyMs,
      rtl.evalsPerSec(rtl.legacyMs), rtl.speedup(), rtl.nodes,
      static_cast<long long>(rtl.cycles));

  const TraceReport tr = smoke ? benchTileTrace(12, 4) : benchTileTrace(48, 8);
  std::printf(
      "  tile traces  rebuild %.1f ms | memoized %.1f ms (%.1fx)  [outputs "
      "equal]\n",
      tr.rebuildMs, tr.memoMs, tr.speedup());

  // Timing gates only in full mode: smoke runs (CI shared runners) assert
  // correctness above but never fail on wall-clock.
  const bool rtlPass = smoke || rtl.compiledMs <= kGateMaxCompiledMs;
  writeJson(out, smoke, rtl, tr, rtlPass);
  std::printf("  wrote %s\n", out.c_str());

  if (!rtlPass)
    std::printf("  GATE FAIL: compiled rtl %.1f ms > %.0f ms\n",
                rtl.compiledMs, kGateMaxCompiledMs);
  return rtlPass ? 0 : 1;
}

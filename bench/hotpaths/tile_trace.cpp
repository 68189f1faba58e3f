// Section "tile_trace": functional dataflow simulation with tile-trace
// memoization off (rebuild per tile per outer iteration, the seed behavior)
// vs on (sim::TileTraceCache). Both runs must agree in cycles, MACs,
// traffic and every output element. Reported, not gated.
#include <cstdio>

#include "sections.hpp"
#include "sim/dfsim.hpp"
#include "stt/enumerate.hpp"
#include "support/error.hpp"
#include "tensor/reference.hpp"
#include "tensor/workloads.hpp"

namespace tensorlib::bench::hotpaths {

Section runTileTrace(const RunConfig& run) {
  // Small array + larger extents = many tiles and outer iterations, the
  // regime where per-tile trace rebuilding dominated sim::simulate.
  const std::int64_t dim = run.smoke ? 12 : 48;
  const std::int64_t rows = run.smoke ? 4 : 8;
  const auto g = tensor::workloads::gemm(dim, dim, dim);
  const auto spec = stt::findDataflowByLabel(g, "MNK-SST");
  TL_CHECK(spec.has_value(), "MNK-SST not realizable?");
  const stt::ArrayConfig config{rows, rows, 320.0, 32.0, 2};
  tensor::TensorEnv env = tensor::makeRandomInputs(g, 3);

  sim::SimOptions rebuild;
  rebuild.reuseTraces = false;
  sim::SimOptions memo;  // reuseTraces = true

  std::vector<double> rebuildMs, memoMs;
  for (int rep = 0; rep < run.reps; ++rep) {
    auto t = Clock::now();
    const sim::SimResult a = sim::simulate(*spec, config, &env, rebuild);
    rebuildMs.push_back(msSince(t));
    t = Clock::now();
    const sim::SimResult b = sim::simulate(*spec, config, &env, memo);
    memoMs.push_back(msSince(t));

    TL_CHECK(a.cycles == b.cycles && a.macs == b.macs &&
                 a.trafficWords == b.trafficWords,
             "trace memoization changed simulation results");
    TL_CHECK(
        a.output.sameShape(b.output) && a.output.maxAbsDiff(b.output) == 0.0,
        "trace memoization changed functional output");
  }
  const double rebuilt = median(rebuildMs), memoized = median(memoMs);
  std::printf(
      "  tile_trace  rebuild %.1f ms | memoized %.1f ms (%.1fx)  [outputs "
      "equal]\n",
      rebuilt, memoized, rebuilt / memoized);

  char line[256];
  std::snprintf(line, sizeof(line),
                "\"tile_trace\": {\"workload\": \"gemm_mnk_sst\", "
                "\"rebuild_ms\": %.2f, \"memo_ms\": %.2f, \"speedup\": %.2f}",
                rebuilt, memoized, rebuilt / memoized);
  return {line, true};
}

}  // namespace tensorlib::bench::hotpaths

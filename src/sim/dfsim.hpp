// Behavioral cycle-accurate dataflow simulator.
//
// Replays the tile traces of a mapped dataflow design: every MAC at its
// (PE, cycle), every memory word at its injection cycle, with the shared
// scratchpad bandwidth modeled as a words-per-cycle server with backlog.
// In functional mode it also re-computes the output tensor purely from the
// trace (accumulating the product of input elements at every active point),
// which catches any defect in the space-time mapping — dropped iterations,
// PE collisions, wrong element indexing — against the reference executor.
#pragma once

#include <cstdint>

#include "sim/trace.hpp"
#include "stt/mapping.hpp"
#include "tensor/reference.hpp"

namespace tensorlib::sim {

/// Behavioral-simulation controls; results are identical across every
/// setting (docs/TUNING.md documents each knob and when to flip it).
struct SimOptions {
  /// Replay every tile and accumulate output values (needs the env).
  bool functional = true;
  /// Assert that no two MACs land on the same (PE, cycle) — the paper's
  /// full-rank one-op-per-cycle property.
  bool checkCollisions = true;
  /// Memoize tile traces by shape through sim::TileTraceCache instead of
  /// rebuilding one per tile per outer iteration (traces are congruent
  /// across origins). Results are identical; off = the original rebuild
  /// path, kept as the perf baseline in bench/hotpaths/tile_trace.cpp.
  bool reuseTraces = true;
};

struct SimResult {
  std::int64_t cycles = 0;         ///< total, including bandwidth stalls
  std::int64_t computeCycles = 0;  ///< bandwidth-unconstrained total
  std::int64_t macs = 0;
  std::int64_t trafficWords = 0;   ///< memory words moved (reads + writes)
  double utilization = 0.0;        ///< macs / (PEs * cycles)
  /// Memory words per tensor in label order (output = writes). The
  /// per-dataflow traffic signature: unicast ~ MACs, systolic/multicast ~
  /// footprint, stationary ~ resident set.
  std::vector<std::int64_t> tensorTrafficWords;
  std::int64_t peakDemandWords = 0;  ///< max words requested in one cycle
  tensor::DenseTensor output;        ///< functional mode only
};

/// Number of cycles to drain a per-cycle word-demand profile through a
/// server of `wordsPerCycle` capacity (>= profile length; backlog carries).
std::int64_t serveCycles(const std::vector<std::int64_t>& demandPerCycle,
                         double wordsPerCycle);

/// Simulates the full algebra of `spec` on `config`. `env` may be null when
/// options.functional is false.
SimResult simulate(const stt::DataflowSpec& spec, const stt::ArrayConfig& config,
                   const tensor::TensorEnv* env, const SimOptions& options = {});

}  // namespace tensorlib::sim

// Analytic performance model for large design-space sweeps (Fig. 5).
//
// Uses the exact same per-tile quantities as the behavioral simulator
// (time-row span, per-tensor footprints, replication, bandwidth budget) but
// aggregates them in closed form instead of replaying traces, so a 16x16
// array running ResNet-sized convolutions evaluates in microseconds. The
// test suite pins this model to the behavioral simulator on configurations
// small enough to replay.
#pragma once

#include <cstdint>
#include <string>

#include "stt/block.hpp"
#include "stt/mapping.hpp"

namespace tensorlib::sim {

struct PerfResult {
  std::int64_t totalCycles = 0;
  std::int64_t computeCycles = 0;    ///< bandwidth-unconstrained
  std::int64_t bandwidthCycles = 0;  ///< compute-unconstrained
  std::int64_t macs = 0;
  std::int64_t trafficWords = 0;
  double utilization = 0.0;  ///< macs / (PEs * totalCycles); Fig. 5's metric
  double throughputGops = 0.0;  ///< 2 * macs / time at config frequency
  bool bandwidthBound = false;

  std::string str() const;
};

/// Closed-form performance estimate of `spec` on `config`.
PerfResult estimatePerformance(const stt::DataflowSpec& spec,
                               const stt::ArrayConfig& config);

/// Derives the ratio metrics (bandwidthBound, utilization, throughputGops)
/// from the accumulated counters. Division-safe: zero cycles, zero PEs or a
/// zero/invalid frequency yield 0 utilization/throughput, never NaN or inf.
PerfResult finalizePerf(PerfResult raw, const stt::ArrayConfig& config);

/// Closed-form performance of an already-computed tile mapping — the shared
/// core behind estimatePerformance and the block evaluation path, so both
/// are bit-identical by construction given the same mapping.
PerfResult perfFromMapping(const stt::TileMapping& mapping,
                           const stt::ArrayConfig& config);

/// Provable lower bound on estimatePerformance(spec, config).totalCycles,
/// computed without the tile-mapping search (a few dozen operations):
///   * compute: total MACs / PEs — a full-rank transform maps at most one
///     MAC per PE per cycle, at any tiling and replication.
///   * bandwidth rate: any pass sustains at most wordsPerCycle * intensity
///     MACs per cycle, and the arithmetic intensity of every fitting tile
///     is capped by the unmatched-loop extent products under the per-loop
///     spatial span caps.
///   * bandwidth coverage: every grid tiling is charged at least the
///     covered extent product of each tensor's selected loops (one distinct
///     nonzero-coefficient selected loop per tensor dimension), times the
///     outer iteration count, divided by the words-per-cycle budget.
/// The bound is exact for some specs (e.g. utilization-1.0 GEMM designs)
/// and never exceeds the true cycle count — see the pruning soundness tests.
std::int64_t cyclesLowerBound(const stt::DataflowSpec& spec,
                              const stt::ArrayConfig& config);

/// cyclesLowerBound on packed data: the same arithmetic in the same order
/// over SpecBlockSet slot `i`, bit-identical to the scalar overload on the
/// spec packed there (every term is sign-invariant, so the |.|-packed
/// coefficients lose nothing). This is the block pruning pass's inner loop:
/// no spec, matrix or vector is touched, only contiguous int64 arrays.
std::int64_t cyclesLowerBound(const stt::SpecBlockSet& set, std::size_t i,
                              const stt::ArrayConfig& config);

}  // namespace tensorlib::sim

// FPGA resource / frequency / throughput model (the Vivado role for
// Table III).
//
// Targets the paper's board, a Xilinx VU9P (1182k LUTs, 6840 DSPs, 2160
// BRAM36). Resource counts derive from the same structural inventory as the
// ASIC model plus a floating-point unit cost table; frequency comes from a
// simple interconnect-style model with the paper's AutoBridge-style
// placement optimization as an opt-in (+25% on systolic designs, §VI-C).
#pragma once

#include <string>

#include "cost/asic.hpp"
#include "sim/perf.hpp"

namespace tensorlib::cost {

struct FpgaDevice {
  std::string name = "VU9P";
  std::int64_t luts = 1182000;
  std::int64_t dsps = 6840;
  std::int64_t bram36 = 2160;
};

struct FpgaConfig {
  FpgaDevice device;
  bool fp32 = true;       ///< FP32 datapath (Table III) vs INT16
  std::int64_t vectorLanes = 8;  ///< per-PE SIMD vectorization (paper: 8)
  bool placementOptimized = false;  ///< AutoBridge-style floorplanning
};

struct FpgaReport {
  std::int64_t luts = 0;
  std::int64_t dsps = 0;
  std::int64_t bram = 0;
  double lutPct = 0.0, dspPct = 0.0, bramPct = 0.0;
  double frequencyMHz = 0.0;
  double gops = 0.0;  ///< 2 * MACs/s at achieved frequency and utilization
  /// Activity-weighted dynamic power at the achieved frequency plus the
  /// device static floor — same axis (mW) as AsicReport::powerMw so the
  /// two backends present one objective surface.
  double powerMw = 0.0;
  /// The structural inventory the resource counts were derived from
  /// (mirrors AsicReport::inventory).
  StructureInventory inventory;
  /// Fraction of the limiting device resource consumed (0..1); the FPGA
  /// "area" axis for objectives and Pareto frontiers.
  double utilizationFraction() const;
  CostFigures figures() const { return {powerMw, utilizationFraction()}; }
  std::string str() const;
};

/// Post-route clock the interconnect model predicts for `spec` under `cfg`
/// (systolic designs close timing highest; broadcast nets and unicast
/// fabrics cost routing slack; placement optimization lifts the result).
double fpgaFrequencyMHz(const stt::DataflowSpec& spec, const FpgaConfig& cfg);

/// The interconnect model's frequency tiers, exposed for the block path:
/// tier 0 = neighbor-only wiring (263 MHz), 1 = broadcast nets (231),
/// 2 = unicast port fabric (221). fpgaFrequencyMHz(spec, cfg) ==
/// fpgaTierFrequencyMHz(fpgaFrequencyTier(...), cfg) by construction.
int fpgaFrequencyTier(const stt::SpecBlockSet& set, std::size_t i);
double fpgaTierFrequencyMHz(int tier, const FpgaConfig& cfg);

/// The array configuration FPGA performance must be modeled at: the caller's
/// geometry/bandwidth with the frequency forced to fpgaFrequencyMHz and the
/// word size forced to match the fp32 flag (a stale INT16 dataBytes would
/// double the deliverable words/cycle for FP32 designs).
stt::ArrayConfig fpgaPerfConfig(const stt::DataflowSpec& spec,
                                const stt::ArrayConfig& arrayConfig,
                                const FpgaConfig& cfg);

/// The mapping-free part of the estimate: resources, frequency and power
/// derive from the structural inventory alone, so this costs microseconds
/// and is exact — it is what the exploration service's lower-bound pruning
/// pass prices. `gops` is left at 0 (it needs the performance model).
FpgaReport estimateFpgaResources(const stt::DataflowSpec& spec,
                                 const stt::ArrayConfig& arrayConfig,
                                 const FpgaConfig& cfg);

/// Prices an already-derived inventory at an already-decided frequency —
/// the single arithmetic core behind estimateFpgaResources and the block
/// evaluation path (`gops` is left at 0, exactly as estimateFpgaResources
/// leaves it). `pes` is the physical array size rows * cols.
FpgaReport fpgaFromInventory(const StructureInventory& inventory,
                             double frequencyMHz, std::int64_t pes,
                             const FpgaConfig& cfg);

/// Estimates the FPGA implementation of `spec` mapped on `arrayConfig`
/// (rows x cols PEs, each with cfg.vectorLanes MAC lanes) running the
/// spec's own workload for utilization.
FpgaReport estimateFpga(const stt::DataflowSpec& spec,
                        const stt::ArrayConfig& arrayConfig,
                        const FpgaConfig& cfg);

}  // namespace tensorlib::cost

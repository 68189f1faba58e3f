// ASIC area/power model (the Synopsys-DC role for Fig. 6).
//
// The model prices the *structure* the generator would emit: multipliers,
// accumulation adders, pipeline/double-buffer registers, injection muxes,
// multicast bus wiring (length x fanout), reduction-tree adders and
// per-PE control — derived analytically from the dataflow spec (and
// cross-checked against generated netlist inventories in tests). Unit
// costs are 55nm-class constants calibrated so a 16x16 INT16 GEMM design
// space lands in the paper's reported ranges (area 0.75-0.88 mm², power
// 35-63 mW @ 320 MHz); what matters for Fig. 6 is the *relative* cost of
// dataflow choices, which comes from real structural differences.
#pragma once

#include <cstdint>
#include <string>

#include "stt/block.hpp"
#include "stt/mapping.hpp"

namespace tensorlib::cost {

/// Structural inventory of one generated design on a rows x cols array.
struct StructureInventory {
  std::int64_t pes = 0;
  std::int64_t multipliers = 0;     ///< (inputs-1) per PE
  std::int64_t accumAdders = 0;     ///< stationary/systolic output adders
  std::int64_t treeAdders = 0;      ///< reduction-tree adders
  std::int64_t dataRegBits = 0;     ///< pipeline + double-buffer + psum regs
  std::int64_t muxes = 0;           ///< injection / drain / swap muxes
  std::int64_t busLines = 0;        ///< multicast/broadcast bus count
  std::int64_t busTaps = 0;         ///< total PE taps on buses
  std::int64_t memPorts = 0;        ///< parallel scratchpad ports
  std::int64_t stationaryPes = 0;   ///< PEs holding stationary data (control)
  std::int64_t unicastPorts = 0;    ///< per-PE private memory ports
};

/// Derives the inventory from the dataflow classes (Fig. 3 templates).
StructureInventory deriveInventory(const stt::DataflowSpec& spec,
                                   const stt::ArrayConfig& config,
                                   int dataWidth);

/// Packed overload: the same per-class template arithmetic over
/// SpecBlockSet slot `i` (class tags, |direction|, |lattice dt|), touching
/// no DataflowSpec — bit-identical to the scalar overload by tests.
StructureInventory deriveInventory(const stt::SpecBlockSet& set, std::size_t i,
                                   const stt::ArrayConfig& config,
                                   int dataWidth);

/// 55nm-class unit costs. Defaults are the calibrated values used by the
/// Fig. 6 bench; exposed so ablations can vary them.
struct AsicCostTable {
  // area, um^2
  double mulAreaPerBit2 = 5.2;     ///< multiplier ~ k * w^2
  double addAreaPerBit = 14.0;
  double regAreaPerBit = 6.0;
  double muxAreaPerBit = 5.0;
  double ctrlAreaPerPe = 180.0;
  double ctrlAreaStationaryPe = 200.0;  ///< extra for double-buffer control
  double busAreaPerTap = 36.0;
  double memPortArea = 350.0;
  double peOverheadArea = 320.0;  ///< local routing/clocking per PE
  // power, mW at 320 MHz (switching-activity-weighted)
  double mulPowerPerBit2 = 3.4e-4;
  double addPowerPerBit = 6.5e-4;
  double regPowerPerBit = 3.5e-4;
  double muxPowerPerBit = 1.2e-4;
  double ctrlPowerPerPe = 8.0e-3;
  double ctrlPowerStationaryPe = 1.4e-2;
  double busPowerPerTapBit = 2.0e-3;  ///< long-wire broadcast toggling
  double memPortPower = 4.2e-2;       ///< bank port incl. addressing
  double clockTreePowerPerPe = 1.1e-2;
};

/// Backend-neutral cost figures shared by the ASIC and FPGA reports — the
/// two axes objectives and Pareto frontiers optimize besides cycles. `area`
/// is mm² for ASIC and device-resource fraction (0..1 of the limiting
/// resource) for FPGA; within one query the backend is fixed, so the
/// frontier never mixes units.
struct CostFigures {
  double powerMw = 0.0;
  double area = 0.0;
};

struct AsicReport {
  double areaMm2 = 0.0;
  double powerMw = 0.0;
  StructureInventory inventory;
  CostFigures figures() const { return {powerMw, areaMm2}; }
  std::string str() const;
};

/// Full ASIC estimate of a design point (Fig. 6 axes).
AsicReport estimateAsic(const stt::DataflowSpec& spec,
                        const stt::ArrayConfig& config, int dataWidth,
                        const AsicCostTable& table = {});

/// Prices an already-derived inventory — the single arithmetic core behind
/// estimateAsic and the block evaluation path, so the two agree bit for
/// bit by construction.
AsicReport asicFromInventory(StructureInventory inventory, int dataWidth,
                             const AsicCostTable& table = {});

}  // namespace tensorlib::cost
